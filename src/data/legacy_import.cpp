#include "data/legacy_import.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace tsufail::data {
namespace {

constexpr std::string_view kHeaderTag = "#legacy-v1";

/// Parses "D/M/Y;HH:MM" (two already-split fields) into a TimePoint.
Result<TimePoint> parse_legacy_time(std::string_view date, std::string_view time_of_day) {
  const auto date_parts = split(trim(date), '/');
  if (date_parts.size() != 3)
    return Error(ErrorKind::kParse, "legacy date must be D/M/Y: '" + std::string(date) + "'");
  auto day = parse_int32(trim(date_parts[0]));
  auto month = parse_int32(trim(date_parts[1]));
  auto year = parse_int32(trim(date_parts[2]));
  if (!day.ok() || !month.ok() || !year.ok())
    return Error(ErrorKind::kParse, "legacy date must be numeric: '" + std::string(date) + "'");
  if (year.value() < 1000)
    return Error(ErrorKind::kParse, "legacy date needs a 4-digit year: '" + std::string(date) + "'");

  const auto time_parts = split(trim(time_of_day), ':');
  if (time_parts.size() != 2)
    return Error(ErrorKind::kParse, "legacy time must be HH:MM: '" + std::string(time_of_day) + "'");
  auto hour = parse_int32(trim(time_parts[0]));
  auto minute = parse_int32(trim(time_parts[1]));
  if (!hour.ok() || !minute.ok())
    return Error(ErrorKind::kParse, "legacy time must be numeric: '" + std::string(time_of_day) + "'");

  CivilDateTime civil{year.value(), month.value(), day.value(), hour.value(), minute.value(),
                      0};
  if (auto valid = validate_civil(civil); !valid.ok()) return valid.error();
  return TimePoint::from_civil(civil);
}

/// Parses "G0+G3" / "-" into a slot list.
Result<std::vector<int>> parse_legacy_slots(std::string_view text) {
  std::vector<int> slots;
  text = trim(text);
  if (text.empty() || text == "-") return slots;
  for (std::string_view part : split(text, '+')) {
    part = trim(part);
    if (part.size() < 2 || (part.front() != 'G' && part.front() != 'g'))
      return Error(ErrorKind::kParse, "legacy slot must look like G0: '" + std::string(part) + "'");
    auto slot = parse_int32(part.substr(1));
    if (!slot.ok()) return slot.error().with_context("legacy slot");
    slots.push_back(slot.value());
  }
  return slots;
}

Result<FailureRecord> parse_legacy_line(std::string_view line, const MachineSpec& spec) {
  const auto fields = split(line, ';');
  if (fields.size() < 6)
    return Error(ErrorKind::kParse, "legacy line needs at least 6 ;-fields");

  FailureRecord record;
  auto time = parse_legacy_time(fields[0], fields[1]);
  if (!time.ok()) return time.error();
  record.time = time.value();

  auto node = parse_legacy_node_name(trim(fields[2]), spec);
  if (!node.ok()) return node.error();
  record.node = node.value();

  auto category = parse_category(fields[3]);
  if (!category.ok()) return category.error();
  record.category = category.value();

  auto downtime_days = parse_double(trim(fields[4]));
  if (!downtime_days.ok()) return downtime_days.error().with_context("downtime days");
  record.ttr_hours = downtime_days.value() * 24.0;

  auto slots = parse_legacy_slots(fields[5]);
  if (!slots.ok()) return slots.error();
  record.gpu_slots = std::move(slots.value());

  if (fields.size() >= 7 && record.failure_class() == FailureClass::kSoftware) {
    record.root_locus = std::string(trim(fields[6]));
  }
  return record;
}

}  // namespace

Result<int> parse_legacy_node_name(std::string_view name, const MachineSpec& spec) {
  // "rNNnMM": rack number then within-rack index, both decimal.
  if (name.size() < 4 || (name.front() != 'r' && name.front() != 'R'))
    return Error(ErrorKind::kParse, "legacy node name must be rNNnMM: '" + std::string(name) + "'");
  const auto n_pos = name.find_first_of("nN", 1);
  if (n_pos == std::string_view::npos)
    return Error(ErrorKind::kParse, "legacy node name must be rNNnMM: '" + std::string(name) + "'");
  auto rack = parse_int(name.substr(1, n_pos - 1));
  auto index = parse_int(name.substr(n_pos + 1));
  if (!rack.ok() || !index.ok())
    return Error(ErrorKind::kParse, "legacy node name must be rNNnMM: '" + std::string(name) + "'");
  if (spec.nodes_per_rack <= 0)
    return Error(ErrorKind::kValidation, "machine spec has no rack layout");
  if (rack.value() < 0 || rack.value() >= spec.rack_count())
    return Error(ErrorKind::kValidation, "rack out of range in '" + std::string(name) + "'");
  if (index.value() < 0 || index.value() >= spec.nodes_per_rack)
    return Error(ErrorKind::kValidation, "node index out of range in '" + std::string(name) + "'");
  const int node = static_cast<int>(rack.value()) * spec.nodes_per_rack +
                   static_cast<int>(index.value());
  if (node >= spec.node_count)
    return Error(ErrorKind::kValidation, "node beyond fleet size in '" + std::string(name) + "'");
  return node;
}

Result<ReadReport> import_legacy_v1(std::string_view text, ReadPolicy policy) {
  std::vector<std::string_view> lines = split(text, '\n');
  if (lines.empty() || trim(lines[0]).substr(0, kHeaderTag.size()) != kHeaderTag)
    return Error(ErrorKind::kParse, "missing '#legacy-v1 <machine>' header");
  auto machine = parse_machine(trim(trim(lines[0]).substr(kHeaderTag.size())));
  if (!machine.ok()) return machine.error().with_context("legacy header");
  const MachineSpec& spec = spec_for(machine.value());

  std::vector<FailureRecord> records;
  std::vector<RowError> row_errors;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    auto record = parse_legacy_line(line, spec);
    if (record.ok()) {
      if (auto valid = validate_record(record.value(), spec, /*slack_hours=*/24.0 * 14);
          valid.ok()) {
        records.push_back(std::move(record.value()));
        continue;
      } else if (policy == ReadPolicy::kStrict) {
        return valid.error().with_context("line " + std::to_string(i + 1));
      } else {
        row_errors.push_back({i + 1, valid.error().to_string()});
        continue;
      }
    }
    if (policy == ReadPolicy::kStrict)
      return record.error().with_context("line " + std::to_string(i + 1));
    row_errors.push_back({i + 1, record.error().to_string()});
  }
  if (records.empty())
    return Error(ErrorKind::kValidation, "legacy log contains no parsable data lines");

  auto log = FailureLog::create(spec, std::move(records), /*slack_hours=*/24.0 * 14);
  if (!log.ok()) return log.error();
  return ReadReport{std::move(log.value()), std::move(row_errors)};
}

Result<ReadReport> import_legacy_v1_file(const std::string& path, ReadPolicy policy) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Error(ErrorKind::kIo, "cannot open legacy log: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto report = import_legacy_v1(buffer.str(), policy);
  if (!report.ok()) return report.error().with_context(path);
  return report;
}

std::string export_legacy_v1(const FailureLog& log) {
  std::string out = std::string(kHeaderTag) + " " + std::string(to_string(log.machine())) + "\n";
  for (const auto& record : log.records()) {
    const CivilDateTime c = record.time.to_civil();
    char line[64];
    std::snprintf(line, sizeof(line), "%02d/%02d/%04d;%02d:%02d;r%02dn%02d;", c.day, c.month,
                  c.year, c.hour, c.minute, log.spec().rack_of(record.node),
                  record.node % log.spec().nodes_per_rack);
    out += line;
    out += std::string(to_string(record.category)) + ";";
    char days[32];
    std::snprintf(days, sizeof(days), "%.6f;", record.ttr_hours / 24.0);
    out += days;
    if (record.gpu_slots.empty()) {
      out += "-";
    } else {
      for (std::size_t i = 0; i < record.gpu_slots.size(); ++i) {
        if (i != 0) out += '+';
        out += "G" + std::to_string(record.gpu_slots[i]);
      }
    }
    if (!record.root_locus.empty()) out += ";" + record.root_locus;
    out += "\n";
  }
  return out;
}

}  // namespace tsufail::data
