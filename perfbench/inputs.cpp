#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/study.h"
#include "data/log_io.h"
#include "report/study_text.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace tsufail;

// Disjoint seed streams, so no two inputs of one seed share draws.
constexpr std::uint64_t kFleetStream = 0xF1EE7;
constexpr std::uint64_t kTenantStream = 0x7E4A47;
constexpr std::uint64_t kPaperStream = 0x9A9E4;

template <typename T>
T value_or_throw(Result<T> result, const char* what) {
  if (!result.ok()) throw std::runtime_error(std::string(what) + ": " + result.error().to_string());
  return std::move(result.value());
}

/// Rounds every TTR to the 4 decimals the CSV writer keeps, so the log
/// written as CSV or packed as a snapshot reads back record for record
/// (times are whole seconds already).  With `dedupe`, records repeating an
/// earlier (time, node, category) are dropped: the serve stream rejects
/// those as duplicates, so a replayed tenant would otherwise differ from
/// its batch log.
FailureLog canonical(FailureLog log, bool dedupe) {
  data::MachineSpec spec = log.spec();
  std::vector<data::FailureRecord> records = FailureLog::take_records(std::move(log));
  for (auto& record : records) record.ttr_hours = std::round(record.ttr_hours * 1e4) / 1e4;
  if (dedupe) {
    std::set<std::tuple<std::int64_t, int, data::Category>> seen;
    std::erase_if(records, [&](const data::FailureRecord& record) {
      return !seen.insert({record.time.seconds_since_epoch(), record.node, record.category})
                  .second;
    });
  }
  return FailureLog::from_sorted(std::move(spec), std::move(records));
}

FailureLog generate(const sim::MachineModel& model, std::uint64_t seed, bool dedupe) {
  return canonical(value_or_throw(sim::generate_log(model, seed), "generate_log"), dedupe);
}

}  // namespace

FailureLog scaled_log(std::uint64_t seed, std::size_t records) {
  sim::MachineModel model = sim::tsubame3_model();
  model.total_failures = records;
  return generate(model, fork_seed(seed, kFleetStream), false);
}

FailureLog paper_log(std::uint64_t seed, bool tsubame2) {
  return generate(tsubame2 ? sim::tsubame2_model() : sim::tsubame3_model(),
                  fork_seed(seed, kPaperStream + (tsubame2 ? 1 : 0)), true);
}

std::vector<TenantInput> fleet_tenants(std::uint64_t seed, std::size_t count) {
  std::vector<TenantInput> tenants;
  tenants.reserve(count);
  const std::uint64_t base = fork_seed(seed, kTenantStream);
  for (std::size_t t = 0; t < count; ++t) {
    const bool tsubame2 = t % 2 == 0;
    tenants.push_back({"fleet" + std::to_string(t), tsubame2 ? "tsubame-2" : "tsubame-3",
                       generate(tsubame2 ? sim::tsubame2_model() : sim::tsubame3_model(),
                                fork_seed(base, t), true)});
  }
  return tenants;
}

std::vector<std::string> csv_rows(const FailureLog& log) {
  std::vector<std::string> rows;
  rows.reserve(log.size());
  std::istringstream text(data::write_log_csv(log));
  std::string line;
  std::getline(text, line);  // header
  while (std::getline(text, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

std::vector<std::string> replay_script(const std::vector<TenantInput>& tenants) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(tenants.size());
  for (const auto& tenant : tenants) rows.push_back(csv_rows(tenant.log));

  std::vector<std::string> script;
  for (std::size_t third = 0; third < 3; ++third) {
    // Row i of this third for every tenant, then row i + 1, ...: tenants
    // interleave as concurrent fleets would.
    std::size_t longest = 0;
    for (const auto& r : rows)
      longest = std::max(longest, (third + 1) * r.size() / 3 - third * r.size() / 3);
    for (std::size_t i = 0; i < longest; ++i) {
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        const std::size_t begin = third * rows[t].size() / 3;
        const std::size_t end = (third + 1) * rows[t].size() / 3;
        if (begin + i < end)
          script.push_back("EVENT " + tenants[t].name + " " + rows[t][begin + i] + "\n");
      }
    }
    for (const auto& tenant : tenants) script.push_back("SEAL " + tenant.name + "\n");
  }
  for (const auto& tenant : tenants) {
    for (const auto& key : serve::FleetService::keys()) {
      const std::string line = "QUERY " + tenant.name + " " + std::string(key.key) + "\n";
      for (std::size_t r = 0; r <= kQueryRepeats; ++r) script.push_back(line);
    }
  }
  return script;
}

std::string study_text(const FailureLog& log, std::size_t jobs) {
  auto study = value_or_throw(analysis::run_study(log, {jobs}), "run_study");
  return report::render_study_text(log, study);
}

}  // namespace perfbench
