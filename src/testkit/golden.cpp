#include "testkit/golden.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "ops/repair_sweep.h"
#include "report/markdown_report.h"
#include "report/repair_text.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::testkit {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorKind::kIo, "cannot open golden file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<void> write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Error(ErrorKind::kIo, "cannot write golden file: " + path);
  out << content;
  out.flush();
  if (!out) return Error(ErrorKind::kIo, "short write to golden file: " + path);
  return {};
}

Result<std::string> report_markdown(const sim::MachineModel& model, const char* who) {
  auto log = sim::generate_log(model, kGoldenSeed);
  if (!log.ok()) return log.error().with_context(who);
  auto markdown = report::render_markdown_report(log.value());
  if (!markdown.ok()) return markdown.error().with_context(who);
  return std::move(markdown).value();
}

}  // namespace

Result<std::string> golden_report_markdown(data::Machine machine) {
  const sim::MachineModel& model = machine == data::Machine::kTsubame2
                                       ? sim::tsubame2_model()
                                       : sim::tsubame3_model();
  return report_markdown(model, "golden_report_markdown");
}

Result<std::string> golden_fleet_report_markdown() {
  sim::MachineModel model = sim::tsubame3_model();
  model.total_failures = kFleetGoldenFailures;
  return report_markdown(model, "golden_fleet_report_markdown");
}

Result<std::string> golden_repairs_markdown(data::Machine machine, std::size_t jobs) {
  const sim::MachineModel& model = machine == data::Machine::kTsubame2
                                       ? sim::tsubame2_model()
                                       : sim::tsubame3_model();
  // A deliberately contended shop, so the policies actually diverge in
  // the golden: two crews, a small GPU pool with a two-week lead, and a
  // load throttle that lifts below 95% healthy capacity.
  ops::RepairShopConfig base;
  base.crews = 2;
  base.spare_pools.push_back({data::Category::kGpu, {2, 336.0}});
  base.throttle.max_active = 1;
  base.throttle.boost_below_capacity = 0.95;

  ops::RepairSweepOptions options;
  options.sweep.base_seed = kGoldenSeed;
  options.sweep.replicates = 6;
  options.sweep.jobs = jobs;
  options.job_mix.jobs = 400;
  auto sweep =
      ops::run_repair_policy_sweep(model, ops::default_policy_variants(base), options);
  if (!sweep.ok()) return sweep.error().with_context("golden_repairs_markdown");
  return report::render_repair_comparison(sweep.value(), base, options.sweep);
}

std::string diff_lines(const std::string& expected, const std::string& actual,
                       std::size_t context) {
  if (expected == actual) return {};
  const std::vector<std::string> a = split_lines(expected);
  const std::vector<std::string> b = split_lines(actual);

  // Longest-common-prefix/suffix trim keeps the output focused on the
  // changed region; within it, emit a plain paired walk.  (Report diffs
  // in practice are localized — a full LCS is not worth the code.)
  std::size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) ++prefix;
  std::size_t suffix = 0;
  while (suffix < a.size() - prefix && suffix < b.size() - prefix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix])
    ++suffix;

  std::ostringstream out;
  const std::size_t lead = prefix > context ? prefix - context : 0;
  if (lead > 0) out << "  ... " << lead << " common line(s)\n";
  for (std::size_t i = lead; i < prefix; ++i) out << "  " << a[i] << "\n";
  for (std::size_t i = prefix; i < a.size() - suffix; ++i) out << "- " << a[i] << "\n";
  for (std::size_t i = prefix; i < b.size() - suffix; ++i) out << "+ " << b[i] << "\n";
  const std::size_t tail = std::min(context, suffix);
  for (std::size_t i = 0; i < tail; ++i) out << "  " << a[a.size() - suffix + i] << "\n";
  if (suffix > tail) out << "  ... " << (suffix - tail) << " common line(s)\n";
  return out.str();
}

bool update_golden_requested() {
  const char* env = std::getenv("TSUFAIL_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::optional<std::string> check_golden(const std::string& path, const std::string& actual) {
  if (update_golden_requested()) {
    auto written = write_file(path, actual);
    if (!written.ok()) return written.error().to_string();
    return std::nullopt;
  }
  auto expected = read_file(path);
  if (!expected.ok()) {
    return expected.error().to_string() +
           "\n  (generate it with: TSUFAIL_UPDATE_GOLDEN=1 ctest -L golden)";
  }
  if (expected.value() == actual) return std::nullopt;
  return "golden mismatch for " + path + ":\n" + diff_lines(expected.value(), actual) +
         "  (if the new output is intended: TSUFAIL_UPDATE_GOLDEN=1 ctest -L golden)";
}

}  // namespace tsufail::testkit
