#include "analysis/study.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/parallel.h"

namespace tsufail::analysis {
namespace {

/// Span name for one analysis ("study.tbf").  Interned only while obs is
/// enabled, so the disabled path never allocates.
const char* task_span_name(const char* analysis) {
  if (!obs::enabled()) return nullptr;
  return obs::intern((std::string("study.") + analysis).c_str());
}

/// Moves a successful analysis result into its report slot.
template <typename T, typename Slot>
Result<void> fill(Result<T> result, Slot& slot) {
  if (!result.ok()) return result.error();
  slot = std::move(result).value();
  return {};
}

}  // namespace

Result<StudyReport> run_study(const data::FailureLog& log, const StudyOptions& options) {
  return run_study(data::LogIndex(log), options);
}

Result<StudyReport> run_study(const data::LogIndex& index, const StudyOptions& options) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "run_study: empty log");

  OBS_SPAN("study.run");
  static obs::Counter runs = obs::counter("study.runs");
  static obs::Counter tasks_run = obs::counter("study.tasks_run");
  static obs::Counter tasks_failed = obs::counter("study.tasks_failed");
  runs.add();

  // One task per analysis, in registration order.  Each task writes only
  // its own report slot, so parallel runs do not race on the report.  A
  // required analysis that fails fails the study; any other lands in
  // StudyReport::skipped.  No output prints a best-fit family, so the
  // study fits none; a scalars-only study also ranks no loci: its
  // software_loci task returns at once.
  StudyReport report;
  const struct {
    const char* name;
    bool required;
    std::function<Result<void>()> run;
  } tasks[] = {
      {"categories", true, [&] { return fill(analyze_categories(index), report.categories); }},
      {"software_loci", false,
       [&]() -> Result<void> {
         if (options.scalars_only) return {};
         return fill(analyze_software_loci(index), report.software_loci);
       }},
      {"node_counts", true, [&] { return fill(analyze_node_counts(index), report.node_counts); }},
      {"gpu_slots", false, [&] { return fill(analyze_gpu_slots(index), report.gpu_slots); }},
      {"multi_gpu", false, [&] { return fill(analyze_multi_gpu(index), report.multi_gpu); }},
      {"tbf", false, [&] { return fill(analyze_tbf(index, /*fit_family=*/false), report.tbf); }},
      {"tbf_by_category", false,
       [&] { return fill(analyze_tbf_by_category(index), report.tbf_by_category); }},
      {"multi_gpu_clustering", false,
       [&] { return fill(analyze_multi_gpu_clustering(index), report.multi_gpu_clustering); }},
      {"ttr", true, [&] { return fill(analyze_ttr(index, /*fit_family=*/false), report.ttr); }},
      {"ttr_by_category", false,
       [&] { return fill(analyze_ttr_by_category(index), report.ttr_by_category); }},
      {"seasonal", true, [&] { return fill(analyze_seasonal(index), report.seasonal); }},
      {"perf_error_prop", true,
       [&] { return fill(analyze_perf_error_prop(index), report.perf_error_prop); }},
  };

  // Workers claim the longest tasks first (serial task times on a
  // 10^6-record log), so on a large log the pool does not wait on one
  // claimed late, and the calling thread runs the longest itself; the
  // rest, about 1 ms each there, follow in registration order.  Results
  // are indexed by task, so the order changes no output.
  static constexpr std::string_view kLongestFirst[] = {
      "ttr", "tbf", "ttr_by_category", "seasonal", "tbf_by_category", "software_loci",
      "node_counts"};
  const auto rank = [&tasks](std::size_t t) {
    return std::find(std::begin(kLongestFirst), std::end(kLongestFirst), tasks[t].name) -
           std::begin(kLongestFirst);
  };
  std::vector<std::size_t> claim_order(std::size(tasks));
  std::iota(claim_order.begin(), claim_order.end(), std::size_t{0});
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&rank](std::size_t a, std::size_t b) { return rank(a) < rank(b); });

  auto claimed = parallel_for(
      std::size(tasks), options.jobs, [] { return 0; }, [&](int, std::size_t c) {
        const auto& task = tasks[claim_order[c]];
        obs::SpanScope span(task_span_name(task.name));
        return task.run();
      });
  std::vector<std::optional<Error>> errors(std::size(tasks));
  for (std::size_t c = 0; c < claimed.size(); ++c) errors[claim_order[c]] = std::move(claimed[c]);
  tasks_run.add(std::size(tasks));
  tasks_failed.add(static_cast<std::uint64_t>(
      std::count_if(errors.begin(), errors.end(), [](const auto& e) { return e.has_value(); })));

  for (std::size_t t = 0; t < std::size(tasks); ++t) {
    if (!errors[t].has_value()) continue;
    if (tasks[t].required)
      return errors[t]->with_context(std::string("run_study: ") + tasks[t].name);
    report.skipped.push_back({tasks[t].name, *errors[t]});
  }
  return report;
}

}  // namespace tsufail::analysis
