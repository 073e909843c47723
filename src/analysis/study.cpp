#include "analysis/study.h"

#include <utility>
#include <vector>

#include "analysis/executor.h"
#include "data/log_index.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace tsufail::analysis {

Result<StudyReport> run_study(const data::FailureLog& log, const StudyOptions& options) {
  if (log.empty())
    return Error(ErrorKind::kDomain, "run_study: empty log");

  OBS_SPAN("study.run");
  static obs::Counter runs = obs::counter("study.runs");
  runs.add();

  StudyReport report;

  // The index is built by the first task; every analysis depends on it,
  // so the executor's publication order guarantees they see the build.
  std::optional<data::LogIndex> index;

  Executor executor;
  const auto index_task = executor.add("index", [&]() -> Result<void> {
    index.emplace(log);
    return {};
  });

  // Registers one analysis over the shared index: on success the value
  // moves into its report slot, on failure the error reaches the
  // executor.  Tasks only touch their own slot, so parallel runs do not
  // race on the report.
  const auto add_analysis = [&](std::string name, auto analyze, auto& slot) {
    return executor.add(
        std::move(name),
        [&index, analyze, &slot]() -> Result<void> {
          auto result = analyze(*index);
          if (!result.ok()) return result.error();
          slot = std::move(result.value());
          return {};
        },
        {index_task});
  };

  // Registration order mirrors the sequential study; required analyses
  // abort the study on failure, the rest land in report.skipped.
  std::vector<Executor::TaskId> required{index_task};
  required.push_back(add_analysis(
      "categories", [](const data::LogIndex& i) { return analyze_categories(i); },
      report.categories));
  add_analysis(
      "software_loci", [](const data::LogIndex& i) { return analyze_software_loci(i); },
      report.software_loci);
  required.push_back(add_analysis(
      "node_counts", [](const data::LogIndex& i) { return analyze_node_counts(i); },
      report.node_counts));
  add_analysis(
      "gpu_slots", [](const data::LogIndex& i) { return analyze_gpu_slots(i); },
      report.gpu_slots);
  add_analysis(
      "multi_gpu", [](const data::LogIndex& i) { return analyze_multi_gpu(i); },
      report.multi_gpu);
  add_analysis(
      "tbf", [](const data::LogIndex& i) { return analyze_tbf(i); }, report.tbf);
  add_analysis(
      "tbf_by_category", [](const data::LogIndex& i) { return analyze_tbf_by_category(i); },
      report.tbf_by_category);
  add_analysis(
      "multi_gpu_clustering",
      [](const data::LogIndex& i) { return analyze_multi_gpu_clustering(i); },
      report.multi_gpu_clustering);
  required.push_back(add_analysis(
      "ttr", [](const data::LogIndex& i) { return analyze_ttr(i); }, report.ttr));
  add_analysis(
      "ttr_by_category", [](const data::LogIndex& i) { return analyze_ttr_by_category(i); },
      report.ttr_by_category);
  required.push_back(add_analysis(
      "seasonal", [](const data::LogIndex& i) { return analyze_seasonal(i); },
      report.seasonal));
  required.push_back(add_analysis(
      "perf_error_prop", [](const data::LogIndex& i) { return analyze_perf_error_prop(i); },
      report.perf_error_prop));

  const auto outcomes = executor.run(options.jobs);

  for (Executor::TaskId id : required) {
    if (!outcomes[id].ok())
      return outcomes[id].error->with_context("run_study: " + outcomes[id].name);
  }
  for (Executor::TaskId id = 0; id < outcomes.size(); ++id) {
    const auto& outcome = outcomes[id];
    if (outcome.ok()) continue;
    report.skipped.push_back({outcome.name, *outcome.error});
  }
  return report;
}

}  // namespace tsufail::analysis
