#include "analysis/perf_error_prop.h"

namespace tsufail::analysis {

Result<PerfErrorProportionality> analyze_perf_error_prop(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_perf_error_prop: empty log");
  const data::MachineSpec& spec = index.spec();
  PerfErrorProportionality result;
  result.mtbf_hours = spec.window_hours() / static_cast<double>(index.size());
  result.rpeak_pflops = spec.rpeak_pflops;
  result.pflop_hours_per_failure_free_period = result.rpeak_pflops * result.mtbf_hours;
  result.components = spec.total_gpu_cpu_components();
  result.pflop_hours_per_component =
      result.pflop_hours_per_failure_free_period / static_cast<double>(result.components);
  return result;
}

Result<GenerationComparison> compare_generations(const data::LogIndex& older,
                                                 const data::LogIndex& newer) {
  auto older_metric = analyze_perf_error_prop(older);
  if (!older_metric.ok()) return older_metric.error().with_context("older system");
  auto newer_metric = analyze_perf_error_prop(newer);
  if (!newer_metric.ok()) return newer_metric.error().with_context("newer system");

  GenerationComparison cmp;
  cmp.older = older_metric.value();
  cmp.newer = newer_metric.value();
  cmp.compute_ratio = cmp.newer.rpeak_pflops / cmp.older.rpeak_pflops;
  cmp.mtbf_ratio = cmp.newer.mtbf_hours / cmp.older.mtbf_hours;
  cmp.metric_ratio = cmp.newer.pflop_hours_per_failure_free_period /
                     cmp.older.pflop_hours_per_failure_free_period;
  cmp.component_ratio =
      static_cast<double>(cmp.older.components) / static_cast<double>(cmp.newer.components);
  cmp.reliability_outpaced_shrinkage = cmp.mtbf_ratio > cmp.component_ratio;
  return cmp;
}

}  // namespace tsufail::analysis
