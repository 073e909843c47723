#include "sim/montecarlo.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/generator.h"
#include "stats/descriptive.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tsufail::sim {
namespace {

/// Metric-name fragment for a category: the Table II display name
/// lowercased with every non-alphanumeric run mapped to '_'
/// ("Power-Board" -> "power_board").
std::string metric_slug(data::Category category) {
  std::string slug;
  for (const char c : data::to_string(category)) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  return slug;
}

/// The seed stream used for aggregate bootstraps, kept disjoint from the
/// replicate stream by a fixed salt.
std::uint64_t aggregate_seed(std::uint64_t base_seed, std::size_t variant,
                             std::size_t metric) noexcept {
  return replicate_seed(replicate_seed(base_seed, 0xA66B005EEDULL + variant),
                        static_cast<std::uint64_t>(metric));
}

/// One variant's metric samples grouped by name, in first-appearance
/// order across its replicates: names[m] is metric m of aggregate_seed.
struct MetricColumns {
  std::vector<std::string> names;
  std::vector<std::vector<double>> values;
};

MetricColumns collect_metrics(std::span<const ReplicateResult> replicates) {
  MetricColumns columns;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& replicate : replicates) {
    for (const auto& metric : replicate.metrics) {
      auto [it, inserted] = index.try_emplace(metric.name, columns.names.size());
      if (inserted) {
        columns.names.push_back(metric.name);
        columns.values.emplace_back();
      }
      columns.values[it->second].push_back(metric.value);
    }
  }
  return columns;
}

/// Mean, sample stddev and the bootstrap CI of the mean of one metric.
Result<MetricAggregate> aggregate_metric(const std::string& name, std::span<const double> sample,
                                         std::uint64_t seed, const SweepOptions& options) {
  MetricAggregate aggregate;
  aggregate.name = name;
  aggregate.n = sample.size();
  aggregate.mean = stats::mean(sample);
  aggregate.stddev = stats::stddev(sample);
  Rng rng(seed);
  auto ci = stats::bootstrap_mean_ci(sample, rng, options.bootstrap_replicates, options.ci_level);
  if (!ci.ok()) return ci.error();
  aggregate.mean_ci = ci.value();
  return aggregate;
}

}  // namespace

std::uint64_t replicate_seed(std::uint64_t base_seed, std::uint64_t replicate_index) noexcept {
  return fork_seed(base_seed, replicate_index);
}

const MetricAggregate* VariantSweep::find(std::string_view name) const noexcept {
  for (const auto& aggregate : aggregates) {
    if (aggregate.name == name) return &aggregate;
  }
  return nullptr;
}

double VariantSweep::mean_of(std::string_view name, double fallback) const noexcept {
  const MetricAggregate* aggregate = find(name);
  return aggregate == nullptr ? fallback : aggregate->mean;
}

const VariantSweep* SweepResult::find(std::string_view label) const noexcept {
  for (const auto& variant : variants) {
    if (variant.label == label) return &variant;
  }
  return nullptr;
}

std::vector<MetricSample> study_metrics(const analysis::StudyReport& report) {
  std::vector<MetricSample> metrics;
  const auto emit = [&metrics](std::string name, double value) {
    metrics.push_back({std::move(name), value});
  };

  emit("failures", static_cast<double>(report.categories.total_failures));
  emit("gpu_share_percent", report.categories.percent_of(data::Category::kGpu));
  emit("cpu_share_percent", report.categories.percent_of(data::Category::kCpu));
  emit("software_share_percent", report.categories.percent_of(data::Category::kSoftware));

  if (report.tbf.has_value()) {
    emit("mtbf_hours", report.tbf->exposure_mtbf_hours);
    emit("mean_gap_hours", report.tbf->mtbf_hours);
    emit("tbf_p75_hours", report.tbf->p75_hours);
  }
  emit("mttr_hours", report.ttr.mttr_hours);
  emit("median_ttr_hours", report.ttr.summary.median);
  emit("p95_ttr_hours", report.ttr.summary.p95);

  emit("percent_single_failure_nodes", report.node_counts.percent_single_failure);
  emit("percent_multi_failure_nodes", report.node_counts.percent_multi_failure);
  emit("max_failures_on_one_node",
       static_cast<double>(report.node_counts.max_failures_on_one_node));

  if (report.gpu_slots.has_value())
    emit("slot_max_relative_excess", report.gpu_slots->max_relative_excess);
  if (report.multi_gpu.has_value())
    emit("multi_gpu_percent", report.multi_gpu->percent_multi);
  if (report.multi_gpu_clustering.has_value()) {
    emit("multi_gpu_gap_cv", report.multi_gpu_clustering->cv);
    emit("multi_gpu_burstiness", report.multi_gpu_clustering->burstiness);
  }
  if (report.seasonal.first_half_median_ttr > 0.0) {
    emit("h2_h1_ttr_ratio",
         report.seasonal.second_half_median_ttr / report.seasonal.first_half_median_ttr);
  }
  emit("pflop_hours_per_failure_free_period",
       report.perf_error_prop.pflop_hours_per_failure_free_period);

  for (const auto& row : report.tbf_by_category)
    emit("mtbf_" + metric_slug(row.category) + "_hours", row.exposure_mtbf_hours);
  for (const auto& row : report.ttr_by_category) {
    const std::string slug = metric_slug(row.category);
    emit("mttr_" + slug + "_hours", row.mttr_hours);
    emit("share_" + slug + "_percent", row.share_percent);
  }
  return metrics;
}

Result<SweepResult> run_sweep(std::span<const SweepVariant> variants,
                              const SweepOptions& options) {
  if (variants.empty())
    return Error(ErrorKind::kDomain, "run_sweep: no variants");
  if (options.replicates == 0)
    return Error(ErrorKind::kDomain, "run_sweep: need at least one replicate");
  if (!(options.ci_level > 0.0 && options.ci_level < 1.0))
    return Error(ErrorKind::kDomain, "run_sweep: ci_level must be in (0,1)");
  if (options.bootstrap_replicates == 0)
    return Error(ErrorKind::kDomain, "run_sweep: need at least one bootstrap replicate");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      if (variants[i].label == variants[j].label)
        return Error(ErrorKind::kValidation,
                     "run_sweep: duplicate variant label '" + variants[i].label + "'");
    }
  }
  for (const auto& variant : variants) {
    if (auto valid = validate_model(variant.model); !valid.ok())
      return valid.error().with_context("run_sweep: variant '" + variant.label + "'");
  }

  OBS_SPAN("sweep.run");

  // One cell per (variant, replicate), flattened variant-major.  Cells
  // run on the worker pool and write only their own slot, so the
  // assembled result is independent of scheduling.
  const std::size_t total = variants.size() * options.replicates;
  std::vector<std::optional<ReplicateResult>> cells(total);

  static obs::Counter cells_counter = obs::counter("sweep.cells");
  static obs::Histogram cell_seconds =
      obs::histogram("sweep.cell_seconds", obs::time_buckets_seconds());
  static obs::Gauge workers_gauge = obs::gauge("sweep.workers");
  workers_gauge.set(static_cast<double>(worker_count(total, options.jobs)));

  // Each worker's state is its recycled record storage, which flows
  // generate_log -> FailureLog -> take_records and back between cells.
  using RecordBuffer = std::vector<data::FailureRecord>;
  const auto run_cell = [&](RecordBuffer& buffer, std::size_t cell) -> Result<void> {
    const std::size_t variant = cell / options.replicates;
    const std::size_t replicate = cell % options.replicates;
    OBS_SPAN("sweep.cell");
    const obs::Stopwatch cell_watch;
    ReplicateResult result;
    result.replicate = replicate;
    result.seed = replicate_seed(options.base_seed, replicate);
    auto log = [&] {
      OBS_SPAN("sweep.generate");
      return generate_log(variants[variant].model, result.seed, std::move(buffer));
    }();
    if (!log.ok()) return log.error();
    result.failures = log.value().size();
    const ReplicateStage& stage =
        variants[variant].stage ? variants[variant].stage : options.stage;
    if (stage) {
      auto samples = [&] {
        OBS_SPAN("sweep.stage");
        return stage(log.value(), result.seed);
      }();
      buffer = data::FailureLog::take_records(std::move(log).value());
      if (!samples.ok()) return samples.error();
      result.metrics = std::move(samples.value());
    } else {
      auto study = [&] {
        OBS_SPAN("sweep.analyze");
        return analysis::run_study(log.value(), {.jobs = 1, .scalars_only = true});
      }();
      buffer = data::FailureLog::take_records(std::move(log).value());
      if (!study.ok()) return study.error();
      result.metrics = study_metrics(study.value());
    }
    cells[cell] = std::move(result);
    cells_counter.add();
    if (obs::enabled()) cell_seconds.observe(cell_watch.seconds());
    return {};
  };
  const auto cell_errors =
      parallel_for(total, options.jobs, [] { return RecordBuffer{}; }, run_cell);

  // First failing cell in deterministic (variant, replicate) order wins.
  for (std::size_t cell = 0; cell < total; ++cell) {
    if (!cell_errors[cell].has_value()) continue;
    return cell_errors[cell]->with_context(
        "run_sweep: variant '" + variants[cell / options.replicates].label + "' replicate " +
        std::to_string(cell % options.replicates));
  }

  SweepResult result;
  result.variants.reserve(variants.size());
  for (std::size_t variant = 0; variant < variants.size(); ++variant) {
    VariantSweep sweep;
    sweep.label = variants[variant].label;
    sweep.replicates.reserve(options.replicates);
    for (std::size_t replicate = 0; replicate < options.replicates; ++replicate) {
      sweep.replicates.push_back(std::move(*cells[variant * options.replicates + replicate]));
    }
    result.variants.push_back(std::move(sweep));
  }

  // The reduce: one task per (variant, aggregated metric), flattened
  // variant-major, on the same pool; each writes only its own slot.
  // Metric m keeps its index among everything the variant produced, so
  // its seed ignores options.metrics.
  OBS_SPAN("sweep.reduce");
  const auto wanted = [&options](const std::string& name) {
    return options.metrics.empty() ||
           std::find(options.metrics.begin(), options.metrics.end(), name) !=
               options.metrics.end();
  };
  struct AggregateTask {
    std::size_t variant;
    std::size_t metric;
  };
  std::vector<MetricColumns> columns;
  std::vector<AggregateTask> tasks;
  for (std::size_t variant = 0; variant < result.variants.size(); ++variant) {
    columns.push_back(collect_metrics(result.variants[variant].replicates));
    for (std::size_t m = 0; m < columns[variant].names.size(); ++m) {
      if (wanted(columns[variant].names[m])) tasks.push_back({variant, m});
    }
  }
  std::vector<MetricAggregate> aggregates(tasks.size());
  const auto aggregate_errors = parallel_for(
      tasks.size(), options.jobs, [] { return 0; }, [&](int, std::size_t t) -> Result<void> {
        OBS_SPAN("sweep.aggregate");
        const auto [variant, m] = tasks[t];
        auto aggregate =
            aggregate_metric(columns[variant].names[m], columns[variant].values[m],
                             aggregate_seed(options.base_seed, variant, m), options);
        if (!aggregate.ok()) return aggregate.error();
        aggregates[t] = std::move(aggregate).value();
        return {};
      });

  // First failing aggregate in deterministic (variant, metric) order wins.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto [variant, m] = tasks[t];
    VariantSweep& sweep = result.variants[variant];
    if (aggregate_errors[t].has_value()) {
      return aggregate_errors[t]
          ->with_context("aggregate '" + columns[variant].names[m] + "'")
          .with_context("run_sweep: variant '" + sweep.label + "'");
    }
    sweep.aggregates.push_back(std::move(aggregates[t]));
  }
  return result;
}

Result<SweepResult> run_sweep(const MachineModel& model, const SweepOptions& options) {
  const SweepVariant variant{model.spec.name, model};
  return run_sweep(std::span<const SweepVariant>(&variant, 1), options);
}

}  // namespace tsufail::sim
