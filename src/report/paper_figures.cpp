#include "report/paper_figures.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "analysis/node_survival.h"
#include "analysis/rack_distribution.h"
#include "ops/checkpoint.h"
#include "ops/checkpoint_sim.h"
#include "ops/job_impact.h"
#include "predict/evaluate.h"
#include "report/chart.h"
#include "report/table.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "stats/ecdf.h"
#include "stats/hypothesis.h"

namespace tsufail::report {
namespace {

using analysis::StudyReport;
using data::Category;
using data::Machine;

const char* name_of(const MachineInput& m) { return data::to_string(m.machine()).data(); }

/// Appends one printf-formatted line to `out`.
[[gnu::format(printf, 2, 3)]] void line(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  out += buffer;
  out += '\n';
}

/// The mean of `metric` over a machine's seed studies, summed in seed order.
template <typename Metric>
double seed_average(const MachineInput& m, Metric metric) {
  const double seeds = static_cast<double>(m.seed_studies.size());
  double sum = 0.0;
  for (const StudyReport& study : m.seed_studies) sum += metric(study) / seeds;
  return sum;
}

/// A 60-point ECDF curve of `sample`, labelled with the machine's name.
void append_cdf(const MachineInput& m, const std::vector<double>& sample, Rows& out) {
  for (const auto& [x, y] : stats::Ecdf::create(sample).value().curve(60))
    out.push_back({name_of(m), fmt(x, 3), fmt(y, 4)});
}

bool category_rows(const MachineInput& m, Rows& out) {
  for (const auto& share : m.study.categories.categories) {
    if (share.count == 0) continue;
    out.push_back({std::string(data::to_string(share.category)), std::to_string(share.count),
                   fmt(share.percent)});
  }
  return true;
}

void category_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  const auto& breakdown = m.study.categories;
  const auto& targets = sim::paper_targets(m.machine());
  cmp.add("GPU share", targets.gpu_share, breakdown.percent_of(Category::kGpu), 0.05, "%");
  cmp.add("CPU share", targets.cpu_share, breakdown.percent_of(Category::kCpu), 0.15, "%");
  if (targets.software_share > 0.0) {
    cmp.add("Software share", targets.software_share, breakdown.percent_of(Category::kSoftware),
            0.05, "%");
  }
}

bool loci_rows(const MachineInput& m, Rows& out) {
  if (!m.study.software_loci) return false;
  for (const auto& share : m.study.software_loci->top)
    out.push_back({share.locus, std::to_string(share.count), fmt(share.percent)});
  return true;
}

void loci_check(const MachineInput&, const MachineInput& m, PaperCheck& out) {
  const auto& loci = m.study.software_loci.value();
  const auto& targets = sim::paper_targets(m.machine());
  line(out.notes, "software-class failures: %zu, distinct loci: %zu", loci.software_failures,
       loci.distinct_loci);
  // Locus shares on ~180 software records carry ~3 points of sampling
  // noise per realization, so the shares are compared seed-averaged.
  const auto average = [&](double analysis::SoftwareLoci::*share) {
    return seed_average(m, [&](const StudyReport& s) { return s.software_loci.value().*share; });
  };
  auto& cmp = out.comparisons.emplace_back("Figure 3 - software root loci");
  cmp.add("GPU-driver-related share (8-seed avg)", targets.gpu_driver_locus_percent,
          average(&analysis::SoftwareLoci::gpu_driver_percent), 0.15, "%");
  cmp.add("unknown-cause share (8-seed avg)", targets.unknown_locus_percent,
          average(&analysis::SoftwareLoci::unknown_percent), 0.15, "%");
  cmp.add("software failures considered", 171.0, static_cast<double>(loci.software_failures),
          0.1, "count");
}

bool node_count_rows(const MachineInput& m, Rows& out) {
  for (const auto& bucket : m.study.node_counts.buckets) {
    out.push_back({std::to_string(bucket.failures), std::to_string(bucket.nodes),
                   fmt(bucket.percent_of_failed)});
  }
  return true;
}

void node_count_check(const MachineInput& m, std::string& notes, ComparisonSet& cmp) {
  const auto& counts = m.study.node_counts;
  line(notes, "%s: repeat-node failures: %zu hardware, %zu software (paper: %s)", name_of(m),
       counts.repeat_node_hardware_failures, counts.repeat_node_software_failures,
       m.machine() == Machine::kTsubame2 ? "352 HW / 1 SW" : "104 HW / 95 SW");
  cmp.add("single-failure node share", sim::paper_targets(m.machine()).single_failure_node_percent,
          counts.percent_single_failure, 0.2, "%");
  cmp.add("two-failure node share", 10.0, counts.percent_with(2), 0.6, "%");
}

bool slot_rows(const MachineInput& m, Rows& out) {
  if (!m.study.gpu_slots) return false;
  for (const auto& slot : m.study.gpu_slots->slots) {
    out.push_back({std::to_string(slot.slot), std::to_string(slot.count), fmt(slot.percent),
                   fmt(slot.per_node_average, 4)});
  }
  return true;
}

void slot_check(const MachineInput& m, std::string& notes, ComparisonSet& cmp) {
  const auto& slots = m.study.gpu_slots.value();
  line(notes, "%s: uniformity chi-square p-value %.4g", name_of(m), slots.uniformity_p_value);
  const auto count = [&](std::size_t i) { return static_cast<double>(slots.slots[i].count); };
  if (m.machine() == Machine::kTsubame2) {
    const double others = (count(0) + count(2)) / 2.0;
    cmp.add("GPU1 excess over GPU0/GPU2", 20.0, 100.0 * (count(1) / others - 1.0), 0.4, "%");
  } else {
    // "Considerably more": the calibrated weights (1.7 vs 0.8) imply ~2x.
    cmp.add("outer/inner slot failure ratio", 2.0,
            ((count(0) + count(3)) / 2.0) / ((count(1) + count(2)) / 2.0), 0.4, "x");
  }
}

double paper_involvement(Machine machine, int gpus) {
  const auto& percent = sim::paper_targets(machine).involvement_percent;
  const auto i = static_cast<std::size_t>(gpus - 1);
  return i < percent.size() ? percent[i] : 0.0;
}

bool involvement_rows(const MachineInput& m, Rows& out) {
  if (!m.study.multi_gpu) return false;
  for (const auto& bucket : m.study.multi_gpu->buckets) {
    out.push_back({std::to_string(bucket.gpus), std::to_string(bucket.count),
                   fmt(bucket.percent), fmt(paper_involvement(m.machine(), bucket.gpus))});
  }
  return true;
}

void involvement_check(const MachineInput& m, std::string& notes, ComparisonSet& cmp) {
  const auto& mg = m.study.multi_gpu.value();
  line(notes, "%s: multi-GPU failure share %.1f%% (paper: %s)", name_of(m), mg.percent_multi,
       m.machine() == Machine::kTsubame2 ? "~70%" : "< 8%");
  for (const auto& bucket : mg.buckets) {
    cmp.add(std::to_string(bucket.gpus) + " GPU(s) share",
            paper_involvement(m.machine(), bucket.gpus), bucket.percent, 0.1, "%");
  }
  cmp.add("attributed GPU failures",
          static_cast<double>(sim::paper_targets(m.machine()).involvement_total),
          static_cast<double>(mg.attributed_failures), 0.05, "count");
}

bool tbf_rows(const MachineInput& m, Rows& out) {
  if (!m.study.tbf) return false;
  append_cdf(m, m.study.tbf->tbf_hours, out);
  return true;
}

void tbf_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  const auto& tbf2 = t2.study.tbf.value();
  const auto& tbf3 = t3.study.tbf.value();
  const auto& targets2 = sim::paper_targets(t2.machine());
  const auto& targets3 = sim::paper_targets(t3.machine());
  auto& cmp = out.comparisons.emplace_back("Figure 6 - TBF");
  cmp.add("T2 MTBF", targets2.mtbf_hours, tbf2.exposure_mtbf_hours, 0.1, "h");
  cmp.add("T2 p75 TBF", targets2.tbf_p75_hours, tbf2.p75_hours, 0.2, "h");
  cmp.add("T3 MTBF", targets3.mtbf_hours, tbf3.exposure_mtbf_hours, 0.1, "h");
  cmp.add("T3 p75 TBF", targets3.tbf_p75_hours, tbf3.p75_hours, 0.25, "h");
  cmp.add("MTBF improvement ratio", 4.7, tbf3.exposure_mtbf_hours / tbf2.exposure_mtbf_hours,
          0.15, "x");
}

/// Exposure MTBF of one category; NaN when it has fewer than 2 failures.
double category_mtbf(const MachineInput& m, Category category) {
  const auto tbf = analysis::analyze_tbf_category(m.index, category);
  return tbf.ok() ? tbf.value().exposure_mtbf_hours : std::nan("");
}

bool component_mtbf_rows(const MachineInput& t2, const MachineInput& t3, Rows& out) {
  const double t2_gpu = category_mtbf(t2, Category::kGpu);
  const double t3_gpu = category_mtbf(t3, Category::kGpu);
  const double t2_cpu = category_mtbf(t2, Category::kCpu);
  const double t3_cpu = category_mtbf(t3, Category::kCpu);
  if (std::isnan(t2_gpu + t3_gpu + t2_cpu + t3_cpu)) return false;
  out = {{"GPU", "21.94", "226.48", fmt(t2_gpu, 1), fmt(t3_gpu, 1)},
         {"CPU", "537.6", "1593.6", fmt(t2_cpu, 1), fmt(t3_cpu, 1)}};
  return true;
}

void component_mtbf_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  const double gpu_ratio = category_mtbf(t3, Category::kGpu) / category_mtbf(t2, Category::kGpu);
  const double cpu_ratio = category_mtbf(t3, Category::kCpu) / category_mtbf(t2, Category::kCpu);
  line(out.notes, "GPU count ratio T2/T3: %.2fx; CPU count ratio: %.2fx",
       static_cast<double>(t2.index.spec().total_gpus()) / t3.index.spec().total_gpus(),
       static_cast<double>(t2.index.spec().total_cpus()) / t3.index.spec().total_cpus());
  // Shape targets: the cross-generation improvement factors.
  auto& cmp = out.comparisons.emplace_back("RQ4 - component MTBF shape");
  cmp.add("GPU MTBF improvement", 10.3, gpu_ratio, 0.4, "x");
  cmp.add("CPU MTBF improvement", 2.96, cpu_ratio, 0.4, "x");
  cmp.add("GPU improvement exceeds GPU-count shrinkage (ratio/shrinkage)", 5.3,
          gpu_ratio / (4224.0 / 2160.0), 0.5, "x");
}

bool perf_error_rows(const MachineInput& t2, const MachineInput& t3, Rows& out) {
  const auto generations = analysis::compare_generations(t2.index, t3.index);
  if (!generations.ok()) return false;
  const auto& g = generations.value();
  out = {{"rpeak_pflops", fmt(g.older.rpeak_pflops, 2), fmt(g.newer.rpeak_pflops, 2),
          fmt(g.compute_ratio, 3)},
         {"mtbf_hours", fmt(g.older.mtbf_hours, 2), fmt(g.newer.mtbf_hours, 2),
          fmt(g.mtbf_ratio, 3)},
         {"pflop_hours_per_period", fmt(g.older.pflop_hours_per_failure_free_period, 2),
          fmt(g.newer.pflop_hours_per_failure_free_period, 2), fmt(g.metric_ratio, 3)}};
  return true;
}

void perf_error_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  const auto g = analysis::compare_generations(t2.index, t3.index).value();
  line(out.notes, "reliability outpaced component shrinkage: %s",
       g.reliability_outpaced_shrinkage ? "YES" : "NO");
  auto& cmp = out.comparisons.emplace_back("RQ4 - performance-error-proportionality");
  cmp.add("compute ratio (Rpeak)", 12.1 / 2.3, g.compute_ratio, 0.01, "x");
  cmp.add("MTBF ratio", 4.7, g.mtbf_ratio, 0.15, "x");
  cmp.add("component shrinkage", 7040.0 / 3240.0, g.component_ratio, 0.01, "x");
  cmp.add("combined FLOP-per-MTBF ratio", 24.7, g.metric_ratio, 0.2, "x");
}

bool tbf_by_type_rows(const MachineInput& m, Rows& out) {
  if (m.study.tbf_by_category.empty()) return false;
  for (const auto& row : m.study.tbf_by_category) {
    out.push_back({std::string(data::to_string(row.category)), std::to_string(row.failures),
                   fmt(row.box.q1, 2), fmt(row.box.median, 2), fmt(row.box.q3, 2),
                   fmt(row.mtbf_hours, 2), fmt(row.exposure_mtbf_hours, 2)});
  }
  return true;
}

void tbf_by_type_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  const auto& rows = m.study.tbf_by_category;
  const auto median_of = [&](Category category) {
    for (const auto& row : rows) {
      if (row.category == category) return row.box.median;
    }
    return -1.0;
  };
  // Shape: the most frequent (GPU / Software) category leads the sort and
  // Memory/CPU medians sit far above it.
  const double gpu_median = median_of(Category::kGpu);
  const double cpu_median = median_of(Category::kCpu);
  const double memory_median = median_of(Category::kMemory);
  const Category front = rows.front().category;
  cmp.add("front-of-sort is the dominant category", 1.0,
          front == Category::kGpu || front == Category::kSoftware ? 1.0 : 0.0, 0.01, "bool");
  if (cpu_median > 0.0)
    cmp.add("CPU median / GPU median (>> 1)", 25.0, cpu_median / gpu_median, 0.9, "x");
  if (memory_median > 0.0)
    cmp.add("Memory median / GPU median (>> 1)", 18.0, memory_median / gpu_median, 0.9, "x");
}

bool clustering_rows(const MachineInput& m, Rows& out) {
  if (!m.study.multi_gpu_clustering) return false;
  const auto& c = *m.study.multi_gpu_clustering;
  for (std::size_t i = 0; i < c.event_hours.size(); ++i) {
    out.push_back({std::to_string(i), fmt(c.event_hours[i], 2),
                   i == 0 ? "" : fmt(c.gaps_hours[i - 1], 2)});
  }
  return true;
}

void clustering_check(const MachineInput& m, std::string& notes, ComparisonSet& cmp) {
  const auto& c = m.study.multi_gpu_clustering.value();
  line(notes, "%s: follow-up within %.0f h: %.2f vs Poisson baseline %.2f", name_of(m),
       c.follow_window_hours, c.follow_probability, c.poisson_follow_probability);
  // The paper's claim is qualitative; the quantitative shape targets are
  // over-dispersion (CV > 1) and follow-up above the Poisson baseline.
  cmp.add("clustered verdict", 1.0, c.clustered ? 1.0 : 0.0, 0.01, "bool");
  cmp.add("gap CV (Poisson = 1)", 1.9, c.cv, 0.5, "");
}

bool ttr_rows(const MachineInput& m, Rows& out) {
  append_cdf(m, m.study.ttr.ttr_hours, out);
  return true;
}

void ttr_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  // MTTR on one 338-record realization of heavy-tailed repairs is noisy,
  // so the paper's ~55 h is checked seed-averaged as well as here.
  const auto mttr = [](const StudyReport& s) { return s.ttr.mttr_hours; };
  const double mttr2 = mttr(t2.study);
  const double mttr3 = mttr(t3.study);
  auto& cmp = out.comparisons.emplace_back("Figure 9 - TTR");
  cmp.add("T2 MTTR (8-seed average)", 55.0, seed_average(t2, mttr), 0.12, "h");
  cmp.add("T3 MTTR (8-seed average)", 55.0, seed_average(t3, mttr), 0.12, "h");
  cmp.add("T2 MTTR (this realization)", 55.0, mttr2, 0.25, "h");
  cmp.add("T3 MTTR (this realization)", 55.0, mttr3, 0.25, "h");
  cmp.add("MTTR generation ratio (~1)", 1.0, mttr3 / mttr2, 0.3, "x");
  cmp.add("KS distance between shapes (small)", 0.0,
          stats::ks_two_sample(t2.study.ttr.ttr_hours, t3.study.ttr.ttr_hours).value().statistic,
          0.15, "");
}

bool ttr_by_type_rows(const MachineInput& m, Rows& out) {
  if (m.study.ttr_by_category.empty()) return false;
  for (const auto& row : m.study.ttr_by_category) {
    out.push_back({std::string(data::to_string(row.category)), std::to_string(row.failures),
                   fmt(row.share_percent, 2), fmt(row.box.q1, 2), fmt(row.box.median, 2),
                   fmt(row.box.q3, 2), fmt(row.mttr_hours, 2), fmt(row.box.sample_max, 2)});
  }
  return true;
}

void ttr_by_type_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  const auto iqr = [&](data::FailureClass cls) {
    const auto ttr = analysis::analyze_ttr_class(m.index, cls).value();
    return ttr.summary.p75 - ttr.summary.p25;
  };
  cmp.add("hardware IQR / software IQR (> 1)", 2.0,
          iqr(data::FailureClass::kHardware) / iqr(data::FailureClass::kSoftware), 0.6, "x");
  // Each machine's infrequent-but-costly category.
  const bool t2 = m.machine() == Machine::kTsubame2;
  double worst = 0.0, share = 0.0;
  for (const auto& row : m.study.ttr_by_category) {
    if (row.category != (t2 ? Category::kSsd : Category::kPowerBoard)) continue;
    worst = row.box.sample_max;
    share = row.share_percent;
  }
  cmp.add(t2 ? "SSD share" : "power-board share", t2 ? 4.0 : 1.0, share, t2 ? 0.15 : 0.25, "%");
  cmp.add(t2 ? "SSD worst repair" : "power-board worst repair", t2 ? 290.0 : 230.0, worst,
          t2 ? 0.35 : 0.45, "h");
}

bool monthly_ttr_rows(const MachineInput& m, Rows& out) {
  for (const auto& month : m.study.seasonal.monthly) {
    const std::string name(month_abbrev(month.month));
    if (!month.box) {
      out.push_back({name, "0", "", "", "", ""});
      continue;
    }
    out.push_back({name, std::to_string(month.failures), fmt(month.box->q1, 2),
                   fmt(month.box->median, 2), fmt(month.box->q3, 2), fmt(month.box->mean, 2)});
  }
  return true;
}

void monthly_ttr_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  const auto& seasonal = m.study.seasonal;
  // Tsubame-2's calibrated second-half slowdown: 1.25/0.85 ~ 1.47x on the
  // medians; Tsubame-3 has no trend.
  const bool t2 = m.machine() == Machine::kTsubame2;
  cmp.add(t2 ? "H2/H1 median TTR (seasonal slowdown)" : "H2/H1 median TTR (no trend)",
          t2 ? 1.47 : 1.0, seasonal.second_half_median_ttr / seasonal.first_half_median_ttr,
          0.3, "x");
}

bool monthly_count_rows(const MachineInput& m, Rows& out) {
  for (const auto& month : m.study.seasonal.monthly) {
    out.push_back({std::string(month_abbrev(month.month)), std::to_string(month.failures),
                   month.box ? fmt(month.box->median, 2) : ""});
  }
  return true;
}

void monthly_count_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  // One 12-month realization puts sampling noise of ~0.3 on rho, so the
  // comparison uses the seed-averaged correlation.
  cmp.add("density-TTR Spearman rho, 8-seed average (~0)", 0.0,
          seed_average(m, [](const StudyReport& s) {
            return s.seasonal.spearman_density_ttr.value_or(0.0);
          }),
          0.3, "");
}

bool rack_rows(const MachineInput& m, Rows& out) {
  const auto racks = analysis::analyze_racks(m.index);
  if (!racks.ok()) return false;
  for (const auto& rack : racks.value().racks) {
    out.push_back({std::to_string(rack.rack), std::to_string(rack.failures), fmt(rack.percent),
                   fmt(rack.per_node_rate, 4)});
  }
  return true;
}

void rack_check(const MachineInput& m, std::string&, ComparisonSet& cmp) {
  const auto racks = analysis::analyze_racks(m.index).value();
  cmp.add("non-uniform across racks (p < 0.05)", 1.0,
          racks.uniformity_p_value < 0.05 ? 1.0 : 0.0, 0.01, "bool");
  cmp.add("concentration (Gini)", 0.4, racks.gini, 0.65, "");
}

bool survival_rows(const MachineInput& m, Rows& out) {
  const auto survival = analysis::analyze_node_survival(m.index);
  if (!survival.ok()) return false;
  for (const auto& point : survival.value().first_failure.points())
    out.push_back({"first_failure", fmt(point.time, 2), fmt(point.survival, 5)});
  for (const auto& point : survival.value().refailure.points())
    out.push_back({"refailure", fmt(point.time, 2), fmt(point.survival, 5)});
  return true;
}

void survival_check(const MachineInput& m, std::string& notes, ComparisonSet& cmp) {
  const auto survival = analysis::analyze_node_survival(m.index).value();
  line(notes, "%s: %.1f%% of nodes never failed; repeat-offender log-rank p = %.3g",
       name_of(m), 100.0 * survival.fraction_never_failed,
       survival.repeat_offender_test ? survival.repeat_offender_test->p_value : NAN);
  cmp.add("failed nodes re-fail faster (log-rank significant)", 1.0,
          survival.failed_nodes_refail_faster ? 1.0 : 0.0, 0.01, "bool");
}

// Each fleetsim knob carries one paper observation; switching it off
// should move its own signal and leave the others alone:
//
//   knob                  carries
//   --------------------  -----------------------------------------
//   node heterogeneity    Fig 4 repeat-failure node mass
//   slot weights          Fig 5 non-uniform slot distribution
//   burst arrivals        Fig 8 multi-GPU temporal clustering
//   seasonal modulation   Fig 11 Tsubame-2 H2 repair slowdown
//
// Every variant replays the same replicate seeds (common random numbers),
// so the off/full ratios compare like with like.
sim::SweepResult run_knob_ablation() {
  const auto without = [](std::string label, bool sim::SimKnobs::*knob) {
    sim::SweepVariant v{std::move(label), sim::tsubame2_model(), {}};
    if (knob != nullptr) v.model.knobs.*knob = false;
    return v;
  };
  const std::vector<sim::SweepVariant> variants = {
      without("full model", nullptr),
      without("no node heterogeneity", &sim::SimKnobs::enable_node_heterogeneity),
      without("no slot weights", &sim::SimKnobs::enable_slot_weights),
      without("no burst arrivals", &sim::SimKnobs::enable_bursts),
      without("no seasonal modulation", &sim::SimKnobs::enable_seasonal),
  };
  sim::SweepOptions options;
  options.base_seed = kBenchSeed;
  options.replicates = 5;
  options.jobs = 0;
  return sim::run_sweep(variants, options).value();
}

bool ablation_rows(const MachineInput& t2, const MachineInput&, Rows& out) {
  if (t2.ablations == nullptr) return false;
  for (const auto& v : t2.ablations->knob_sweep.variants) {
    out.push_back({v.label, fmt(v.mean_of("percent_multi_failure_nodes"), 1),
                   fmt(v.mean_of("slot_max_relative_excess"), 3),
                   fmt(v.mean_of("multi_gpu_gap_cv"), 2), fmt(v.mean_of("h2_h1_ttr_ratio"), 2)});
  }
  return true;
}

void ablation_check(const MachineInput& t2, const MachineInput&, PaperCheck& out) {
  const auto& variants = t2.ablations->knob_sweep.variants;
  const auto ratio = [&](std::size_t ablated, const char* metric) {
    return variants[ablated].mean_of(metric) / variants[0].mean_of(metric, 1.0);
  };
  auto& cmp = out.comparisons.emplace_back("ablation deltas (each knob owns its signal)");
  cmp.add("heterogeneity knob cuts multi-failure mass (off/full < 0.85)", 0.55,
          ratio(1, "percent_multi_failure_nodes"), 0.55, "x");
  cmp.add("slot-weight knob owns slot imbalance (off/full)", 0.3,
          ratio(2, "slot_max_relative_excess"), 0.9, "x");
  cmp.add("burst knob owns gap over-dispersion (off/full)", 0.6, ratio(3, "multi_gpu_gap_cv"),
          0.4, "x");
  cmp.add("seasonal knob owns the H2 slowdown (off ~ 1.0)", 1.0,
          variants[4].mean_of("h2_h1_ttr_ratio"), 0.2, "x");
}

// The paper's RQ5 close: "leveraging failure prediction to initiate
// recovery proactively where possible."  The backtest replays each
// predictor over a log and scores the watchlist it would have kept.
constexpr double kPredictionWarmup = 0.3;

/// The watchlist size of each machine's backtest, indexed by data::Machine.
constexpr std::array<std::size_t, 2> kWatchlist = {50, 20};

/// The built-in predictors on `m`'s log, by descending hit rate.
Result<std::vector<predict::EvaluationReport>> backtest(const MachineInput& m) {
  return predict::compare_predictors(m.log, kPredictionWarmup,
                                     kWatchlist[static_cast<std::size_t>(m.machine())]);
}

/// The count predictor on a log without node heterogeneity: without
/// spatial clustering the history signal should mostly vanish.
predict::EvaluationReport uniform_control(const Ablations& ablations) {
  auto counter = predict::make_count_predictor();
  return predict::evaluate_predictor(ablations.uniform_t3, *counter, kPredictionWarmup,
                                     kWatchlist[static_cast<std::size_t>(Machine::kTsubame3)])
      .value();
}

void append_prediction(std::string machine, const predict::EvaluationReport& report, Rows& out) {
  out.push_back({std::move(machine), report.predictor, std::to_string(report.top_k),
                 fmt(100.0 * report.hit_rate_at_k, 1), fmt(report.lift_at_k, 1),
                 fmt(report.mean_reciprocal_rank, 4)});
}

bool prediction_rows(const MachineInput& t2, const MachineInput& t3, Rows& out) {
  if (t2.ablations == nullptr) return false;
  const auto reports2 = backtest(t2);
  const auto reports3 = backtest(t3);
  if (!reports2.ok() || !reports3.ok()) return false;
  for (const auto& report : reports2.value()) append_prediction(name_of(t2), report, out);
  for (const auto& report : reports3.value()) append_prediction(name_of(t3), report, out);
  append_prediction("Tsubame-3 (heterogeneity off)", uniform_control(*t2.ablations), out);
  return true;
}

void prediction_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  const auto best_hit = [](const MachineInput& m) {
    return backtest(m).value().front().hit_rate_at_k;
  };
  auto& cmp = out.comparisons.emplace_back("prediction headlines");
  cmp.add("T2 best watchlist(50/1408) hit rate", 0.55, best_hit(t2), 0.35, "frac");
  cmp.add("T3 best watchlist(20/540) hit rate", 0.60, best_hit(t3), 0.35, "frac");
  cmp.add("control lift collapses toward 1 (< 5x)", 1.0,
          uniform_control(*t2.ablations).lift_at_k < 5.0 ? 1.0 : 0.0, 0.01, "bool");
}

/// Young/Daly checkpointing at a machine's MTBF: the analytic waste
/// against a discrete-event simulation of a 5000 h job.
struct CheckpointPlan {
  double mtbf_hours = 0.0;
  double interval_hours = 0.0;
  double analytic_waste = 0.0;
  double simulated_waste = 0.0;
};

constexpr double kCheckpointCostHours = 0.25;

std::optional<CheckpointPlan> checkpoint_plan(const MachineInput& m) {
  if (!m.study.tbf) return std::nullopt;
  const double mtbf = m.study.tbf->exposure_mtbf_hours;
  const auto tau = ops::daly_interval_hours(kCheckpointCostHours, mtbf);
  if (!tau.ok()) return std::nullopt;
  const auto analytic = ops::waste_fraction(kCheckpointCostHours, tau.value(), mtbf);
  const auto simulated = ops::simulate_checkpointed_job_exponential(
      {.work_hours = 5000.0, .interval_hours = tau.value(),
       .checkpoint_cost_hours = kCheckpointCostHours},
      mtbf, kBenchSeed, 48);
  if (!analytic.ok() || !simulated.ok()) return std::nullopt;
  return CheckpointPlan{mtbf, tau.value(), analytic.value(), simulated.value().waste_fraction};
}

void append_checkpoint(const MachineInput& m, const CheckpointPlan& plan, Rows& out) {
  out.push_back({name_of(m), fmt(plan.mtbf_hours, 1), fmt(plan.interval_hours, 2),
                 fmt(100.0 * plan.analytic_waste, 2), fmt(100.0 * plan.simulated_waste, 2)});
}

bool checkpoint_rows(const MachineInput& t2, const MachineInput& t3, Rows& out) {
  const auto plan2 = checkpoint_plan(t2);
  const auto plan3 = checkpoint_plan(t3);
  if (!plan2 || !plan3) return false;
  append_checkpoint(t2, *plan2, out);
  append_checkpoint(t3, *plan3, out);
  return true;
}

void checkpoint_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  auto& cmp = out.comparisons.emplace_back("analytic model vs simulation");
  for (const MachineInput* m : {&t2, &t3}) {
    const auto plan = checkpoint_plan(*m).value();
    cmp.add(std::string(name_of(*m)) + " simulated waste", plan.analytic_waste,
            plan.simulated_waste, 0.25, "frac");
  }
}

/// One job mix replayed on every machine's failures, so goodput connects
/// MTBF to useful work done.
Result<ops::JobImpactResult> job_impact(const MachineInput& m) {
  const ops::JobMixSpec mix{.jobs = 5000, .max_nodes = 32, .mean_duration_hours = 24.0};
  return ops::replay_job_impact(m.log, mix, kBenchSeed);
}

void append_job_impact(const MachineInput& m, const ops::JobImpactResult& impact, Rows& out) {
  out.push_back({name_of(m), fmt(100.0 * impact.interrupted_fraction, 1),
                 fmt(100.0 * impact.goodput_no_ckpt, 2), fmt(100.0 * impact.goodput_ckpt, 2)});
}

bool job_impact_rows(const MachineInput& t2, const MachineInput& t3, Rows& out) {
  const auto impact2 = job_impact(t2);
  const auto impact3 = job_impact(t3);
  if (!impact2.ok() || !impact3.ok()) return false;
  append_job_impact(t2, impact2.value(), out);
  append_job_impact(t3, impact3.value(), out);
  return true;
}

void job_impact_check(const MachineInput& t2, const MachineInput& t3, PaperCheck& out) {
  const double goodput2 = job_impact(t2).value().goodput_no_ckpt;
  const double goodput3 = job_impact(t3).value().goodput_no_ckpt;
  auto& cmp = out.comparisons.emplace_back("job-impact headlines");
  cmp.add("T3 goodput exceeds T2 goodput", 1.0, goodput3 > goodput2 ? 1.0 : 0.0, 0.01, "bool");
}

const sim::MachineModel& model_of(Machine machine) {
  return machine == Machine::kTsubame2 ? sim::tsubame2_model() : sim::tsubame3_model();
}

sim::MachineModel uniform_tsubame3() {
  auto model = sim::tsubame3_model();
  model.knobs.enable_node_heterogeneity = false;
  return model;
}

}  // namespace

Reproduction::Calibrated::Calibrated(Machine machine)
    : log(sim::generate_log(model_of(machine), kBenchSeed).value()),
      index(log),
      study(analysis::run_study(index).value()) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto seeded = sim::generate_log(model_of(machine), seed).value();
    seed_studies.push_back(analysis::run_study(seeded).value());
  }
}

Reproduction::Reproduction()
    : t2_(Machine::kTsubame2),
      t3_(Machine::kTsubame3),
      ablations_{run_knob_ablation(), sim::generate_log(uniform_tsubame3(), kBenchSeed).value()},
      inputs_{{{t2_.log, t2_.index, t2_.study, t2_.seed_studies, &ablations_},
               {t3_.log, t3_.index, t3_.study, t3_.seed_studies, &ablations_}}} {}

std::span<const PaperFigure> paper_figures() {
  static const std::vector<PaperFigure> kTable = {
      {.title = "Figure 2: failure category breakdown (RQ1)",
       .stems = {"fig02a_categories_t2", "fig02b_categories_t3"},
       .columns = {"category", "count", "percent"},
       .view = View::kBar, .bar_column = 2, .rows = category_rows, .check = category_check},
      {.title = "Figure 3: Tsubame-3 software failure root loci",
       .stems = {"", "fig03_software_loci"}, .columns = {"locus", "count", "percent"},
       .view = View::kBar, .bar_column = 2, .rows = loci_rows, .pair_check = loci_check},
      {.title = "Figure 4: failures per node (RQ2)",
       .stems = {"fig04a_node_counts_t2", "fig04b_node_counts_t3"},
       .columns = {"failures_per_node", "nodes", "percent_of_failed"},
       .view = View::kBar, .bar_column = 2, .rows = node_count_rows, .check = node_count_check},
      {.title = "Figure 5: per-slot GPU failure distribution (RQ2)",
       .stems = {"fig05a_gpu_slots_t2", "fig05b_gpu_slots_t3"},
       .columns = {"slot", "count", "percent", "per_node_average"},
       .view = View::kBar, .bar_column = 2, .rows = slot_rows, .check = slot_check},
      {.title = "Table III: GPUs involved per node failure (RQ3)",
       .stems = {"tab03_multi_gpu_t2", "tab03_multi_gpu_t3"},
       .columns = {"gpus", "count", "percent", "paper_percent"}, .view = View::kTable,
       .rows = involvement_rows, .check = involvement_check},
      {.title = "Figure 6: CDF of time between failures (RQ4)",
       .stems = {"fig06_tbf_cdf", "fig06_tbf_cdf"}, .columns = {"machine", "tbf_hours", "cdf"},
       .view = View::kCdf, .rows = tbf_rows, .pair_check = tbf_check},
      {.title = "RQ4: GPU and CPU MTBF across generations",
       .stems = {"rq4_component_mtbf", "rq4_component_mtbf"},
       .columns = {"component", "paper_t2", "paper_t3", "measured_t2", "measured_t3"},
       .view = View::kTable, .pair_rows = component_mtbf_rows,
       .pair_check = component_mtbf_check},
      {.title = "RQ4: performance-error-proportionality metric",
       .stems = {"rq4_perf_error_prop", "rq4_perf_error_prop"},
       .columns = {"metric", "tsubame2", "tsubame3", "ratio"}, .view = View::kTable,
       .pair_rows = perf_error_rows, .pair_check = perf_error_check},
      {.title = "Figure 7: TBF distribution per failure type (RQ4)",
       .stems = {"fig07a_tbf_by_type_t2", "fig07b_tbf_by_type_t3"},
       .columns = {"category", "n", "q1", "median", "q3", "mean_tbf", "exposure_mtbf"},
       .view = View::kTable, .rows = tbf_by_type_rows, .check = tbf_by_type_check},
      {.title = "Figure 8: temporal clustering of multi-GPU failures",
       .stems = {"fig08a_multi_gpu_timeline_t2", "fig08b_multi_gpu_timeline_t3"},
       .columns = {"event_index", "hours_since_start", "gap_hours"}, .rows = clustering_rows,
       .check = clustering_check},
      {.title = "Figure 9: CDF of time to recovery (RQ5)",
       .stems = {"fig09_ttr_cdf", "fig09_ttr_cdf"}, .columns = {"machine", "ttr_hours", "cdf"},
       .view = View::kCdf, .rows = ttr_rows, .pair_check = ttr_check},
      {.title = "Figure 10: TTR distribution per failure type (RQ5)",
       .stems = {"fig10a_ttr_by_type_t2", "fig10b_ttr_by_type_t3"},
       .columns = {"category", "n", "share_percent", "q1", "median", "q3", "mean", "max"},
       .view = View::kTable, .rows = ttr_by_type_rows, .check = ttr_by_type_check},
      {.title = "Figure 11: monthly time-to-recovery distribution (RQ5)",
       .stems = {"fig11a_monthly_ttr_t2", "fig11b_monthly_ttr_t3"},
       .columns = {"month", "n", "q1", "median", "q3", "mean"}, .view = View::kTable,
       .rows = monthly_ttr_rows, .check = monthly_ttr_check},
      {.title = "Figure 12: failures by month of occurrence (RQ5)",
       .stems = {"fig12a_monthly_counts_t2", "fig12b_monthly_counts_t3"},
       .columns = {"month", "failures", "median_ttr"}, .view = View::kBar, .bar_column = 1,
       .rows = monthly_count_rows, .check = monthly_count_check},
      {.title = "rack distribution: non-uniform failures across racks (extension)",
       .stems = {"ext_racks_t2", "ext_racks_t3"},
       .columns = {"rack", "failures", "percent", "per_node_rate"},
       .rows = rack_rows, .check = rack_check},
      {.title = "node survival: Kaplan-Meier curves and repeat-offender test (extension)",
       .stems = {"ext_survival_t2", "ext_survival_t3"},
       .columns = {"curve", "time_hours", "survival"}, .rows = survival_rows,
       .check = survival_check},
      {.title = "ablation: the Tsubame-2 model with each fleetsim knob off (extension)",
       .stems = {"ext_ablation", "ext_ablation"},
       .columns = {"variant", "multi_failure_node_percent", "slot_imbalance",
                   "multi_gpu_gap_cv", "h2_h1_ttr_ratio"},
       .view = View::kTable, .pair_rows = ablation_rows, .pair_check = ablation_check},
      {.title = "prediction: node-failure watchlist backtest (RQ5 implication)",
       .stems = {"ext_prediction", "ext_prediction"},
       .columns = {"machine", "predictor", "watchlist", "hit_rate_percent", "lift", "mrr"},
       .view = View::kTable, .pair_rows = prediction_rows, .pair_check = prediction_check},
      {.title = "checkpointing: Young/Daly analytic waste vs simulation (RQ5 implication)",
       .stems = {"ext_checkpoint", "ext_checkpoint"},
       .columns = {"machine", "mtbf_hours", "daly_interval_hours", "analytic_waste_percent",
                   "simulated_waste_percent"},
       .view = View::kTable, .pair_rows = checkpoint_rows, .pair_check = checkpoint_check},
      {.title = "job impact: one job mix replayed on both fleets (RQ5 implication)",
       .stems = {"ext_job_impact", "ext_job_impact"},
       .columns = {"machine", "interrupted_percent", "goodput_no_ckpt_percent",
                   "goodput_ckpt_4h_percent"},
       .view = View::kTable, .pair_rows = job_impact_rows, .pair_check = job_impact_check},
  };
  return kTable;
}

std::vector<FigureData> extract_figures(const PaperFigure& entry, Machines machines) {
  std::vector<FigureData> figures;
  if (entry.pair_rows) {
    FigureData figure{std::string(entry.stems[0]), entry.columns, {}};
    if (machines.size() == 2 && entry.pair_rows(machines[0], machines[1], figure.rows))
      figures.push_back(std::move(figure));
    return figures;
  }
  for (const auto& m : machines) {
    const std::string_view stem = entry.stems[static_cast<std::size_t>(m.machine())];
    if (stem.empty()) continue;
    // Machines sharing a stem stack their rows into one figure.
    const bool fresh = figures.empty() || figures.back().name != stem;
    if (fresh) figures.push_back({std::string(stem), entry.columns, {}});
    if (!entry.rows(m, figures.back().rows) && fresh) figures.pop_back();
  }
  return figures;
}

PaperCheck check_figure(const PaperFigure& entry, const Reproduction& repro) {
  PaperCheck out;
  const std::string_view label = entry.title.substr(0, entry.title.find(':'));
  for (const auto& m : repro.machines()) {
    if (!entry.check || entry.stems[static_cast<std::size_t>(m.machine())].empty()) continue;
    entry.check(m, out.notes,
                out.comparisons.emplace_back(std::string(label) + " - " + name_of(m)));
  }
  if (entry.pair_check) entry.pair_check(repro.machines()[0], repro.machines()[1], out);
  return out;
}

std::string render_view(const PaperFigure& entry, const FigureData& figure) {
  const auto number = [](const std::string& cell) { return std::strtod(cell.c_str(), nullptr); };
  switch (entry.view) {
    case View::kNone:
      return {};
    case View::kBar: {
      std::vector<Bar> bars;
      bool whole = true;
      for (const auto& row : figure.rows) {
        bars.push_back({row[0], number(row[entry.bar_column])});
        whole = whole && bars.back().value == std::floor(bars.back().value);
      }
      return render_bar_chart(bars, 48, whole ? 0 : 2);
    }
    case View::kCdf: {
      std::vector<Series> series;
      for (const auto& row : figure.rows) {
        if (series.empty() || series.back().name != row[0]) series.push_back({row[0], {}});
        series.back().points.emplace_back(number(row[1]), number(row[2]));
      }
      return render_cdf_chart(series, 72, 20, figure.columns[1], figure.columns[2]);
    }
    case View::kTable: {
      Table table(figure.columns);
      std::vector<Align> alignment(figure.columns.size(), Align::kRight);
      alignment[0] = Align::kLeft;
      table.set_alignment(std::move(alignment));
      for (const auto& row : figure.rows) table.add_row(row);
      return table.render();
    }
  }
  return {};
}

}  // namespace tsufail::report
