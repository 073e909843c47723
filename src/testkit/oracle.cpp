#include "testkit/oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "analysis/study.h"
#include "data/columnar.h"
#include "data/log_index.h"
#include "testkit/reference.h"

namespace tsufail::testkit {
namespace {

// Tolerance tiers (see header).
constexpr std::int64_t kExactUlps = 4;
constexpr std::int64_t kNearUlps = 512;
constexpr double kNearRel = 1e-9;

/// Maps a double onto a monotone signed-integer scale where adjacent
/// representable values differ by 1 (the standard ULP-distance trick).
std::int64_t ulp_key(double x) noexcept {
  const auto bits = std::bit_cast<std::int64_t>(x);
  return bits >= 0 ? bits : std::numeric_limits<std::int64_t>::min() - bits;
}

}  // namespace

bool nearly_equal(double a, double b, std::int64_t max_ulps, double rel) noexcept {
  if (std::bit_cast<std::int64_t>(a) == std::bit_cast<std::int64_t>(b)) return true;
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (std::isinf(a) || std::isinf(b)) return a == b;
  const std::int64_t ka = ulp_key(a);
  const std::int64_t kb = ulp_key(b);
  const std::int64_t distance = ka > kb ? ka - kb : kb - ka;
  if (distance <= max_ulps) return true;
  if (rel > 0.0 && std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b))) return true;
  return false;
}

namespace {

std::string repr(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

/// Collects mismatch lines; every check method takes a field path that is
/// prefixed with the analysis/code-path tag under comparison.
class Differ {
 public:
  explicit Differ(std::vector<std::string>& sink) : sink_(&sink) {}

  void set_tag(std::string tag) { tag_ = std::move(tag); }

  void fail(const std::string& path, const std::string& detail) {
    sink_->push_back(tag_ + "." + path + ": " + detail);
  }

  void eq(const std::string& path, std::uint64_t ref, std::uint64_t got) {
    if (ref != got)
      fail(path, "reference=" + std::to_string(ref) + " got=" + std::to_string(got));
  }
  void eq(const std::string& path, std::int64_t ref, std::int64_t got) {
    if (ref != got)
      fail(path, "reference=" + std::to_string(ref) + " got=" + std::to_string(got));
  }
  void eq(const std::string& path, bool ref, bool got) {
    if (ref != got)
      fail(path, std::string("reference=") + (ref ? "true" : "false") +
                     " got=" + (got ? "true" : "false"));
  }
  void eq(const std::string& path, const std::string& ref, const std::string& got) {
    if (ref != got) fail(path, "reference='" + ref + "' got='" + got + "'");
  }

  /// Identical-arithmetic doubles: a handful of ULPs at most.
  void deq(const std::string& path, double ref, double got) {
    if (!nearly_equal(ref, got, kExactUlps))
      fail(path, "reference=" + repr(ref) + " got=" + repr(got) + " (exact tier)");
  }
  /// Reassociation-prone doubles: bounded ULP/relative agreement.  Pass a
  /// data-magnitude `scale` for quantities subject to catastrophic
  /// cancellation (a stddev of identical samples is pure rounding noise
  /// on both paths — ~eps*scale absolute, arbitrarily far apart
  /// relatively), so agreement is judged against the inputs' magnitude.
  void dnear(const std::string& path, double ref, double got, double scale = 0.0) {
    if (nearly_equal(ref, got, kNearUlps, kNearRel)) return;
    if (scale > 0.0 && std::abs(ref - got) <= kNearRel * scale) return;
    fail(path, "reference=" + repr(ref) + " got=" + repr(got) + " (near tier)");
  }

  void deq_vec(const std::string& path, const std::vector<double>& ref,
               const std::vector<double>& got) {
    eq(path + ".size", static_cast<std::uint64_t>(ref.size()),
       static_cast<std::uint64_t>(got.size()));
    if (ref.size() != got.size()) return;
    for (std::size_t i = 0; i < ref.size(); ++i)
      deq(path + "[" + std::to_string(i) + "]", ref[i], got[i]);
  }

 private:
  std::vector<std::string>* sink_;
  std::string tag_;
};

// --- per-struct comparisons ----------------------------------------------

void cmp(Differ& d, const std::string& p, const stats::Summary& ref, const stats::Summary& got) {
  d.eq(p + ".count", static_cast<std::uint64_t>(ref.count),
       static_cast<std::uint64_t>(got.count));
  const double scale = std::max(std::abs(ref.min), std::abs(ref.max));
  d.dnear(p + ".mean", ref.mean, got.mean);
  d.dnear(p + ".stddev", ref.stddev, got.stddev, scale);
  d.deq(p + ".min", ref.min, got.min);
  d.deq(p + ".p25", ref.p25, got.p25);
  d.deq(p + ".median", ref.median, got.median);
  d.deq(p + ".p75", ref.p75, got.p75);
  d.deq(p + ".p95", ref.p95, got.p95);
  d.deq(p + ".max", ref.max, got.max);
}

void cmp(Differ& d, const std::string& p, const stats::BoxStats& ref,
         const stats::BoxStats& got) {
  d.eq(p + ".count", static_cast<std::uint64_t>(ref.count),
       static_cast<std::uint64_t>(got.count));
  d.deq(p + ".q1", ref.q1, got.q1);
  d.deq(p + ".median", ref.median, got.median);
  d.deq(p + ".q3", ref.q3, got.q3);
  d.deq(p + ".iqr", ref.iqr, got.iqr);
  d.deq(p + ".whisker_low", ref.whisker_low, got.whisker_low);
  d.deq(p + ".whisker_high", ref.whisker_high, got.whisker_high);
  d.dnear(p + ".mean", ref.mean, got.mean);
  d.eq(p + ".outliers", static_cast<std::uint64_t>(ref.outliers),
       static_cast<std::uint64_t>(got.outliers));
  d.deq(p + ".sample_min", ref.sample_min, got.sample_min);
  d.deq(p + ".sample_max", ref.sample_max, got.sample_max);
}

void cmp(Differ& d, const std::string& p, const std::optional<stats::FamilyChoice>& ref,
         const std::optional<stats::FamilyChoice>& got) {
  d.eq(p + ".has_value", ref.has_value(), got.has_value());
  if (!ref || !got) return;
  d.eq(p + ".family", static_cast<std::int64_t>(ref->family),
       static_cast<std::int64_t>(got->family));
  d.deq(p + ".ks_distance", ref->ks_distance, got->ks_distance);
}

void cmp(Differ& d, const std::string& p, const analysis::CategoryBreakdown& ref,
         const analysis::CategoryBreakdown& got) {
  d.eq(p + ".total_failures", static_cast<std::uint64_t>(ref.total_failures),
       static_cast<std::uint64_t>(got.total_failures));
  d.eq(p + ".categories.size", static_cast<std::uint64_t>(ref.categories.size()),
       static_cast<std::uint64_t>(got.categories.size()));
  if (ref.categories.size() == got.categories.size()) {
    for (std::size_t i = 0; i < ref.categories.size(); ++i) {
      const std::string q = p + ".categories[" + std::to_string(i) + "]";
      d.eq(q + ".category", std::string(data::to_string(ref.categories[i].category)),
           std::string(data::to_string(got.categories[i].category)));
      d.eq(q + ".count", static_cast<std::uint64_t>(ref.categories[i].count),
           static_cast<std::uint64_t>(got.categories[i].count));
      d.deq(q + ".percent", ref.categories[i].percent, got.categories[i].percent);
    }
  }
  d.eq(p + ".classes.size", static_cast<std::uint64_t>(ref.classes.size()),
       static_cast<std::uint64_t>(got.classes.size()));
  if (ref.classes.size() == got.classes.size()) {
    for (std::size_t i = 0; i < ref.classes.size(); ++i) {
      const std::string q = p + ".classes[" + std::to_string(i) + "]";
      d.eq(q + ".cls", static_cast<std::int64_t>(ref.classes[i].cls),
           static_cast<std::int64_t>(got.classes[i].cls));
      d.eq(q + ".count", static_cast<std::uint64_t>(ref.classes[i].count),
           static_cast<std::uint64_t>(got.classes[i].count));
      d.deq(q + ".percent", ref.classes[i].percent, got.classes[i].percent);
    }
  }
}

void cmp(Differ& d, const std::string& p, const analysis::SoftwareLoci& ref,
         const analysis::SoftwareLoci& got) {
  d.eq(p + ".software_failures", static_cast<std::uint64_t>(ref.software_failures),
       static_cast<std::uint64_t>(got.software_failures));
  d.eq(p + ".distinct_loci", static_cast<std::uint64_t>(ref.distinct_loci),
       static_cast<std::uint64_t>(got.distinct_loci));
  d.eq(p + ".top.size", static_cast<std::uint64_t>(ref.top.size()),
       static_cast<std::uint64_t>(got.top.size()));
  if (ref.top.size() == got.top.size()) {
    for (std::size_t i = 0; i < ref.top.size(); ++i) {
      const std::string q = p + ".top[" + std::to_string(i) + "]";
      d.eq(q + ".locus", ref.top[i].locus, got.top[i].locus);
      d.eq(q + ".count", static_cast<std::uint64_t>(ref.top[i].count),
           static_cast<std::uint64_t>(got.top[i].count));
      d.deq(q + ".percent", ref.top[i].percent, got.top[i].percent);
    }
  }
  d.deq(p + ".gpu_driver_percent", ref.gpu_driver_percent, got.gpu_driver_percent);
  d.deq(p + ".unknown_percent", ref.unknown_percent, got.unknown_percent);
}

void cmp(Differ& d, const std::string& p, const analysis::NodeCounts& ref,
         const analysis::NodeCounts& got) {
  d.eq(p + ".failed_nodes", static_cast<std::uint64_t>(ref.failed_nodes),
       static_cast<std::uint64_t>(got.failed_nodes));
  d.eq(p + ".total_nodes", static_cast<std::uint64_t>(ref.total_nodes),
       static_cast<std::uint64_t>(got.total_nodes));
  d.eq(p + ".buckets.size", static_cast<std::uint64_t>(ref.buckets.size()),
       static_cast<std::uint64_t>(got.buckets.size()));
  if (ref.buckets.size() == got.buckets.size()) {
    for (std::size_t i = 0; i < ref.buckets.size(); ++i) {
      const std::string q = p + ".buckets[" + std::to_string(i) + "]";
      d.eq(q + ".failures", static_cast<std::uint64_t>(ref.buckets[i].failures),
           static_cast<std::uint64_t>(got.buckets[i].failures));
      d.eq(q + ".nodes", static_cast<std::uint64_t>(ref.buckets[i].nodes),
           static_cast<std::uint64_t>(got.buckets[i].nodes));
      d.deq(q + ".percent_of_failed", ref.buckets[i].percent_of_failed,
            got.buckets[i].percent_of_failed);
    }
  }
  d.deq(p + ".percent_single_failure", ref.percent_single_failure, got.percent_single_failure);
  d.deq(p + ".percent_multi_failure", ref.percent_multi_failure, got.percent_multi_failure);
  d.eq(p + ".max_failures_on_one_node",
       static_cast<std::uint64_t>(ref.max_failures_on_one_node),
       static_cast<std::uint64_t>(got.max_failures_on_one_node));
  d.eq(p + ".repeat_node_hardware_failures",
       static_cast<std::uint64_t>(ref.repeat_node_hardware_failures),
       static_cast<std::uint64_t>(got.repeat_node_hardware_failures));
  d.eq(p + ".repeat_node_software_failures",
       static_cast<std::uint64_t>(ref.repeat_node_software_failures),
       static_cast<std::uint64_t>(got.repeat_node_software_failures));
}

void cmp(Differ& d, const std::string& p, const analysis::GpuSlotDistribution& ref,
         const analysis::GpuSlotDistribution& got) {
  d.eq(p + ".slots.size", static_cast<std::uint64_t>(ref.slots.size()),
       static_cast<std::uint64_t>(got.slots.size()));
  if (ref.slots.size() == got.slots.size()) {
    for (std::size_t i = 0; i < ref.slots.size(); ++i) {
      const std::string q = p + ".slots[" + std::to_string(i) + "]";
      d.eq(q + ".slot", static_cast<std::int64_t>(ref.slots[i].slot),
           static_cast<std::int64_t>(got.slots[i].slot));
      d.eq(q + ".count", static_cast<std::uint64_t>(ref.slots[i].count),
           static_cast<std::uint64_t>(got.slots[i].count));
      d.deq(q + ".percent", ref.slots[i].percent, got.slots[i].percent);
      d.deq(q + ".per_node_average", ref.slots[i].per_node_average,
            got.slots[i].per_node_average);
    }
  }
  d.eq(p + ".attributed_failures", static_cast<std::uint64_t>(ref.attributed_failures),
       static_cast<std::uint64_t>(got.attributed_failures));
  d.eq(p + ".total_involvements", static_cast<std::uint64_t>(ref.total_involvements),
       static_cast<std::uint64_t>(got.total_involvements));
  d.deq(p + ".max_relative_excess", ref.max_relative_excess, got.max_relative_excess);
  d.deq(p + ".uniformity_p_value", ref.uniformity_p_value, got.uniformity_p_value);
}

void cmp(Differ& d, const std::string& p, const analysis::MultiGpuInvolvement& ref,
         const analysis::MultiGpuInvolvement& got) {
  d.eq(p + ".attributed_failures", static_cast<std::uint64_t>(ref.attributed_failures),
       static_cast<std::uint64_t>(got.attributed_failures));
  d.eq(p + ".buckets.size", static_cast<std::uint64_t>(ref.buckets.size()),
       static_cast<std::uint64_t>(got.buckets.size()));
  if (ref.buckets.size() == got.buckets.size()) {
    for (std::size_t i = 0; i < ref.buckets.size(); ++i) {
      const std::string q = p + ".buckets[" + std::to_string(i) + "]";
      d.eq(q + ".gpus", static_cast<std::int64_t>(ref.buckets[i].gpus),
           static_cast<std::int64_t>(got.buckets[i].gpus));
      d.eq(q + ".count", static_cast<std::uint64_t>(ref.buckets[i].count),
           static_cast<std::uint64_t>(got.buckets[i].count));
      d.deq(q + ".percent", ref.buckets[i].percent, got.buckets[i].percent);
    }
  }
  d.deq(p + ".percent_multi", ref.percent_multi, got.percent_multi);
}

void cmp(Differ& d, const std::string& p, const analysis::TbfResult& ref,
         const analysis::TbfResult& got) {
  d.deq_vec(p + ".tbf_hours", ref.tbf_hours, got.tbf_hours);
  d.dnear(p + ".mtbf_hours", ref.mtbf_hours, got.mtbf_hours);
  d.deq(p + ".exposure_mtbf_hours", ref.exposure_mtbf_hours, got.exposure_mtbf_hours);
  cmp(d, p + ".summary", ref.summary, got.summary);
  d.deq(p + ".p75_hours", ref.p75_hours, got.p75_hours);
  cmp(d, p + ".best_family", ref.best_family, got.best_family);
}

/// Per-category vectors are ranked by a mean-derived key (MTBF/MTTR), and
/// a mean is reassociation-prone — two categories whose keys tie in real
/// arithmetic (identical gap multisets are easy to construct with
/// simultaneous failures) can legitimately sort either way.  So: rows are
/// matched *by category* and compared field-wise, and the fast path's
/// ordering is checked to be non-decreasing in its own key up to the near
/// tolerance — any inversion larger than rounding noise is still a bug.
template <typename Row, typename KeyFn, typename RowFn>
void cmp_ranked(Differ& d, const std::string& p, const std::vector<Row>& ref,
                const std::vector<Row>& got, KeyFn key, RowFn cmp_row) {
  d.eq(p + ".size", static_cast<std::uint64_t>(ref.size()),
       static_cast<std::uint64_t>(got.size()));
  if (ref.size() != got.size()) return;
  for (const Row& ref_row : ref) {
    const Row* match = nullptr;
    for (const Row& got_row : got)
      if (got_row.category == ref_row.category) match = &got_row;
    const std::string q = p + "[" + std::string(data::to_string(ref_row.category)) + "]";
    if (match == nullptr) {
      d.fail(q, "category present in reference but not in fast result");
      continue;
    }
    cmp_row(q, ref_row, *match);
  }
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (key(got[i]) < key(got[i - 1]) &&
        !nearly_equal(key(got[i]), key(got[i - 1]), kNearUlps, kNearRel))
      d.fail(p + ".order",
             "rows " + std::to_string(i - 1) + ".." + std::to_string(i) +
                 " are inverted beyond rounding noise: " + repr(key(got[i - 1])) + " then " +
                 repr(key(got[i])));
  }
}

void cmp(Differ& d, const std::string& p, const std::vector<analysis::CategoryTbf>& ref,
         const std::vector<analysis::CategoryTbf>& got) {
  cmp_ranked(
      d, p, ref, got, [](const analysis::CategoryTbf& row) { return row.mtbf_hours; },
      [&d](const std::string& q, const analysis::CategoryTbf& a,
           const analysis::CategoryTbf& b) {
        d.eq(q + ".failures", static_cast<std::uint64_t>(a.failures),
             static_cast<std::uint64_t>(b.failures));
        cmp(d, q + ".box", a.box, b.box);
        d.dnear(q + ".mtbf_hours", a.mtbf_hours, b.mtbf_hours);
        d.deq(q + ".exposure_mtbf_hours", a.exposure_mtbf_hours, b.exposure_mtbf_hours);
      });
}

void cmp(Differ& d, const std::string& p, const analysis::TemporalClustering& ref,
         const analysis::TemporalClustering& got) {
  d.eq(p + ".events", static_cast<std::uint64_t>(ref.events),
       static_cast<std::uint64_t>(got.events));
  d.deq_vec(p + ".event_hours", ref.event_hours, got.event_hours);
  d.deq_vec(p + ".gaps_hours", ref.gaps_hours, got.gaps_hours);
  cmp(d, p + ".gap_summary", ref.gap_summary, got.gap_summary);
  d.dnear(p + ".cv", ref.cv, got.cv, 1.0);  // dimensionless; 0/0-noise regime
  d.dnear(p + ".burstiness", ref.burstiness, got.burstiness, 1.0);
  d.dnear(p + ".follow_window_hours", ref.follow_window_hours, got.follow_window_hours);
  d.dnear(p + ".follow_probability", ref.follow_probability, got.follow_probability);
  d.dnear(p + ".poisson_follow_probability", ref.poisson_follow_probability,
          got.poisson_follow_probability);
  d.eq(p + ".clustered", ref.clustered, got.clustered);
}

void cmp(Differ& d, const std::string& p, const analysis::TtrResult& ref,
         const analysis::TtrResult& got) {
  d.deq_vec(p + ".ttr_hours", ref.ttr_hours, got.ttr_hours);
  d.dnear(p + ".mttr_hours", ref.mttr_hours, got.mttr_hours);
  cmp(d, p + ".summary", ref.summary, got.summary);
  cmp(d, p + ".best_family", ref.best_family, got.best_family);
}

void cmp(Differ& d, const std::string& p, const std::vector<analysis::CategoryTtr>& ref,
         const std::vector<analysis::CategoryTtr>& got) {
  cmp_ranked(
      d, p, ref, got, [](const analysis::CategoryTtr& row) { return row.mttr_hours; },
      [&d](const std::string& q, const analysis::CategoryTtr& a,
           const analysis::CategoryTtr& b) {
        d.eq(q + ".failures", static_cast<std::uint64_t>(a.failures),
             static_cast<std::uint64_t>(b.failures));
        d.deq(q + ".share_percent", a.share_percent, b.share_percent);
        cmp(d, q + ".box", a.box, b.box);
        d.dnear(q + ".mttr_hours", a.mttr_hours, b.mttr_hours);
      });
}

void cmp(Differ& d, const std::string& p, const std::vector<analysis::CategoryBurstiness>& ref,
         const std::vector<analysis::CategoryBurstiness>& got) {
  // Ranked descending by burstiness (negate the key for the shared
  // ascending-order check); the sort is additionally unstable, so exact
  // ties may land in any order even with bit-identical keys.
  cmp_ranked(
      d, p, ref, got, [](const analysis::CategoryBurstiness& row) { return -row.burstiness; },
      [&d](const std::string& q, const analysis::CategoryBurstiness& a,
           const analysis::CategoryBurstiness& b) {
        d.eq(q + ".failures", static_cast<std::uint64_t>(a.failures),
             static_cast<std::uint64_t>(b.failures));
        d.dnear(q + ".cv", a.cv, b.cv, 1.0);
        d.dnear(q + ".burstiness", a.burstiness, b.burstiness, 1.0);
      });
}

void cmp(Differ& d, const std::string& p, const analysis::SeasonalAnalysis& ref,
         const analysis::SeasonalAnalysis& got) {
  for (std::size_t m = 0; m < 12; ++m) {
    const std::string q = p + ".monthly[" + std::to_string(m) + "]";
    d.eq(q + ".month", static_cast<std::int64_t>(ref.monthly[m].month),
         static_cast<std::int64_t>(got.monthly[m].month));
    d.eq(q + ".failures", static_cast<std::uint64_t>(ref.monthly[m].failures),
         static_cast<std::uint64_t>(got.monthly[m].failures));
    d.eq(q + ".box.has_value", ref.monthly[m].box.has_value(), got.monthly[m].box.has_value());
    if (ref.monthly[m].box && got.monthly[m].box)
      cmp(d, q + ".box", *ref.monthly[m].box, *got.monthly[m].box);
    d.eq(q + ".failure_counts", static_cast<std::uint64_t>(ref.failure_counts[m]),
         static_cast<std::uint64_t>(got.failure_counts[m]));
    d.dnear(q + ".exposure_days", ref.exposure_days[m], got.exposure_days[m]);
    d.dnear(q + ".failures_per_day", ref.failures_per_day[m], got.failures_per_day[m]);
  }
  d.deq(p + ".first_half_median_ttr", ref.first_half_median_ttr, got.first_half_median_ttr);
  d.deq(p + ".second_half_median_ttr", ref.second_half_median_ttr, got.second_half_median_ttr);
  d.eq(p + ".pearson.has_value", ref.pearson_density_ttr.has_value(),
       got.pearson_density_ttr.has_value());
  if (ref.pearson_density_ttr && got.pearson_density_ttr)
    d.dnear(p + ".pearson", *ref.pearson_density_ttr, *got.pearson_density_ttr);
  d.eq(p + ".spearman.has_value", ref.spearman_density_ttr.has_value(),
       got.spearman_density_ttr.has_value());
  if (ref.spearman_density_ttr && got.spearman_density_ttr)
    d.dnear(p + ".spearman", *ref.spearman_density_ttr, *got.spearman_density_ttr);
}

void cmp(Differ& d, const std::string& p, const analysis::PerfErrorProportionality& ref,
         const analysis::PerfErrorProportionality& got) {
  d.deq(p + ".mtbf_hours", ref.mtbf_hours, got.mtbf_hours);
  d.deq(p + ".rpeak_pflops", ref.rpeak_pflops, got.rpeak_pflops);
  d.deq(p + ".pflop_hours_per_failure_free_period", ref.pflop_hours_per_failure_free_period,
        got.pflop_hours_per_failure_free_period);
  d.deq(p + ".pflop_hours_per_component", ref.pflop_hours_per_component,
        got.pflop_hours_per_component);
  d.eq(p + ".components", static_cast<std::int64_t>(ref.components),
       static_cast<std::int64_t>(got.components));
}

template <typename T>
void cmp_optional(Differ& d, const std::string& p, const std::optional<T>& ref,
                  const std::optional<T>& got) {
  d.eq(p + ".has_value", ref.has_value(), got.has_value());
  if (ref && got) cmp(d, p, *ref, *got);
}

void cmp(Differ& d, const std::string& p, const analysis::StudyReport& ref,
         const analysis::StudyReport& got) {
  cmp(d, p + ".categories", ref.categories, got.categories);
  cmp_optional(d, p + ".software_loci", ref.software_loci, got.software_loci);
  cmp(d, p + ".node_counts", ref.node_counts, got.node_counts);
  cmp_optional(d, p + ".gpu_slots", ref.gpu_slots, got.gpu_slots);
  cmp_optional(d, p + ".multi_gpu", ref.multi_gpu, got.multi_gpu);
  cmp_optional(d, p + ".tbf", ref.tbf, got.tbf);
  cmp(d, p + ".tbf_by_category", ref.tbf_by_category, got.tbf_by_category);
  cmp_optional(d, p + ".multi_gpu_clustering", ref.multi_gpu_clustering,
               got.multi_gpu_clustering);
  cmp(d, p + ".ttr", ref.ttr, got.ttr);
  cmp(d, p + ".ttr_by_category", ref.ttr_by_category, got.ttr_by_category);
  cmp(d, p + ".seasonal", ref.seasonal, got.seasonal);
  cmp(d, p + ".perf_error_prop", ref.perf_error_prop, got.perf_error_prop);
  d.eq(p + ".skipped.size", static_cast<std::uint64_t>(ref.skipped.size()),
       static_cast<std::uint64_t>(got.skipped.size()));
  if (ref.skipped.size() == got.skipped.size()) {
    for (std::size_t i = 0; i < ref.skipped.size(); ++i) {
      const std::string q = p + ".skipped[" + std::to_string(i) + "]";
      d.eq(q + ".analysis", ref.skipped[i].analysis, got.skipped[i].analysis);
      d.eq(q + ".error.kind", std::string(to_string(ref.skipped[i].error.kind())),
           std::string(to_string(got.skipped[i].error.kind())));
      d.eq(q + ".error.message", ref.skipped[i].error.message(),
           got.skipped[i].error.message());
    }
  }
}

/// Compares two Results: outcome parity, then error kind+message or value.
template <typename T>
void cmp_result(Differ& d, const Result<T>& ref, const Result<T>& got) {
  if (ref.ok() != got.ok()) {
    d.fail("outcome", std::string("reference ") + (ref.ok() ? "ok" : "error") + " but got " +
                          (got.ok() ? "ok" : "error") + " (" +
                          (ref.ok() ? got.error().to_string() : ref.error().to_string()) + ")");
    return;
  }
  if (!ref.ok()) {
    d.eq("error.kind", std::string(to_string(ref.error().kind())),
         std::string(to_string(got.error().kind())));
    d.eq("error.message", ref.error().message(), got.error().message());
    return;
  }
  cmp(d, "value", ref.value(), got.value());
}

// --- incremental-merge equivalence ---------------------------------------

/// Bitwise double-span comparison: the delta-merge contract is *identity*,
/// not ULP agreement, so even -0.0 vs +0.0 must be flagged.
void cmp_bits(Differ& d, const std::string& p, std::span<const double> ref,
              std::span<const double> got) {
  d.eq(p + ".size", static_cast<std::uint64_t>(ref.size()),
       static_cast<std::uint64_t>(got.size()));
  if (ref.size() != got.size()) return;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(ref[i]) != std::bit_cast<std::uint64_t>(got[i])) {
      d.fail(p + "[" + std::to_string(i) + "]",
             "reference=" + repr(ref[i]) + " got=" + repr(got[i]) + " (bitwise tier)");
      return;  // first divergence only; the rest is usually the same shift
    }
  }
}

void cmp_positions(Differ& d, const std::string& p, std::span<const std::uint32_t> ref,
                   std::span<const std::uint32_t> got) {
  d.eq(p + ".size", static_cast<std::uint64_t>(ref.size()),
       static_cast<std::uint64_t>(got.size()));
  if (ref.size() != got.size()) return;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != got[i]) {
      d.fail(p + "[" + std::to_string(i) + "]",
             "reference=" + std::to_string(ref[i]) + " got=" + std::to_string(got[i]));
      return;
    }
  }
}

/// Demands `got` be bit-identical to `ref`: every record column and
/// every group.  Index equivalence is *identity*, not approximate
/// agreement — every construction path runs through one builder.
void cmp_index(Differ& d, const data::LogIndex& ref, const data::LogIndex& got) {
  cmp_bits(d, "hours", ref.hours(), got.hours());
  cmp_bits(d, "ttr", ref.ttr(), got.ttr());
  if (ref.size() == got.size()) {
    for (std::uint32_t i = 0; i < ref.size(); ++i) {
      const auto ref_slots = ref.gpu_slots_of(i);
      const auto got_slots = got.gpu_slots_of(i);
      if (ref.category_of(i) != got.category_of(i) ||
          !std::equal(ref_slots.begin(), ref_slots.end(), got_slots.begin(), got_slots.end()) ||
          ref.root_locus_of(i) != got.root_locus_of(i)) {
        d.fail("record[" + std::to_string(i) + "]", "category, slot or locus column differs");
        break;  // first divergence only
      }
    }
  }
  for (std::size_t c = 0; c <= static_cast<std::size_t>(data::Category::kUnknown); ++c) {
    const auto category = static_cast<data::Category>(c);
    cmp_positions(d, "by_category[" + std::string(data::to_string(category)) + "]",
                  ref.by_category(category), got.by_category(category));
  }
  for (std::size_t c = 0; c <= static_cast<std::size_t>(data::FailureClass::kUnknown); ++c) {
    const auto cls = static_cast<data::FailureClass>(c);
    cmp_positions(d, "by_class[" + std::string(data::to_string(cls)) + "]", ref.by_class(cls),
                  got.by_class(cls));
  }
  for (int month = 1; month <= 12; ++month) {
    cmp_positions(d, "by_month[" + std::to_string(month) + "]", ref.by_month(month),
                  got.by_month(month));
  }
  cmp_positions(d, "gpu_attributed", ref.gpu_attributed(), got.gpu_attributed());
  cmp_positions(d, "multi_gpu", ref.multi_gpu(), got.multi_gpu());

  const auto ref_nodes = ref.nodes();
  const auto got_nodes = got.nodes();
  d.eq("nodes.size", static_cast<std::uint64_t>(ref_nodes.size()),
       static_cast<std::uint64_t>(got_nodes.size()));
  if (ref_nodes.size() != got_nodes.size()) return;
  for (std::size_t i = 0; i < ref_nodes.size(); ++i) {
    const std::string p = "nodes[" + std::to_string(i) + "]";
    d.eq(p + ".node", static_cast<std::int64_t>(ref_nodes[i].node),
         static_cast<std::int64_t>(got_nodes[i].node));
    cmp_positions(d, p + ".positions", ref.positions_of(ref_nodes[i]),
                  got.positions_of(got_nodes[i]));
  }
}

/// Re-derives the full index via the delta-merge path (index a prefix
/// log, then LogIndex::extend by the rest as a suffix log — the shape a
/// sealed serve epoch produces) and demands bit-identity with the
/// from-scratch index, at several split points.  Both paths share one
/// builder, so any divergence here is a builder regression, not a
/// tolerance question.
void check_index_merge(Differ& d, const data::FailureLog& log, const data::LogIndex& full) {
  const auto records = log.records();
  const std::size_t n = records.size();
  std::size_t previous = n + 1;  // dedup splits on tiny logs
  for (const std::size_t split : {std::size_t{0}, n / 2, n == 0 ? 0 : n - 1, n}) {
    if (split == previous) continue;
    previous = split;
    d.set_tag("index_merge[split=" + std::to_string(split) + "]");
    auto base = data::FailureLog::create(
        log.spec(), {records.begin(), records.begin() + static_cast<std::ptrdiff_t>(split)});
    if (!base.ok()) {
      d.fail("base", base.error().to_string());
      continue;
    }
    auto suffix = data::FailureLog::create(
        log.spec(), {records.begin() + static_cast<std::ptrdiff_t>(split), records.end()});
    if (!suffix.ok()) {
      d.fail("suffix", suffix.error().to_string());
      continue;
    }
    cmp_index(d, full, data::LogIndex::extend(data::LogIndex(base.value()), suffix.value()));
  }
}

/// Packs the log into the columnar snapshot format, loads it back from
/// the bytes, and demands the materialized records and the index adopted
/// zero-copy from the loaded columns be bit-identical to the in-memory
/// originals, and run_study over the adopted index match the reference
/// study at every thread count — the pack -> mmap-load -> analyze path
/// must be indistinguishable from parse -> analyze.
void check_snapshot_roundtrip(Differ& d, const data::FailureLog& log,
                              const data::LogIndex& index,
                              const Result<analysis::StudyReport>& study_reference,
                              const std::vector<std::size_t>& thread_counts) {
  d.set_tag("snapshot_roundtrip");
  auto loaded = data::ColumnarSnapshot::from_bytes(data::pack_columnar(log));
  if (!loaded.ok()) {
    d.fail("load", loaded.error().to_string());
    return;
  }
  const auto& snap = *loaded.value();
  d.eq("size", static_cast<std::uint64_t>(log.size()), static_cast<std::uint64_t>(snap.size()));
  if (log.size() != snap.size()) return;

  const auto records = log.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const data::FailureRecord got = snap.record_at(static_cast<std::uint32_t>(i));
    const auto& ref = records[i];
    const std::string p = "record[" + std::to_string(i) + "]";
    if (ref.time.seconds_since_epoch() != got.time.seconds_since_epoch() ||
        ref.node != got.node || ref.category != got.category ||
        std::bit_cast<std::uint64_t>(ref.ttr_hours) != std::bit_cast<std::uint64_t>(got.ttr_hours) ||
        ref.gpu_slots != got.gpu_slots || ref.root_locus != got.root_locus) {
      d.fail(p, "materialized record differs from the original");
      return;  // first divergence only
    }
  }

  const data::LogIndex adopted(loaded.value());
  cmp_index(d, index, adopted);
  for (std::size_t jobs : thread_counts) {
    d.set_tag("snapshot_roundtrip.run_study[jobs=" + std::to_string(jobs) + "]");
    cmp_result(d, study_reference, analysis::run_study(adopted, analysis::StudyOptions{jobs}));
  }
}

}  // namespace

std::string OracleReport::str(std::size_t max_lines) const {
  if (mismatches.empty()) return "oracle: all analyses agree";
  std::ostringstream out;
  out << "oracle: " << mismatches.size() << " mismatch(es)\n";
  for (std::size_t i = 0; i < mismatches.size() && i < max_lines; ++i)
    out << "  " << mismatches[i] << "\n";
  if (mismatches.size() > max_lines)
    out << "  ... +" << (mismatches.size() - max_lines) << " more\n";
  return out.str();
}

OracleReport run_oracle(const data::FailureLog& log, const OracleOptions& options) {
  OracleReport report;
  Differ d(report.mismatches);
  const data::LogIndex index(log);
  const auto study_reference = ref_run_study(log);

  // The serve delta-merge path must reproduce this index bit-for-bit.
  check_index_merge(d, log, index);

  // The columnar pack -> load path must reproduce the records and the
  // index bit-for-bit, and the study over the adopted index.
  check_snapshot_roundtrip(d, log, index, study_reference, options.thread_counts);

  // One analysis, two ways: the reference vs the LogIndex entry point.
  const auto check = [&](const std::string& name, auto ref_result, auto index_result) {
    d.set_tag(name);
    cmp_result(d, ref_result, index_result);
  };

  check("categories", ref_categories(log), analysis::analyze_categories(index));
  check("software_loci", ref_software_loci(log), analysis::analyze_software_loci(index));
  check("node_counts", ref_node_counts(log), analysis::analyze_node_counts(index));
  check("gpu_slots", ref_gpu_slots(log), analysis::analyze_gpu_slots(index));
  check("multi_gpu", ref_multi_gpu(log), analysis::analyze_multi_gpu(index));
  check("tbf", ref_tbf(log), analysis::analyze_tbf(index));
  check("tbf_by_category", ref_tbf_by_category(log), analysis::analyze_tbf_by_category(index));
  check("multi_gpu_clustering", ref_multi_gpu_clustering(log),
        analysis::analyze_multi_gpu_clustering(index));
  check("ttr", ref_ttr(log), analysis::analyze_ttr(index));
  check("ttr_by_category", ref_ttr_by_category(log), analysis::analyze_ttr_by_category(index));
  check("seasonal", ref_seasonal(log), analysis::analyze_seasonal(index));
  check("perf_error_prop", ref_perf_error_prop(log), analysis::analyze_perf_error_prop(index));

  // Restricted-stream variants on representative streams.
  for (data::Category category : {data::Category::kGpu, data::Category::kCpu}) {
    const std::string tag(data::to_string(category));
    check("tbf_category[" + tag + "]", ref_tbf_category(log, category),
          analysis::analyze_tbf_category(index, category));
    check("ttr_category[" + tag + "]", ref_ttr_category(log, category),
          analysis::analyze_ttr_category(index, category));
  }
  for (data::FailureClass cls : {data::FailureClass::kHardware, data::FailureClass::kSoftware}) {
    const std::string tag(data::to_string(cls));
    check("tbf_class[" + tag + "]", ref_tbf_class(log, cls),
          analysis::analyze_tbf_class(index, cls));
    check("ttr_class[" + tag + "]", ref_ttr_class(log, cls),
          analysis::analyze_ttr_class(index, cls));
  }
  check("category_burstiness", ref_category_burstiness(log),
        analysis::analyze_category_burstiness(index));

  // The assembled study, serial reference vs the log entry point at
  // every configured thread count.
  for (std::size_t jobs : options.thread_counts) {
    d.set_tag("run_study[jobs=" + std::to_string(jobs) + "]");
    cmp_result(d, study_reference, analysis::run_study(log, analysis::StudyOptions{jobs}));
  }
  return report;
}

std::optional<std::string> oracle_property(const data::FailureLog& log) {
  const OracleReport report = run_oracle(log);
  if (report.ok()) return std::nullopt;
  return report.str();
}

}  // namespace tsufail::testkit
