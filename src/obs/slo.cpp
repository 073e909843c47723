#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/strings.h"

namespace tsufail::obs {
namespace {

constexpr std::uint64_t kFastWindowNs = 300ull * 1'000'000'000ull;   ///< 5 minutes
constexpr std::uint64_t kSlowWindowNs = 3600ull * 1'000'000'000ull;  ///< 1 hour
/// SRE-book paging thresholds for a 30d SLO period: 14.4x burn over 5m /
/// 6x over 1h both consume >= 2% / 5% of the monthly budget.
constexpr double kFastBurnThreshold = 14.4;
constexpr double kSlowBurnThreshold = 6.0;

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

/// "p99" / "p99.9" from a quantile in [0, 1].
std::string quantile_label(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "p%g", q * 100.0);
  return buffer;
}

}  // namespace

std::string_view slo_state_name(SloState state) noexcept {
  switch (state) {
    case SloState::kOk: return "OK";
    case SloState::kNoData: return "NO_DATA";
    case SloState::kDegraded: return "DEGRADED";
    case SloState::kBurning: return "BURNING";
  }
  return "OK";
}

void SloEngine::add_objective(SloObjective objective) {
  std::lock_guard lock(mutex_);
  auto it = std::lower_bound(tracked_.begin(), tracked_.end(), objective.name,
                             [](const Tracked& t, std::string_view name) {
                               return t.objective.name < name;
                             });
  if (it != tracked_.end() && it->objective.name == objective.name) {
    *it = Tracked{std::move(objective), {}, {}};
    return;
  }
  tracked_.insert(it, Tracked{std::move(objective), {}, {}});
}

std::size_t SloEngine::objective_count() const {
  std::lock_guard lock(mutex_);
  return tracked_.size();
}

void SloEngine::tick(const MetricsSnapshot& snapshot, std::uint64_t now_ns) {
  std::lock_guard lock(mutex_);
  for (Tracked& tracked : tracked_) {
    const SloObjective& objective = tracked.objective;
    Entry entry;
    entry.t_ns = now_ns;
    switch (objective.kind) {
      case SloKind::kLatencyQuantile: {
        const HistogramValue* h = snapshot.find_histogram(objective.metric);
        if (h != nullptr) {
          if (tracked.bounds.empty()) tracked.bounds = h->bounds;
          // Observations are "good" when they land in a bucket whose
          // upper bound is <= threshold; a threshold between bounds
          // conservatively counts the straddling bucket as bad, so set
          // thresholds on bucket boundaries.
          const auto within = static_cast<std::size_t>(
              std::upper_bound(h->bounds.begin(), h->bounds.end(), objective.threshold) -
              h->bounds.begin());
          const std::uint64_t good = within == 0 ? 0 : h->cumulative(within - 1);
          entry.total = static_cast<double>(h->count);
          entry.bad = static_cast<double>(h->count - std::min(h->count, good));
          entry.buckets = h->counts;
        }
        break;
      }
      case SloKind::kErrorRatio: {
        const CounterValue* bad = snapshot.find_counter(objective.metric);
        const CounterValue* total = snapshot.find_counter(objective.denominator);
        if (bad != nullptr) entry.bad = static_cast<double>(bad->value);
        if (total != nullptr) entry.total = static_cast<double>(total->value);
        break;
      }
      case SloKind::kThroughputMin: {
        const CounterValue* total = snapshot.find_counter(objective.metric);
        if (total != nullptr) entry.total = static_cast<double>(total->value);
        break;
      }
      case SloKind::kStalenessMax: {
        const GaugeValue* gauge = snapshot.find_gauge(objective.metric);
        entry.current = gauge == nullptr ? 0.0 : gauge->value;
        // Cumulative bad-tick / total-tick counts, accumulated by the
        // engine itself (gauges have no cumulative form to diff).
        const Entry* previous = tracked.ring.empty() ? nullptr : &tracked.ring.back();
        entry.bad = (previous == nullptr ? 0.0 : previous->bad) +
                    (entry.current > objective.threshold ? 1.0 : 0.0);
        entry.total = (previous == nullptr ? 0.0 : previous->total) + 1.0;
        break;
      }
    }
    tracked.ring.push_back(std::move(entry));
    const std::uint64_t horizon =
        kSlowWindowNs + kFastWindowNs;  // keep one baseline past the window
    while (tracked.ring.size() > 2 &&
           tracked.ring[1].t_ns + horizon < now_ns)
      tracked.ring.pop_front();
  }
  advance_exemplar_window();
}

SloStatus SloEngine::evaluate_one(const Tracked& tracked, std::uint64_t now_ns) const {
  const SloObjective& objective = tracked.objective;
  SloStatus status;
  status.objective = objective.name;
  status.kind = objective.kind;
  status.threshold = objective.threshold;
  status.budget = objective.budget;
  if (tracked.ring.size() < 2) {
    status.state = SloState::kNoData;
    status.reason = "insufficient data (need two ticks)";
    return status;
  }

  const Entry& latest = tracked.ring.back();
  // Baseline for a window: the newest entry at least one window old,
  // falling back to the oldest entry while history is still short.
  const auto baseline_for = [&](std::uint64_t window_ns) -> const Entry& {
    const std::uint64_t cutoff = now_ns > window_ns ? now_ns - window_ns : 0;
    const Entry* baseline = &tracked.ring.front();
    for (const Entry& entry : tracked.ring) {
      if (entry.t_ns > cutoff) break;
      baseline = &entry;
    }
    return *baseline;
  };
  // Bad fraction over a window, with counter-reset handling: a cumulative
  // value that went backwards means the process restarted, so the latest
  // cumulative IS the delta since restart.
  const auto window_fraction = [&](const Entry& baseline, double* rate_out) {
    double bad = latest.bad - baseline.bad;
    double total = latest.total - baseline.total;
    if (bad < 0.0 || total < 0.0) {
      bad = latest.bad;
      total = latest.total;
    }
    if (rate_out != nullptr) {
      const double seconds =
          static_cast<double>(latest.t_ns - baseline.t_ns) * 1e-9;
      *rate_out = seconds > 0.0 ? total / seconds : 0.0;
    }
    if (objective.kind == SloKind::kThroughputMin) {
      if (objective.threshold <= 0.0 || rate_out == nullptr) return 0.0;
      return std::max(0.0, 1.0 - *rate_out / objective.threshold);
    }
    return total > 0.0 ? bad / total : 0.0;
  };

  const Entry& fast_base = baseline_for(kFastWindowNs);
  const Entry& slow_base = baseline_for(kSlowWindowNs);
  double fast_rate = 0.0;
  double slow_rate = 0.0;
  const double fast_fraction = window_fraction(fast_base, &fast_rate);
  const double slow_fraction = window_fraction(slow_base, &slow_rate);
  const double budget = std::max(objective.budget, 1e-12);
  status.fast_burn = fast_fraction / budget;
  status.slow_burn = slow_fraction / budget;

  const bool fast_hot = status.fast_burn >= kFastBurnThreshold;
  const bool slow_hot = status.slow_burn >= kSlowBurnThreshold;
  status.state = fast_hot && slow_hot ? SloState::kBurning
                 : fast_hot || slow_hot ? SloState::kDegraded
                                        : SloState::kOk;

  std::string headline;
  switch (objective.kind) {
    case SloKind::kLatencyQuantile: {
      // The displayed quantile is computed over the fast window's bucket
      // deltas (burn itself only needs the threshold split).  A baseline
      // from before the histogram existed has no buckets; everything in
      // the latest entry is then the delta.
      if (!latest.buckets.empty() &&
          (fast_base.buckets.empty() || latest.buckets.size() == fast_base.buckets.size())) {
        HistogramValue window;
        window.bounds = tracked.bounds;
        window.counts.resize(latest.buckets.size());
        for (std::size_t b = 0; b < latest.buckets.size(); ++b) {
          const std::uint64_t from = b < fast_base.buckets.size() ? fast_base.buckets[b] : 0;
          const std::uint64_t to = latest.buckets[b];
          window.counts[b] = to >= from ? to - from : to;
          window.count += window.counts[b];
        }
        status.value = histogram_quantile(window, objective.quantile);
      }
      headline = quantile_label(objective.quantile) + " " + format_double(status.value) +
                 "s vs " + format_double(objective.threshold) + "s target";
      break;
    }
    case SloKind::kErrorRatio:
      status.value = fast_fraction;
      headline = "ratio " + format_double(status.value) + " vs budget " +
                 format_double(objective.budget);
      break;
    case SloKind::kThroughputMin:
      status.value = fast_rate;
      headline = "rate " + format_double(status.value) + "/s vs floor " +
                 format_double(objective.threshold) + "/s";
      break;
    case SloKind::kStalenessMax:
      status.value = latest.current;
      headline = "staleness " + format_double(status.value) + " vs ceiling " +
                 format_double(objective.threshold);
      break;
  }
  char burn[64];
  std::snprintf(burn, sizeof burn, "; burn %.1fx/fast %.1fx/slow", status.fast_burn,
                status.slow_burn);
  status.reason = headline + burn;
  return status;
}

std::vector<SloStatus> SloEngine::evaluate(std::uint64_t now_ns) const {
  std::lock_guard lock(mutex_);
  std::vector<SloStatus> statuses;
  statuses.reserve(tracked_.size());
  for (const Tracked& tracked : tracked_) statuses.push_back(evaluate_one(tracked, now_ns));
  return statuses;
}

SloState aggregate_slo_state(std::span<const SloStatus> statuses) noexcept {
  SloState worst = SloState::kOk;
  for (const SloStatus& status : statuses) {
    if (status.state == SloState::kNoData) continue;  // idle != unhealthy
    if (static_cast<int>(status.state) > static_cast<int>(worst)) worst = status.state;
  }
  return worst;
}

std::string render_slo_text(std::span<const SloStatus> statuses) {
  std::string out = "# tsufail slo v1\n";
  for (const SloStatus& status : statuses) {
    out += status.objective;
    out += '\t';
    out += slo_state_name(status.state);
    out += '\t';
    out += format_double(status.fast_burn);
    out += '\t';
    out += format_double(status.slow_burn);
    out += '\t';
    out += format_double(status.value);
    out += '\t';
    out += format_double(status.threshold);
    out += '\t';
    out += status.reason;
    out += '\n';
  }
  return out;
}

Result<std::vector<SloStatus>> parse_slo_text(std::string_view text) {
  std::vector<SloStatus> statuses;
  std::size_t line_number = 0;
  std::size_t position = 0;
  while (position < text.size()) {
    std::size_t end = text.find('\n', position);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(position, end - position);
    position = end + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string_view> fields = split(line, '\t');
    const auto fail = [&](const std::string& why) {
      return Error(ErrorKind::kParse, "slo line " + std::to_string(line_number) + ": " + why);
    };
    if (fields.size() != 7) return fail("expected 7 tab-separated fields");
    SloStatus status;
    status.objective = std::string(fields[0]);
    bool known = false;
    for (SloState state : {SloState::kOk, SloState::kNoData, SloState::kDegraded,
                           SloState::kBurning}) {
      if (fields[1] == slo_state_name(state)) {
        status.state = state;
        known = true;
      }
    }
    if (!known) return fail("unknown state '" + std::string(fields[1]) + "'");
    struct { std::string_view text; double* out; } numbers[] = {
        {fields[2], &status.fast_burn},
        {fields[3], &status.slow_burn},
        {fields[4], &status.value},
        {fields[5], &status.threshold},
    };
    for (auto& [field, out] : numbers) {
      auto parsed = parse_double(std::string(field));
      if (!parsed.ok()) return fail("unparseable number '" + std::string(field) + "'");
      *out = parsed.value();
    }
    status.reason = std::string(fields[6]);
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace tsufail::obs
