#include "analysis/node_survival.h"

#include <vector>

namespace tsufail::analysis {

Result<NodeSurvival> analyze_node_survival(const data::LogIndex& index) {
  if (index.empty())
    return Error(ErrorKind::kDomain, "analyze_node_survival: empty log");

  const double window = index.spec().window_hours();

  // Node groups are ascending by node id and each group's positions are
  // time-sorted, so positions[0]/positions[1] are the first and second
  // failure instants.  A cursor walk pairs groups with the 0..node_count
  // sweep without a per-node lookup.
  const auto groups = index.nodes();
  std::size_t cursor = 0;

  std::vector<stats::SurvivalObservation> first, refail;
  first.reserve(static_cast<std::size_t>(index.spec().node_count));
  for (int node = 0; node < index.spec().node_count; ++node) {
    if (cursor == groups.size() || groups[cursor].node != node) {
      first.push_back({window, /*event=*/false});  // never failed: censored
      continue;
    }
    const auto positions = index.positions_of(groups[cursor]);
    ++cursor;
    const double first_hours = index.hours()[positions[0]];
    first.push_back({first_hours, /*event=*/true});
    if (positions.size() >= 2) {
      refail.push_back({index.hours()[positions[1]] - first_hours, /*event=*/true});
    } else {
      refail.push_back({window - first_hours, /*event=*/false});
    }
  }

  NodeSurvival result;
  auto first_curve = stats::SurvivalCurve::fit(first);
  if (!first_curve.ok()) return first_curve.error().with_context("first-failure curve");
  result.first_failure = std::move(first_curve.value());
  result.fraction_never_failed =
      static_cast<double>(result.first_failure.censored()) /
      static_cast<double>(result.first_failure.observations());
  if (auto median = result.first_failure.quantile(0.5); median.ok())
    result.median_first_failure_hours = median.value();

  auto refail_curve = stats::SurvivalCurve::fit(refail);
  if (!refail_curve.ok()) return refail_curve.error().with_context("refailure curve");
  result.refailure = std::move(refail_curve.value());
  if (auto median = result.refailure.quantile(0.5); median.ok())
    result.median_refailure_hours = median.value();

  if (auto test = stats::log_rank_test(refail, first); test.ok()) {
    result.repeat_offender_test = test.value();
    // Group A is the refailure sample: more events than expected under a
    // shared hazard means failed nodes re-fail faster.
    result.failed_nodes_refail_faster =
        test.value().observed_minus_expected_a > 0.0 && test.value().p_value < 0.05;
  }
  return result;
}

}  // namespace tsufail::analysis
