// Extension bench: node survival analysis (censoring-aware RQ2).
// Kaplan-Meier time-to-first-failure and refailure curves for both
// machines, plus the log-rank "repeat offender" test — the statistical
// form of the paper's lemon-node observation.
#include <cstdio>

#include "analysis/node_survival.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto survival = analysis::analyze_node_survival(index).value();

  std::printf("--- %s ---\n", data::to_string(machine).data());
  std::printf("nodes: %zu; never failed inside the window: %.1f%%\n",
              survival.first_failure.observations(), 100.0 * survival.fraction_never_failed);
  if (survival.median_first_failure_hours.has_value()) {
    std::printf("median time to first failure: %.0f h\n", *survival.median_first_failure_hours);
  } else {
    std::printf("median time to first failure: not reached (heavy censoring)\n");
  }
  if (survival.median_refailure_hours.has_value()) {
    std::printf("median time from first to second failure: %.0f h\n",
                *survival.median_refailure_hours);
  }
  const double horizon = index.spec().window_hours();
  std::printf("restricted mean first-failure survival over the window: %.0f h of %.0f h\n",
              survival.first_failure.restricted_mean(horizon), horizon);
  if (survival.repeat_offender_test.has_value()) {
    std::printf("repeat-offender log-rank: chi2 = %.1f, p = %.3g -> %s\n",
                survival.repeat_offender_test->statistic, survival.repeat_offender_test->p_value,
                survival.failed_nodes_refail_faster
                    ? "failed nodes re-fail significantly faster"
                    : "no significant effect");
  }
  std::printf("\n");

  report::ComparisonSet cmp(std::string("node survival - ") +
                            std::string(data::to_string(machine)));
  cmp.add("failed nodes re-fail faster (log-rank significant)", 1.0,
          survival.failed_nodes_refail_faster ? 1.0 : 0.0, 0.01, "bool");
  bench::print_comparisons(cmp);

  report::FigureData figure{figure_name, {"curve", "time_hours", "survival"}, {}};
  for (const auto& point : survival.first_failure.points()) {
    figure.rows.push_back({"first_failure", report::fmt(point.time, 2),
                           report::fmt(point.survival, 5)});
  }
  for (const auto& point : survival.refailure.points()) {
    figure.rows.push_back({"refailure", report::fmt(point.time, 2),
                           report::fmt(point.survival, 5)});
  }
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_ext_survival",
                      "extension: Kaplan-Meier node survival & repeat-offender test");
  run(data::Machine::kTsubame2, "ext_survival_t2");
  run(data::Machine::kTsubame3, "ext_survival_t3");
  return bench::exit_code();
}
