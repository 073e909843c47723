// Figure 4: distribution of failures per node (RQ2).
// Paper headlines: ~60% of Tsubame-2's failed nodes saw exactly one
// failure, while ~60% of Tsubame-3's saw more than one; ~10% saw two on
// both; repeat-failure nodes host 352 HW + 1 SW failures on T2 and
// 104 HW + 95 SW on T3.
#include <cstdio>

#include "analysis/node_counts.h"
#include "bench_common.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto counts = analysis::analyze_node_counts(index).value();
  const auto& targets = sim::paper_targets(machine);

  std::printf("--- %s: %zu failed nodes of %zu ---\n", data::to_string(machine).data(),
              counts.failed_nodes, counts.total_nodes);
  std::vector<report::Bar> bars;
  report::FigureData figure{figure_name, {"failures_per_node", "nodes", "percent_of_failed"}, {}};
  for (const auto& bucket : counts.buckets) {
    if (bucket.failures > 8) continue;  // figure tail aggregated in CSV only
    bars.push_back({std::to_string(bucket.failures) + " failure(s)", bucket.percent_of_failed});
  }
  for (const auto& bucket : counts.buckets) {
    figure.rows.push_back({std::to_string(bucket.failures), std::to_string(bucket.nodes),
                           report::fmt(bucket.percent_of_failed)});
  }
  std::printf("%s\n", report::render_bar_chart(bars).c_str());
  std::printf("repeat-node failures: %zu hardware, %zu software (paper: %s)\n\n",
              counts.repeat_node_hardware_failures, counts.repeat_node_software_failures,
              machine == data::Machine::kTsubame2 ? "352 HW / 1 SW" : "104 HW / 95 SW");

  report::ComparisonSet cmp(std::string("Figure 4 - ") + std::string(data::to_string(machine)));
  cmp.add("single-failure node share", targets.single_failure_node_percent,
          counts.percent_single_failure, 0.2, "%");
  cmp.add("two-failure node share", 10.0, counts.percent_with(2), 0.6, "%");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig04_node_counts",
                      "Figure 4: failures per node (RQ2)");
  run(data::Machine::kTsubame2, "fig04a_node_counts_t2");
  run(data::Machine::kTsubame3, "fig04b_node_counts_t3");

  // Cross-system shape: T3's three-failure share is ~50% above T2's.
  const auto t2 =
      analysis::analyze_node_counts(bench::bench_index(data::Machine::kTsubame2)).value();
  const auto t3 =
      analysis::analyze_node_counts(bench::bench_index(data::Machine::kTsubame3)).value();
  std::printf("three-failure share: T2 %.1f%%  T3 %.1f%%  (paper: T3 ~1.5x T2)\n",
              t2.percent_with(3), t3.percent_with(3));
  std::printf("multi-failure share: T2 %.1f%%  T3 %.1f%%  (paper: ~40%% vs ~60%%)\n",
              t2.percent_multi_failure, t3.percent_multi_failure);
  return bench::exit_code();
}
