// RQ4 (text): performance-error-proportionality — "useful work done per
// failure-free period" (Rpeak x MTBF).
// Paper story: Tsubame-3 has much more compute and ~4x the MTBF, so the
// combined FLOP-per-MTBF metric improves multiplicatively; and the MTBF
// gain is NOT explained by the ~2.2x smaller component count.  (The paper
// quotes "~8x more computing power"; raw Rpeak gives 12.1/2.3 = 5.26x —
// we report the Rpeak-based ratio and keep the story intact.)
#include <cstdio>

#include "analysis/perf_error_prop.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_rq4_perf_error_prop",
                      "RQ4: performance-error-proportionality metric");
  const auto& t2 = bench::bench_index(data::Machine::kTsubame2);
  const auto& t3 = bench::bench_index(data::Machine::kTsubame3);
  const auto cmp_gen = analysis::compare_generations(t2, t3).value();

  report::Table table({"Metric", "Tsubame-2", "Tsubame-3", "Ratio"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  table.add_row({"Rpeak (PFlop/s)", report::fmt(cmp_gen.older.rpeak_pflops, 1),
                 report::fmt(cmp_gen.newer.rpeak_pflops, 1),
                 report::fmt(cmp_gen.compute_ratio, 2) + "x"});
  table.add_row({"MTBF (h)", report::fmt(cmp_gen.older.mtbf_hours, 1),
                 report::fmt(cmp_gen.newer.mtbf_hours, 1),
                 report::fmt(cmp_gen.mtbf_ratio, 2) + "x"});
  table.add_row({"PFlop-hours per failure-free period",
                 report::fmt(cmp_gen.older.pflop_hours_per_failure_free_period, 1),
                 report::fmt(cmp_gen.newer.pflop_hours_per_failure_free_period, 1),
                 report::fmt(cmp_gen.metric_ratio, 1) + "x"});
  table.add_row({"GPU+CPU components", std::to_string(cmp_gen.older.components),
                 std::to_string(cmp_gen.newer.components),
                 report::fmt(1.0 / cmp_gen.component_ratio, 2) + "x"});
  table.add_row({"PFlop-hours per component",
                 report::fmt(cmp_gen.older.pflop_hours_per_component, 3),
                 report::fmt(cmp_gen.newer.pflop_hours_per_component, 3),
                 report::fmt(cmp_gen.newer.pflop_hours_per_component /
                                 cmp_gen.older.pflop_hours_per_component, 1) + "x"});
  std::printf("%s\n", table.render().c_str());
  std::printf("reliability outpaced component shrinkage: %s (MTBF ratio %.2fx vs "
              "component shrinkage %.2fx)\n\n",
              cmp_gen.reliability_outpaced_shrinkage ? "YES" : "NO", cmp_gen.mtbf_ratio,
              cmp_gen.component_ratio);

  report::ComparisonSet cmp("RQ4 - performance-error-proportionality");
  cmp.add("compute ratio (Rpeak)", 12.1 / 2.3, cmp_gen.compute_ratio, 0.01, "x");
  cmp.add("MTBF ratio", 4.7, cmp_gen.mtbf_ratio, 0.15, "x");
  cmp.add("component shrinkage", 7040.0 / 3240.0, cmp_gen.component_ratio, 0.01, "x");
  cmp.add("combined FLOP-per-MTBF ratio", 24.7, cmp_gen.metric_ratio, 0.2, "x");
  bench::print_comparisons(cmp);

  report::FigureData figure{
      "rq4_perf_error_prop",
      {"metric", "tsubame2", "tsubame3", "ratio"},
      {{"rpeak_pflops", report::fmt(cmp_gen.older.rpeak_pflops, 2),
        report::fmt(cmp_gen.newer.rpeak_pflops, 2), report::fmt(cmp_gen.compute_ratio, 3)},
       {"mtbf_hours", report::fmt(cmp_gen.older.mtbf_hours, 2),
        report::fmt(cmp_gen.newer.mtbf_hours, 2), report::fmt(cmp_gen.mtbf_ratio, 3)},
       {"pflop_hours_per_period",
        report::fmt(cmp_gen.older.pflop_hours_per_failure_free_period, 2),
        report::fmt(cmp_gen.newer.pflop_hours_per_failure_free_period, 2),
        report::fmt(cmp_gen.metric_ratio, 3)}}};
  (void)report::export_figure(figure);
  return bench::exit_code();
}
