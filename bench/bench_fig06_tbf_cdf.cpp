// Figure 6: cumulative distribution of time between failures (RQ4).
// Paper headlines: T2 MTBF ~15 h with 75% of gaps under 20 h; T3 MTBF
// > 70 h with 75% under 93 h — more than a 4x MTBF improvement.
#include <cstdio>

#include "analysis/tbf.h"
#include "bench_common.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"
#include "stats/ecdf.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_fig06_tbf_cdf",
                      "Figure 6: CDF of time between failures (RQ4)");
  const auto t2 = analysis::analyze_tbf(bench::bench_index(data::Machine::kTsubame2)).value();
  const auto t3 = analysis::analyze_tbf(bench::bench_index(data::Machine::kTsubame3)).value();

  std::vector<report::Series> series;
  report::FigureData figure{"fig06_tbf_cdf", {"machine", "tbf_hours", "cdf"}, {}};
  for (const auto& [name, result] : {std::pair{"Tsubame-2", &t2}, std::pair{"Tsubame-3", &t3}}) {
    const auto ecdf = stats::Ecdf::create(result->tbf_hours).value();
    report::Series s{name, ecdf.curve(60)};
    for (const auto& [x, y] : s.points)
      figure.rows.push_back({name, report::fmt(x, 3), report::fmt(y, 4)});
    series.push_back(std::move(s));
  }
  std::printf("%s\n", report::render_cdf_chart(series, 72, 20, "hours between failures",
                                               "P[TBF <= x]").c_str());

  for (const auto& [machine, result] :
       {std::pair{data::Machine::kTsubame2, &t2}, std::pair{data::Machine::kTsubame3, &t3}}) {
    const auto& log = bench::bench_log(machine);
    const double band = stats::dkw_band_halfwidth(result->tbf_hours.size()).value_or(0.0);
    const auto ci =
        analysis::mtbf_confidence_interval(log.size(), log.spec().window_hours()).value();
    std::printf("%s: MTBF(mean gap) %.1f h, exposure MTBF %.1f h [95%% CI %.1f-%.1f h], "
                "p75 %.1f h, DKW CDF band +-%.3f",
                data::to_string(machine).data(), result->mtbf_hours,
                result->exposure_mtbf_hours, ci.low_hours, ci.high_hours, result->p75_hours,
                band);
    if (result->best_family.has_value()) {
      std::printf(", best-fit family: %s (KS %.3f)", stats::to_string(result->best_family->family),
                  result->best_family->ks_distance);
    }
    std::printf("\n");
  }
  std::printf("\n");

  const auto& t2_targets = sim::paper_targets(data::Machine::kTsubame2);
  const auto& t3_targets = sim::paper_targets(data::Machine::kTsubame3);
  report::ComparisonSet cmp("Figure 6 - TBF");
  cmp.add("T2 MTBF", t2_targets.mtbf_hours, t2.exposure_mtbf_hours, 0.1, "h");
  cmp.add("T2 p75 TBF", t2_targets.tbf_p75_hours, t2.p75_hours, 0.2, "h");
  cmp.add("T3 MTBF", t3_targets.mtbf_hours, t3.exposure_mtbf_hours, 0.1, "h");
  cmp.add("T3 p75 TBF", t3_targets.tbf_p75_hours, t3.p75_hours, 0.25, "h");
  cmp.add("MTBF improvement ratio", 4.7, t3.exposure_mtbf_hours / t2.exposure_mtbf_hours, 0.15,
          "x");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
  return bench::exit_code();
}
