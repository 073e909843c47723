// Figure 9: cumulative distribution of time to recovery (RQ5).
// Paper headline: MTTR is ~55 h on BOTH generations with near-identical
// distribution shapes — repair time did not improve while MTBF did.
#include <cstdio>

#include "analysis/ttr.h"
#include "bench_common.h"
#include "sim/generator.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"
#include "stats/ecdf.h"
#include "stats/hypothesis.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_fig09_ttr_cdf",
                      "Figure 9: CDF of time to recovery (RQ5)");
  const auto t2 = analysis::analyze_ttr(bench::bench_index(data::Machine::kTsubame2)).value();
  const auto t3 = analysis::analyze_ttr(bench::bench_index(data::Machine::kTsubame3)).value();

  std::vector<report::Series> series;
  report::FigureData figure{"fig09_ttr_cdf", {"machine", "ttr_hours", "cdf"}, {}};
  for (const auto& [name, result] : {std::pair{"Tsubame-2", &t2}, std::pair{"Tsubame-3", &t3}}) {
    const auto ecdf = stats::Ecdf::create(result->ttr_hours).value();
    report::Series s{name, ecdf.curve(60)};
    for (const auto& [x, y] : s.points)
      figure.rows.push_back({name, report::fmt(x, 3), report::fmt(y, 4)});
    series.push_back(std::move(s));
  }
  std::printf("%s\n", render_cdf_chart(series, 72, 20, "hours to recovery",
                                       "P[TTR <= x]").c_str());

  for (const auto& [name, result] : {std::pair{"Tsubame-2", &t2}, std::pair{"Tsubame-3", &t3}}) {
    std::printf("%s: MTTR %.1f h, median %.1f h, p75 %.1f h, p95 %.1f h", name,
                result->mttr_hours, result->summary.median, result->summary.p75,
                result->summary.p95);
    if (result->best_family.has_value())
      std::printf(", best-fit family: %s", stats::to_string(result->best_family->family));
    std::printf("\n");
  }

  // Shape similarity: two-sample KS between the two TTR distributions.
  const auto ks = stats::ks_two_sample(t2.ttr_hours, t3.ttr_hours).value();
  std::printf("shape similarity: KS distance %.3f (paper: 'distribution shape remains "
              "roughly the same')\n\n",
              ks.statistic);

  // MTTR on a single 338-record realization of heavy-tailed repairs is
  // noisy; compare the seed-averaged value against the paper's ~55 h and
  // additionally report this realization's numbers.
  const auto seed_averaged_mttr = [](const sim::MachineModel& model) {
    double mttr = 0.0;
    const int seeds = 8;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto log = sim::generate_log(model, seed).value();
      mttr += analysis::analyze_ttr(data::LogIndex(log)).value().mttr_hours / seeds;
    }
    return mttr;
  };
  const double t2_avg = seed_averaged_mttr(sim::tsubame2_model());
  const double t3_avg = seed_averaged_mttr(sim::tsubame3_model());

  report::ComparisonSet cmp("Figure 9 - TTR");
  cmp.add("T2 MTTR (8-seed average)", 55.0, t2_avg, 0.12, "h");
  cmp.add("T3 MTTR (8-seed average)", 55.0, t3_avg, 0.12, "h");
  cmp.add("T2 MTTR (this realization)", 55.0, t2.mttr_hours, 0.25, "h");
  cmp.add("T3 MTTR (this realization)", 55.0, t3.mttr_hours, 0.25, "h");
  cmp.add("MTTR generation ratio (~1)", 1.0, t3.mttr_hours / t2.mttr_hours, 0.3, "x");
  cmp.add("KS distance between shapes (small)", 0.0, ks.statistic, 0.15, "");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
  return bench::exit_code();
}
