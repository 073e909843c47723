// Figure 12: distribution of failures by month of occurrence (RQ5).
// Paper headline: monthly failure density is NOT correlated with monthly
// time to recovery — fixing failures costs differently per type, so more
// failures does not mean slower repairs.
#include <cstdio>

#include "analysis/seasonal.h"
#include "bench_common.h"
#include "sim/generator.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto seasonal = analysis::analyze_seasonal(index).value();

  std::printf("--- %s (failures per calendar month) ---\n", data::to_string(machine).data());
  std::vector<report::Bar> bars;
  report::FigureData figure{figure_name, {"month", "failures", "median_ttr"}, {}};
  for (const auto& month : seasonal.monthly) {
    bars.push_back({std::string(month_abbrev(month.month)),
                    static_cast<double>(month.failures)});
    figure.rows.push_back({std::string(month_abbrev(month.month)),
                           std::to_string(month.failures),
                           month.box ? report::fmt(month.box->median, 2) : ""});
  }
  std::printf("%s", report::render_bar_chart(bars, 48, 0).c_str());

  std::printf("density vs median-TTR correlation: Pearson %s, Spearman %s\n\n",
              seasonal.pearson_density_ttr
                  ? report::fmt(*seasonal.pearson_density_ttr, 3).c_str()
                  : "n/a",
              seasonal.spearman_density_ttr
                  ? report::fmt(*seasonal.spearman_density_ttr, 3).c_str()
                  : "n/a");

  // A single 12-month realization puts sampling noise of ~0.3 on rho, so
  // the comparison uses the seed-averaged correlation; this realization's
  // value is printed above for reference.
  double rho_avg = 0.0;
  const int seeds = 8;
  const auto& model = machine == data::Machine::kTsubame2 ? sim::tsubame2_model()
                                                          : sim::tsubame3_model();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto log = sim::generate_log(model, seed).value();
    auto s = analysis::analyze_seasonal(data::LogIndex(log)).value();
    rho_avg += s.spearman_density_ttr.value_or(0.0) / seeds;
  }

  report::ComparisonSet cmp(std::string("Figure 12 - ") + std::string(data::to_string(machine)));
  cmp.add("density-TTR Spearman rho, 8-seed average (~0)", 0.0, rho_avg, 0.3, "");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig12_monthly_counts",
                      "Figure 12: failures by month of occurrence (RQ5)");
  run(data::Machine::kTsubame2, "fig12a_monthly_counts_t2");
  run(data::Machine::kTsubame3, "fig12b_monthly_counts_t3");
  return bench::exit_code();
}
