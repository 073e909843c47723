// Figure 11: time-to-recovery distribution per calendar month (RQ5).
// Paper headlines: Tsubame-2 repairs run slower in the second half of the
// year; Tsubame-3 shows no seasonal trend but high monthly variance.
#include <cstdio>

#include "analysis/seasonal.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto seasonal = analysis::analyze_seasonal(index).value();

  std::printf("--- %s (monthly TTR box stats, hours) ---\n", data::to_string(machine).data());
  report::Table table({"Month", "n", "q1", "median", "q3", "mean"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight});
  report::FigureData figure{figure_name, {"month", "n", "q1", "median", "q3", "mean"}, {}};
  for (const auto& month : seasonal.monthly) {
    if (!month.box.has_value()) {
      table.add_row({std::string(month_abbrev(month.month)), "0", "-", "-", "-", "-"});
      figure.rows.push_back({std::string(month_abbrev(month.month)), "0", "", "", "", ""});
      continue;
    }
    table.add_row({std::string(month_abbrev(month.month)), std::to_string(month.failures),
                   report::fmt(month.box->q1, 1), report::fmt(month.box->median, 1),
                   report::fmt(month.box->q3, 1), report::fmt(month.box->mean, 1)});
    figure.rows.push_back({std::string(month_abbrev(month.month)),
                           std::to_string(month.failures), report::fmt(month.box->q1, 2),
                           report::fmt(month.box->median, 2), report::fmt(month.box->q3, 2),
                           report::fmt(month.box->mean, 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("pooled median TTR: Jan-Jun %.1f h, Jul-Dec %.1f h (ratio %.2f)\n\n",
              seasonal.first_half_median_ttr, seasonal.second_half_median_ttr,
              seasonal.second_half_median_ttr / seasonal.first_half_median_ttr);

  report::ComparisonSet cmp(std::string("Figure 11 - ") + std::string(data::to_string(machine)));
  const double ratio = seasonal.second_half_median_ttr / seasonal.first_half_median_ttr;
  if (machine == data::Machine::kTsubame2) {
    // Calibrated second-half slowdown: 1.25/0.85 ~ 1.47x on the medians.
    cmp.add("H2/H1 median TTR (seasonal slowdown)", 1.47, ratio, 0.3, "x");
  } else {
    cmp.add("H2/H1 median TTR (no trend)", 1.0, ratio, 0.3, "x");
  }
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig11_monthly_ttr",
                      "Figure 11: monthly time-to-recovery distribution (RQ5)");
  run(data::Machine::kTsubame2, "fig11a_monthly_ttr_t2");
  run(data::Machine::kTsubame3, "fig11b_monthly_ttr_t3");
  return bench::exit_code();
}
