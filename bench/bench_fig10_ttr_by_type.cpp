// Figure 10: time-to-recovery distribution per failure type, sorted by
// mean TTR (RQ5).
// Paper headlines: hardware categories have wider TTR spread than
// software; infrequent categories can still be the costliest (Tsubame-3
// power board ~1% of failures but up to ~230 h; Tsubame-2 SSD ~4% but up
// to ~290 h).
#include <cstdio>

#include "analysis/ttr.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto rows = analysis::analyze_ttr_by_category(index).value();

  std::printf("--- %s (sorted by mean TTR, hours) ---\n", data::to_string(machine).data());
  report::Table table({"Category", "n", "share", "q1", "median", "q3", "mean", "max"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight});
  report::FigureData figure{
      figure_name, {"category", "n", "share_percent", "q1", "median", "q3", "mean", "max"}, {}};
  for (const auto& row : rows) {
    const std::string name(data::to_string(row.category));
    table.add_row({name, std::to_string(row.failures), report::fmt_percent(row.share_percent, 1),
                   report::fmt(row.box.q1, 1), report::fmt(row.box.median, 1),
                   report::fmt(row.box.q3, 1), report::fmt(row.mttr_hours, 1),
                   report::fmt(row.box.sample_max, 1)});
    figure.rows.push_back({name, std::to_string(row.failures), report::fmt(row.share_percent, 2),
                           report::fmt(row.box.q1, 2), report::fmt(row.box.median, 2),
                           report::fmt(row.box.q3, 2), report::fmt(row.mttr_hours, 2),
                           report::fmt(row.box.sample_max, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Hardware-vs-software spread comparison (pooled IQR).
  const auto hw = analysis::analyze_ttr_class(index, data::FailureClass::kHardware).value();
  const auto sw = analysis::analyze_ttr_class(index, data::FailureClass::kSoftware).value();
  const double hw_iqr = hw.summary.p75 - hw.summary.p25;
  const double sw_iqr = sw.summary.p75 - sw.summary.p25;
  std::printf("pooled TTR IQR: hardware %.1f h vs software %.1f h\n\n", hw_iqr, sw_iqr);

  report::ComparisonSet cmp(std::string("Figure 10 - ") + std::string(data::to_string(machine)));
  cmp.add("hardware IQR / software IQR (> 1)", 2.0, hw_iqr / sw_iqr, 0.6, "x");
  if (machine == data::Machine::kTsubame2) {
    double ssd_max = 0.0, ssd_share = 0.0;
    for (const auto& row : rows) {
      if (row.category == data::Category::kSsd) {
        ssd_max = row.box.sample_max;
        ssd_share = row.share_percent;
      }
    }
    cmp.add("SSD share", 4.0, ssd_share, 0.15, "%");
    cmp.add("SSD worst repair", 290.0, ssd_max, 0.35, "h");
  } else {
    double pb_max = 0.0, pb_share = 0.0;
    for (const auto& row : rows) {
      if (row.category == data::Category::kPowerBoard) {
        pb_max = row.box.sample_max;
        pb_share = row.share_percent;
      }
    }
    cmp.add("power-board share", 1.0, pb_share, 0.25, "%");
    cmp.add("power-board worst repair", 230.0, pb_max, 0.45, "h");
  }
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig10_ttr_by_type",
                      "Figure 10: TTR distribution per failure type (RQ5)");
  run(data::Machine::kTsubame2, "fig10a_ttr_by_type_t2");
  run(data::Machine::kTsubame3, "fig10b_ttr_by_type_t3");
  return bench::exit_code();
}
