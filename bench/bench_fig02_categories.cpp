// Figure 2: breakdown of failures by reported category on both systems.
// Paper headlines: T2 GPU 44.37% / CPU 1.78% (GPU dominant); T3 Software
// 50.59% / GPU 27.81% / CPU 3.25% (software dominant).
#include <cstdio>

#include "analysis/category_breakdown.h"
#include "bench_common.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto breakdown = analysis::analyze_categories(index).value();
  const auto& targets = sim::paper_targets(machine);

  std::printf("--- %s: %zu failures ---\n", data::to_string(machine).data(), index.size());
  std::vector<report::Bar> bars;
  report::FigureData figure{figure_name, {"category", "count", "percent"}, {}};
  for (const auto& share : breakdown.categories) {
    if (share.count == 0) continue;
    bars.push_back({std::string(data::to_string(share.category)), share.percent});
    figure.rows.push_back({std::string(data::to_string(share.category)),
                           std::to_string(share.count), report::fmt(share.percent)});
  }
  std::printf("%s\n", report::render_bar_chart(bars).c_str());

  std::printf("class split: ");
  for (const auto& cls : breakdown.classes) {
    std::printf("%s %.2f%%  ", data::to_string(cls.cls).data(), cls.percent);
  }
  std::printf("\n\n");

  report::ComparisonSet cmp(std::string("Figure 2 - ") + std::string(data::to_string(machine)));
  cmp.add("GPU share", targets.gpu_share, breakdown.percent_of(data::Category::kGpu), 0.05, "%");
  cmp.add("CPU share", targets.cpu_share, breakdown.percent_of(data::Category::kCpu), 0.15, "%");
  if (targets.software_share > 0.0) {
    cmp.add("Software share", targets.software_share,
            breakdown.percent_of(data::Category::kSoftware), 0.05, "%");
  }
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig02_categories",
                      "Figure 2: failure category breakdown (RQ1)");
  run(data::Machine::kTsubame2, "fig02a_categories_t2");
  run(data::Machine::kTsubame3, "fig02b_categories_t3");
  std::printf("paper shape check: GPU dominates Tsubame-2, Software dominates Tsubame-3\n");
  return bench::exit_code();
}
