// Figure 5: spatial distribution of GPU failures across node slots.
// Paper headlines: on Tsubame-2 GPU 1 sees ~20% more failures than
// GPU 0 / GPU 2; on Tsubame-3 GPU 0 and GPU 3 see considerably more than
// GPU 1 / GPU 2; distributions are non-uniform on both.
#include <cstdio>

#include "analysis/gpu_slots.h"
#include "bench_common.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto slots = analysis::analyze_gpu_slots(index).value();

  std::printf("--- %s: %zu attributed GPU failures, %zu slot involvements ---\n",
              data::to_string(machine).data(), slots.attributed_failures,
              slots.total_involvements);
  std::vector<report::Bar> bars;
  report::FigureData figure{figure_name, {"slot", "count", "percent", "per_node_average"}, {}};
  for (const auto& slot : slots.slots) {
    bars.push_back({"GPU " + std::to_string(slot.slot), slot.percent});
    figure.rows.push_back({std::to_string(slot.slot), std::to_string(slot.count),
                           report::fmt(slot.percent), report::fmt(slot.per_node_average, 4)});
  }
  std::printf("%s", report::render_bar_chart(bars).c_str());
  std::printf("uniformity chi-square p-value: %.4g\n\n", slots.uniformity_p_value);

  report::ComparisonSet cmp(std::string("Figure 5 - ") + std::string(data::to_string(machine)));
  if (machine == data::Machine::kTsubame2) {
    const double others =
        (static_cast<double>(slots.slots[0].count) + static_cast<double>(slots.slots[2].count)) /
        2.0;
    cmp.add("GPU1 excess over GPU0/GPU2", 20.0,
            100.0 * (static_cast<double>(slots.slots[1].count) / others - 1.0), 0.4, "%");
  } else {
    const double outer =
        (static_cast<double>(slots.slots[0].count) + static_cast<double>(slots.slots[3].count)) /
        2.0;
    const double inner =
        (static_cast<double>(slots.slots[1].count) + static_cast<double>(slots.slots[2].count)) /
        2.0;
    // "Considerably more": the calibrated weights (1.7 vs 0.8) imply ~2x.
    cmp.add("outer/inner slot failure ratio", 2.0, outer / inner, 0.4, "x");
  }
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig05_gpu_slots",
                      "Figure 5: per-slot GPU failure distribution (RQ2)");
  run(data::Machine::kTsubame2, "fig05a_gpu_slots_t2");
  run(data::Machine::kTsubame3, "fig05b_gpu_slots_t3");
  return bench::exit_code();
}
