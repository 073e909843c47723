// Extension bench: rack-level spatial distribution.
// The paper (§Generalizability): "the non-uniform distribution of
// failures among racks is also present in multi-GPU-per-node systems and
// can become particularly challenging."
#include <cstdio>

#include "analysis/rack_distribution.h"
#include "bench_common.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto racks = analysis::analyze_racks(index).value();

  std::printf("--- %s: %zu racks, %zu with failures ---\n", data::to_string(machine).data(),
              racks.total_racks, racks.racks_with_failures);
  std::vector<report::Bar> bars;
  report::FigureData figure{figure_name, {"rack", "failures", "percent", "per_node_rate"}, {}};
  for (std::size_t i = 0; i < std::min<std::size_t>(racks.racks.size(), 10); ++i) {
    const auto& rack = racks.racks[i];
    bars.push_back({"rack " + std::to_string(rack.rack), static_cast<double>(rack.failures)});
  }
  for (const auto& rack : racks.racks) {
    figure.rows.push_back({std::to_string(rack.rack), std::to_string(rack.failures),
                           report::fmt(rack.percent), report::fmt(rack.per_node_rate, 4)});
  }
  std::printf("top racks by failures:\n%s", report::render_bar_chart(bars, 40, 0).c_str());
  std::printf("uniformity chi-square p: %.3g | Gini %.3f | %zu racks hold half the failures\n\n",
              racks.uniformity_p_value, racks.gini, racks.racks_holding_half);

  report::ComparisonSet cmp(std::string("rack distribution - ") +
                            std::string(data::to_string(machine)));
  cmp.add("non-uniform across racks (p < 0.05)", 1.0,
          racks.uniformity_p_value < 0.05 ? 1.0 : 0.0, 0.01, "bool");
  cmp.add("concentration (Gini)", 0.4, racks.gini, 0.65, "");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_ext_racks",
                      "extension: non-uniform failure distribution across racks");
  run(data::Machine::kTsubame2, "ext_racks_t2");
  run(data::Machine::kTsubame3, "ext_racks_t3");
  return bench::exit_code();
}
