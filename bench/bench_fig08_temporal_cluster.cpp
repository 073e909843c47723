// Figure 8: temporal distribution of multi-GPU failures within nodes.
// Paper headline: failures involving multiple GPUs on one node tend to be
// followed by another such failure close-by in time (temporal clustering).
#include <cstdio>

#include "analysis/temporal_cluster.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  auto clustering = analysis::analyze_multi_gpu_clustering(index);
  if (!clustering.ok()) {
    std::printf("--- %s: %s ---\n\n", data::to_string(machine).data(),
                clustering.error().to_string().c_str());
    return;
  }
  const auto& c = clustering.value();

  std::printf("--- %s: %zu multi-GPU failures ---\n", data::to_string(machine).data(), c.events);
  std::printf("timeline (hours since window start): ");
  for (double h : c.event_hours) std::printf("%.0f ", h);
  std::printf("\n");
  std::printf("gap stats: mean %.1f h, median %.1f h, CV %.2f, burstiness %.2f\n",
              c.gap_summary.mean, c.gap_summary.median, c.cv, c.burstiness);
  std::printf("follow-up within %.0f h: empirical %.2f vs Poisson baseline %.2f -> %s\n\n",
              c.follow_window_hours, c.follow_probability, c.poisson_follow_probability,
              c.clustered ? "CLUSTERED" : "not clustered");

  report::ComparisonSet cmp(std::string("Figure 8 - ") + std::string(data::to_string(machine)));
  // The paper's claim is qualitative; the quantitative shape targets are
  // over-dispersion (CV > 1) and follow-up above the Poisson baseline.
  cmp.add("clustered verdict", 1.0, c.clustered ? 1.0 : 0.0, 0.01, "bool");
  cmp.add("gap CV (Poisson = 1)", 1.9, c.cv, 0.5, "");
  bench::print_comparisons(cmp);

  report::FigureData figure{figure_name, {"event_index", "hours_since_start", "gap_hours"}, {}};
  for (std::size_t i = 0; i < c.event_hours.size(); ++i) {
    figure.rows.push_back({std::to_string(i), report::fmt(c.event_hours[i], 2),
                           i == 0 ? "" : report::fmt(c.gaps_hours[i - 1], 2)});
  }
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig08_temporal_cluster",
                      "Figure 8: temporal clustering of multi-GPU failures");
  run(data::Machine::kTsubame2, "fig08a_multi_gpu_timeline_t2");
  run(data::Machine::kTsubame3, "fig08b_multi_gpu_timeline_t3");
  return bench::exit_code();
}
