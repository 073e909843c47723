// Figure 3: root loci of Tsubame-3 software failures.
// Paper headlines: ~43% GPU-driver-related, ~20% unknown, 171 reported
// loci, top-16 causes plotted.
#include <cstdio>

#include "analysis/software_loci.h"
#include "bench_common.h"
#include "sim/generator.h"
#include "report/chart.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_fig03_software_loci",
                      "Figure 3: Tsubame-3 software failure root loci");
  const auto loci =
      analysis::analyze_software_loci(bench::bench_index(data::Machine::kTsubame3), 16).value();
  const auto& targets = sim::paper_targets(data::Machine::kTsubame3);

  std::printf("software-class failures: %zu, distinct loci: %zu\n\n", loci.software_failures,
              loci.distinct_loci);

  std::vector<report::Bar> bars;
  report::FigureData figure{"fig03_software_loci", {"locus", "count", "percent"}, {}};
  for (const auto& share : loci.top) {
    bars.push_back({share.locus, share.percent});
    figure.rows.push_back(
        {share.locus, std::to_string(share.count), report::fmt(share.percent)});
  }
  std::printf("%s\n", report::render_bar_chart(bars).c_str());

  // Locus shares on ~180 software records carry ~3 points of sampling
  // noise per realization; compare the seed-averaged shares and print
  // this realization's values above.
  double driver_avg = 0.0, unknown_avg = 0.0;
  const int seeds = 8;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto seeded = sim::generate_log(sim::tsubame3_model(), seed).value();
    auto seeded_loci = analysis::analyze_software_loci(data::LogIndex(seeded), 16).value();
    driver_avg += seeded_loci.gpu_driver_percent / seeds;
    unknown_avg += seeded_loci.unknown_percent / seeds;
  }

  report::ComparisonSet cmp("Figure 3 - software root loci");
  cmp.add("GPU-driver-related share (8-seed avg)", targets.gpu_driver_locus_percent, driver_avg,
          0.15, "%");
  cmp.add("unknown-cause share (8-seed avg)", targets.unknown_locus_percent, unknown_avg, 0.15,
          "%");
  cmp.add("software failures considered", 171.0,
          static_cast<double>(loci.software_failures), 0.1, "count");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
  return bench::exit_code();
}
