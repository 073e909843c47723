// Figure 7: distribution of time between failures per failure type,
// sorted by mean TBF (RQ4).
// Paper headlines: GPU hardware and software failures have the smallest
// median TBF; memory- and CPU-related failures have much higher medians.
#include <cstdio>

#include "analysis/tbf.h"
#include "analysis/temporal_cluster.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

double median_of(const std::vector<analysis::CategoryTbf>& rows, data::Category category) {
  for (const auto& row : rows) {
    if (row.category == category) return row.box.median;
  }
  return -1.0;
}

void run(data::Machine machine, const char* figure_name) {
  const auto& index = bench::bench_index(machine);
  const auto rows = analysis::analyze_tbf_by_category(index).value();

  std::printf("--- %s (sorted by mean TBF, box stats in hours) ---\n",
              data::to_string(machine).data());
  report::Table table({"Category", "n", "q1", "median", "q3", "mean TBF", "exposure MTBF"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight});
  report::FigureData figure{figure_name,
                            {"category", "n", "q1", "median", "q3", "mean_tbf", "exposure_mtbf"},
                            {}};
  for (const auto& row : rows) {
    const std::string name(data::to_string(row.category));
    table.add_row({name, std::to_string(row.failures), report::fmt(row.box.q1, 1),
                   report::fmt(row.box.median, 1), report::fmt(row.box.q3, 1),
                   report::fmt(row.mtbf_hours, 1), report::fmt(row.exposure_mtbf_hours, 1)});
    figure.rows.push_back({name, std::to_string(row.failures), report::fmt(row.box.q1, 2),
                           report::fmt(row.box.median, 2), report::fmt(row.box.q3, 2),
                           report::fmt(row.mtbf_hours, 2),
                           report::fmt(row.exposure_mtbf_hours, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // The paper's "relative spread" remark, quantified: inter-arrival
  // burstiness per category (CV > 1 = bursty).
  if (auto burstiness = analysis::analyze_category_burstiness(index); burstiness.ok()) {
    std::printf("inter-arrival burstiness (B = (CV-1)/(CV+1), 0 = Poisson): ");
    for (const auto& row : burstiness.value()) {
      std::printf("%s %.2f  ", data::to_string(row.category).data(), row.burstiness);
    }
    std::printf("\n\n");
  }

  report::ComparisonSet cmp(std::string("Figure 7 - ") + std::string(data::to_string(machine)));
  // Shape: the most frequent (GPU / Software) category leads the sort and
  // Memory/CPU medians sit far above it.
  const double gpu_median = median_of(rows, data::Category::kGpu);
  const double cpu_median = median_of(rows, data::Category::kCpu);
  const double memory_median = median_of(rows, data::Category::kMemory);
  cmp.add("front-of-sort is the dominant category", 1.0,
          (rows.front().category == data::Category::kGpu ||
           rows.front().category == data::Category::kSoftware)
              ? 1.0
              : 0.0,
          0.01, "bool");
  if (cpu_median > 0.0)
    cmp.add("CPU median / GPU median (>> 1)", 25.0, cpu_median / gpu_median, 0.9, "x");
  if (memory_median > 0.0)
    cmp.add("Memory median / GPU median (>> 1)", 18.0, memory_median / gpu_median, 0.9, "x");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_fig07_tbf_by_type",
                      "Figure 7: TBF distribution per failure type (RQ4)");
  run(data::Machine::kTsubame2, "fig07a_tbf_by_type_t2");
  run(data::Machine::kTsubame3, "fig07b_tbf_by_type_t3");
  return bench::exit_code();
}
