// Table III: number of GPUs involved per GPU failure (RQ3).
// Paper rows: T2 112/128/128 (30.44/34.78/34.78%); T3 75/4/2/0
// (92.6/4.95/2.45/0%).
#include <cstdio>

#include "analysis/multi_gpu.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

namespace {

void run(data::Machine machine) {
  const auto& index = bench::bench_index(machine);
  const auto mg = analysis::analyze_multi_gpu(index).value();
  const auto& targets = sim::paper_targets(machine);

  report::Table table({"#GPUs", "Count", "Percent", "Paper"});
  table.set_alignment(
      {report::Align::kRight, report::Align::kRight, report::Align::kRight, report::Align::kRight});
  report::FigureData figure{machine == data::Machine::kTsubame2 ? "tab03_multi_gpu_t2"
                                                                : "tab03_multi_gpu_t3",
                            {"gpus", "count", "percent", "paper_percent"},
                            {}};
  report::ComparisonSet cmp(std::string("Table III - ") + std::string(data::to_string(machine)));
  for (const auto& bucket : mg.buckets) {
    const double paper =
        static_cast<std::size_t>(bucket.gpus) <= targets.involvement_percent.size()
            ? targets.involvement_percent[static_cast<std::size_t>(bucket.gpus - 1)]
            : 0.0;
    table.add_row({std::to_string(bucket.gpus), std::to_string(bucket.count),
                   report::fmt_percent(bucket.percent), report::fmt_percent(paper)});
    figure.rows.push_back({std::to_string(bucket.gpus), std::to_string(bucket.count),
                           report::fmt(bucket.percent), report::fmt(paper)});
    cmp.add(std::to_string(bucket.gpus) + " GPU(s) share", paper, bucket.percent, 0.1, "%");
  }
  table.add_row({"Total", std::to_string(mg.attributed_failures), "100%",
                 std::to_string(targets.involvement_total)});

  std::printf("--- %s ---\n%s\n", data::to_string(machine).data(), table.render().c_str());
  cmp.add("attributed GPU failures", static_cast<double>(targets.involvement_total),
          static_cast<double>(mg.attributed_failures), 0.05, "count");
  bench::print_comparisons(cmp);
  (void)report::export_figure(figure);
}

}  // namespace

int main() {
  bench::print_banner("bench_tab03_multi_gpu",
                      "Table III: GPUs involved per node failure (RQ3)");
  run(data::Machine::kTsubame2);
  run(data::Machine::kTsubame3);

  const auto t2 = analysis::analyze_multi_gpu(bench::bench_index(data::Machine::kTsubame2)).value();
  const auto t3 = analysis::analyze_multi_gpu(bench::bench_index(data::Machine::kTsubame3)).value();
  std::printf("multi-GPU failure share: T2 %.1f%% vs T3 %.1f%% "
              "(paper: ~70%% collapses to < 8%%)\n",
              t2.percent_multi, t3.percent_multi);
  return bench::exit_code();
}
