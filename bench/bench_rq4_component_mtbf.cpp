// RQ4 (text): per-component MTBF for GPU and CPU failures.
// Paper: GPU MTBF 21.94 h (T2) -> 226.48 h (T3), a ~10x improvement while
// the GPU count only halved; CPU MTBF 537.6 h -> 1593.6 h (~3x).
// Absolute numbers depend on how the paper counted GPU events (its 21.94 h
// implies more GPU events than 44.37% of 897); the reproduction preserves
// the ordering and the "improvement >> component shrinkage" conclusion.
#include <cstdio>

#include "analysis/tbf.h"
#include "bench_common.h"
#include "report/figure_export.h"
#include "report/table.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_rq4_component_mtbf",
                      "RQ4: GPU and CPU MTBF across generations");
  const auto& t2 = bench::bench_index(data::Machine::kTsubame2);
  const auto& t3 = bench::bench_index(data::Machine::kTsubame3);

  const double t2_gpu =
      analysis::analyze_tbf_category(t2, data::Category::kGpu).value().exposure_mtbf_hours;
  const double t3_gpu =
      analysis::analyze_tbf_category(t3, data::Category::kGpu).value().exposure_mtbf_hours;
  const double t2_cpu =
      analysis::analyze_tbf_category(t2, data::Category::kCpu).value().exposure_mtbf_hours;
  const double t3_cpu =
      analysis::analyze_tbf_category(t3, data::Category::kCpu).value().exposure_mtbf_hours;

  report::Table table({"Component", "Paper T2 (h)", "Paper T3 (h)", "Measured T2 (h)",
                       "Measured T3 (h)", "Measured ratio"});
  table.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight});
  table.add_row({"GPU", "21.94", "226.48", report::fmt(t2_gpu, 1), report::fmt(t3_gpu, 1),
                 report::fmt(t3_gpu / t2_gpu, 1) + "x"});
  table.add_row({"CPU", "537.6", "1593.6", report::fmt(t2_cpu, 1), report::fmt(t3_cpu, 1),
                 report::fmt(t3_cpu / t2_cpu, 1) + "x"});
  std::printf("%s\n", table.render().c_str());
  std::printf("GPU count ratio T2/T3: %.2fx; CPU count ratio: %.2fx\n\n",
              static_cast<double>(t2.spec().total_gpus()) / t3.spec().total_gpus(),
              static_cast<double>(t2.spec().total_cpus()) / t3.spec().total_cpus());

  report::ComparisonSet cmp("RQ4 - component MTBF shape");
  // Shape targets: the cross-generation improvement factors.
  cmp.add("GPU MTBF improvement", 10.3, t3_gpu / t2_gpu, 0.4, "x");
  cmp.add("CPU MTBF improvement", 2.96, t3_cpu / t2_cpu, 0.4, "x");
  cmp.add("GPU improvement exceeds GPU-count shrinkage (ratio/shrinkage)", 5.3,
          (t3_gpu / t2_gpu) / (4224.0 / 2160.0), 0.5, "x");
  bench::print_comparisons(cmp);

  report::FigureData figure{"rq4_component_mtbf",
                            {"component", "paper_t2", "paper_t3", "measured_t2", "measured_t3"},
                            {{"GPU", "21.94", "226.48", report::fmt(t2_gpu, 1),
                              report::fmt(t3_gpu, 1)},
                             {"CPU", "537.6", "1593.6", report::fmt(t2_cpu, 1),
                              report::fmt(t3_cpu, 1)}}};
  (void)report::export_figure(figure);
  return bench::exit_code();
}
