// checkpoint_tuning: turn measured MTBF into a checkpoint policy.
//
// The paper's implication chain: measure the machine's MTBF, then pick
// checkpoint intervals accordingly (GPU-dense systems fail often enough
// that naive intervals waste real throughput).  This example compares the
// two Tsubame generations across a range of checkpoint costs and shows
// what the 4x MTBF improvement buys in machine efficiency.
//
//   $ ./checkpoint_tuning
#include <cstdio>

#include "analysis/tbf.h"
#include "ops/checkpoint.h"
#include "report/table.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

using namespace tsufail;

int main() {
  const auto t2_log = sim::generate_log(sim::tsubame2_model(), 11).value();
  const auto t3_log = sim::generate_log(sim::tsubame3_model(), 11).value();
  const data::LogIndex t2(t2_log);
  const data::LogIndex t3(t3_log);
  const double mtbf2 = analysis::analyze_tbf(t2).value().exposure_mtbf_hours;
  const double mtbf3 = analysis::analyze_tbf(t3).value().exposure_mtbf_hours;

  std::printf("measured system MTBF: Tsubame-2 %.1f h, Tsubame-3 %.1f h\n\n", mtbf2, mtbf3);

  std::printf("optimal checkpoint interval (Daly) and machine efficiency by\n"
              "checkpoint cost, for a job using the WHOLE machine:\n\n");
  report::Table table({"Checkpoint cost", "T2 interval", "T2 efficiency", "T3 interval",
                       "T3 efficiency", "efficiency gained"});
  table.set_alignment({report::Align::kRight, report::Align::kRight, report::Align::kRight,
                       report::Align::kRight, report::Align::kRight, report::Align::kRight});
  for (double cost_minutes : {1.0, 5.0, 15.0, 30.0, 60.0}) {
    const double cost = cost_minutes / 60.0;
    const auto plan2 = ops::plan_checkpointing(cost, mtbf2).value();
    const auto plan3 = ops::plan_checkpointing(cost, mtbf3).value();
    table.add_row({report::fmt(cost_minutes, 0) + " min",
                   report::fmt(plan2.daly_hours, 2) + " h",
                   report::fmt_percent(100.0 * plan2.efficiency_at_daly, 1),
                   report::fmt(plan3.daly_hours, 2) + " h",
                   report::fmt_percent(100.0 * plan3.efficiency_at_daly, 1),
                   "+" + report::fmt(100.0 * (plan3.efficiency_at_daly -
                                              plan2.efficiency_at_daly), 1) + " pp"});
  }
  std::printf("%s\n", table.render().c_str());

  // Per-category view: jobs pinned to GPU nodes care about GPU MTBF, which
  // improved ~10x across generations.
  const double gpu2 =
      analysis::analyze_tbf_category(t2, data::Category::kGpu).value().exposure_mtbf_hours;
  const double gpu3 =
      analysis::analyze_tbf_category(t3, data::Category::kGpu).value().exposure_mtbf_hours;
  std::printf("GPU-failure-only MTBF: T2 %.1f h -> T3 %.1f h (%.1fx)\n", gpu2, gpu3, gpu3 / gpu2);
  const auto gpu_plan2 = ops::plan_checkpointing(0.25, gpu2).value();
  const auto gpu_plan3 = ops::plan_checkpointing(0.25, gpu3).value();
  std::printf("for a GPU job with a 15-min checkpoint: interval %.1f h -> %.1f h, "
              "waste %.2f%% -> %.2f%%\n",
              gpu_plan2.daly_hours, gpu_plan3.daly_hours, 100.0 * gpu_plan2.waste_at_daly,
              100.0 * gpu_plan3.waste_at_daly);
  return 0;
}
