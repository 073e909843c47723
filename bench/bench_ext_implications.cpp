// Extension bench: the paper's operational implications, quantified.
//   (a) checkpoint planning — the analytic Young/Daly optimum validated
//       against the discrete-event simulator on both machines' MTBF;
//   (b) job impact — goodput of an identical job mix on both fleets,
//       connecting MTBF to "useful work done" (the operational face of
//       performance-error-proportionality).
#include <cstdio>

#include "analysis/tbf.h"
#include "bench_common.h"
#include "ops/checkpoint.h"
#include "ops/checkpoint_sim.h"
#include "ops/job_impact.h"
#include "report/table.h"

using namespace tsufail;

int main() {
  bench::print_banner("bench_ext_implications",
                      "extension: checkpoint-sim validation and job-impact replay");

  // --- (a) analytic vs simulated checkpoint waste ------------------------
  std::printf("-- Young/Daly analytic waste vs discrete-event simulation --\n");
  report::Table ckpt({"Machine", "MTBF", "Daly interval", "analytic waste", "simulated waste"});
  ckpt.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                      report::Align::kRight, report::Align::kRight});
  report::ComparisonSet cmp_ckpt("analytic model vs simulation");
  const double cost = 0.25;
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    const double mtbf =
        analysis::analyze_tbf(bench::bench_index(machine)).value().exposure_mtbf_hours;
    const double tau = ops::daly_interval_hours(cost, mtbf).value();
    const double analytic = ops::waste_fraction(cost, tau, mtbf).value();
    const auto sim = ops::simulate_checkpointed_job_exponential(
        {5000.0, tau, cost, 0.0}, mtbf, bench::kBenchSeed, 48).value();
    ckpt.add_row({std::string(data::to_string(machine)), report::fmt(mtbf, 1) + " h",
                  report::fmt(tau, 2) + " h", report::fmt_percent(100.0 * analytic, 2),
                  report::fmt_percent(100.0 * sim.waste_fraction, 2)});
    cmp_ckpt.add(std::string(data::to_string(machine)) + " simulated waste",
                 analytic, sim.waste_fraction, 0.25, "frac");
  }
  std::printf("%s\n", ckpt.render().c_str());
  bench::print_comparisons(cmp_ckpt);

  // --- (b) job impact -------------------------------------------------------
  std::printf("-- identical job mix replayed on both fleets --\n");
  ops::JobMixSpec mix;
  mix.jobs = 5000;
  mix.max_nodes = 32;
  mix.mean_duration_hours = 24.0;
  report::Table jobs({"Machine", "interrupted jobs", "goodput (no ckpt)", "goodput (ckpt 4h)"});
  jobs.set_alignment({report::Align::kLeft, report::Align::kRight, report::Align::kRight,
                      report::Align::kRight});
  double goodput_t2 = 0.0, goodput_t3 = 0.0;
  for (data::Machine machine : {data::Machine::kTsubame2, data::Machine::kTsubame3}) {
    const auto result = ops::replay_job_impact(bench::bench_log(machine), mix,
                                               std::uint64_t{bench::kBenchSeed}).value();
    jobs.add_row({std::string(data::to_string(machine)),
                  report::fmt_percent(100.0 * result.interrupted_fraction, 1),
                  report::fmt_percent(100.0 * result.goodput_no_ckpt, 2),
                  report::fmt_percent(100.0 * result.goodput_ckpt, 2)});
    (machine == data::Machine::kTsubame2 ? goodput_t2 : goodput_t3) = result.goodput_no_ckpt;
  }
  std::printf("%s\n", jobs.render().c_str());

  report::ComparisonSet cmp_jobs("job-impact headlines");
  cmp_jobs.add("T3 goodput exceeds T2 goodput", 1.0, goodput_t3 > goodput_t2 ? 1.0 : 0.0, 0.01,
               "bool");
  bench::print_comparisons(cmp_jobs);
  return bench::exit_code();
}
