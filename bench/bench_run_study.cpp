// End-to-end run_study throughput: the log form, which builds the log's
// LogIndex and runs the twelve analyses over it on the worker pool,
// serial and parallel, on generated Tsubame-2/3 logs at 1x/10x/100x the
// paper's failure counts.  Emits the standard google-benchmark output
// (pass --benchmark_format=json for machine-readable results).  The
// parallel dispatch only helps with >1 hardware thread, where the
// critical path (the index build, which precedes the analyses, plus the
// longest single analysis) bounds the speedup over the serial study.
//
// After the google-benchmark suite, main() gates the tsufail::obs dormant
// overhead (DESIGN.md section 12): with instrumentation disabled at
// runtime, the per-site cost (one relaxed load + branch) times the number
// of instrumented sites a study hits must stay under 1% of the study's
// wall time.  The verdict is asserted through the ComparisonSet exit code
// and recorded in BENCH_run_study.json together with the traced per-span
// breakdown.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>

#include "analysis/study.h"
#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace {

using namespace tsufail;

constexpr std::uint64_t kSeed = 20210607;  // the repo-wide bench seed

// One generated log per (machine, scale), cached across benchmark
// repetitions so generation cost never leaks into the timings.
const data::FailureLog& corpus(data::Machine machine, std::int64_t scale) {
  static std::map<std::pair<int, std::int64_t>, data::FailureLog> cache;
  const auto key = std::make_pair(static_cast<int>(machine), scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto model = machine == data::Machine::kTsubame2 ? sim::tsubame2_model()
                                                     : sim::tsubame3_model();
    model.total_failures *= static_cast<std::size_t>(scale);
    it = cache.emplace(key, sim::generate_log(model, kSeed).value()).first;
  }
  return it->second;
}

data::Machine machine_of(const benchmark::State& state) {
  return state.range(0) == 2 ? data::Machine::kTsubame2 : data::Machine::kTsubame3;
}

void BM_StudySerial(benchmark::State& state) {
  const auto& log = corpus(machine_of(state), state.range(1));
  for (auto _ : state) {
    auto study = analysis::run_study(log, analysis::StudyOptions{1});
    benchmark::DoNotOptimize(study);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.size()));
}

void BM_StudyParallel(benchmark::State& state) {
  const auto& log = corpus(machine_of(state), state.range(1));
  for (auto _ : state) {
    auto study = analysis::run_study(log, analysis::StudyOptions{0});
    benchmark::DoNotOptimize(study);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.size()));
}

// Args: {machine (2 or 3), scale over the paper's failure count}.
void study_args(benchmark::internal::Benchmark* bench) {
  for (std::int64_t machine : {2, 3}) {
    for (std::int64_t scale : {1, 10, 100}) bench->Args({machine, scale});
  }
}

BENCHMARK(BM_StudySerial)->Apply(study_args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StudyParallel)->Apply(study_args)->Unit(benchmark::kMillisecond);

// One instrumented site, in a non-inlinable shape: the same dormant cost
// every OBS_SPAN / counter-add pays while obs is disabled.
__attribute__((noinline)) void dormant_site(obs::Counter& counter) {
  OBS_SPAN("bench.dormant");
  counter.add();
}

/// Fraction of a disabled serial study's wall time attributable to the
/// dormant instrumentation, measured as
///   sites_per_study * dormant_ns_per_site / study_wall_ns.
/// Site count comes from one traced run (each span or counter update is
/// one site); per-site cost from a tight microbench loop.
double measure_dormant_overhead(bench::PerfJson& perf) {
  const auto& log = corpus(data::Machine::kTsubame3, 1);

  // 1. Disabled study wall time (best of 3, to shed warm-up noise).
  obs::set_enabled(false);
  std::uint64_t study_ns = ~std::uint64_t{0};
  for (int repeat = 0; repeat < 3; ++repeat) {
    const obs::Stopwatch watch;
    auto study = analysis::run_study(log, analysis::StudyOptions{1});
    benchmark::DoNotOptimize(study);
    study_ns = std::min(study_ns, watch.elapsed_ns());
  }

  // 2. Instrumented sites a study hits in one traced run: the spans
  //    recorded plus one update per counter, since the study updates each
  //    counter registered here once.  A counter's value sums what its
  //    updates add (index.records adds the record count in one update),
  //    so it does not count them.
  obs::reset_trace();
  obs::reset_metrics();
  obs::set_enabled(true);
  benchmark::DoNotOptimize(analysis::run_study(log, analysis::StudyOptions{1}));
  obs::set_enabled(false);
  const auto trace = obs::collect_trace();
  const auto metrics = obs::collect_metrics();
  const std::uint64_t sites = trace.span_count() + metrics.counters.size();

  // 3. Dormant per-site cost.
  static obs::Counter dormant_counter = obs::counter("bench.dormant_site");
  constexpr std::uint64_t kIterations = 2'000'000;
  const obs::Stopwatch watch;
  for (std::uint64_t i = 0; i < kIterations; ++i) dormant_site(dormant_counter);
  const double site_ns = static_cast<double>(watch.elapsed_ns()) / kIterations;

  const double overhead =
      static_cast<double>(sites) * site_ns / static_cast<double>(study_ns);
  perf.set("study_wall_s", static_cast<double>(study_ns) * 1e-9);
  perf.set("sites_per_study", static_cast<std::int64_t>(sites));
  perf.set("dormant_ns_per_site", site_ns);
  perf.set("dormant_overhead_fraction", overhead);

  // The traced study also feeds the per-span breakdown.
  bench::add_span_aggregates(perf, obs::profile(trace));
  return overhead;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::PerfJson perf("run_study");
  const double overhead = measure_dormant_overhead(perf);
  std::printf("\nobs dormant overhead: %.4f%% of a serial study (budget 1%%)\n",
              100.0 * overhead);

  report::ComparisonSet cmp("obs overhead contract (DESIGN.md section 12)");
  cmp.add("dormant obs overhead under 1% of a study run (1 = yes)", 1.0,
          overhead < 0.01 ? 1.0 : 0.0, 0.0);
  bench::print_comparisons(cmp);
  perf.write();
  return bench::exit_code();
}
