// google-benchmark microbenchmarks of the analysis-level kernels: the sort
// crossover that places stats::kRadixSortCutoff, family selection, the
// ECDF, the Weibull fit, log generation and the CSV round trip.  The SIMD
// kernels are timed (and byte-compared at every dispatch level) by
// bench_kernels, and the whole study at 1x/10x/100x scale by
// bench_run_study.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "stats/ecdf.h"
#include "stats/fit.h"
#include "stats/kernels.h"
#include "util/rng.h"

namespace {

using namespace tsufail;

std::vector<double> random_sample(std::size_t n) {
  Rng rng(42);
  std::vector<double> sample(n);
  for (auto& x : sample) x = rng.lognormal(3.0, 1.2);
  return sample;
}

/// TTR-like: recorded to 4 decimals over a narrow range, so most repeat.
std::vector<double> four_decimal_sample(std::size_t n) {
  Rng rng(42);
  std::vector<double> sample(n);
  for (auto& x : sample) x = std::round(rng.lognormal(-3.0, 0.8) * 1e4) / 1e4;
  return sample;
}

/// range(0) values, lognormal (range(1) == 0) or 4-decimal tie-heavy
/// (range(1) == 1).
std::vector<double> sort_input(const benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  return state.range(1) == 0 ? random_sample(n) : four_decimal_sample(n);
}

// The sort benches copy the unsorted sample into the buffer every
// iteration (the same cost for each), then sort it.  BM_RadixSort against
// BM_StdSort places stats::kRadixSortCutoff; BM_SortAscending is what
// callers get on either side of it.
template <typename Sort>
void time_sort(benchmark::State& state, Sort&& sort) {
  const auto sample = sort_input(state);
  std::vector<double> buffer(sample.size());
  for (auto _ : state) {
    std::copy(sample.begin(), sample.end(), buffer.begin());
    sort(buffer);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StdSort(benchmark::State& state) {
  time_sort(state, [](std::vector<double>& v) { std::sort(v.begin(), v.end()); });
}
void BM_RadixSort(benchmark::State& state) {
  time_sort(state, [](std::vector<double>& v) { stats::radix_sort_ascending(v); });
}
void BM_SortAscending(benchmark::State& state) {
  time_sort(state, [](std::vector<double>& v) { stats::sort_ascending(v); });
}
const std::vector<std::vector<std::int64_t>> kSortArgs = {
    benchmark::CreateRange(1 << 10, 1 << 20, 2), {0, 1}};
BENCHMARK(BM_StdSort)->ArgsProduct(kSortArgs);
BENCHMARK(BM_RadixSort)->ArgsProduct(kSortArgs);
BENCHMARK(BM_SortAscending)->ArgsProduct(kSortArgs);

void BM_SelectFamily(benchmark::State& state) {
  // The positive, ascending sample the TBF/TTR analyses hand over.
  auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  stats::sort_ascending(sample);
  for (auto _ : state) {
    auto choice = stats::select_family(sample);
    benchmark::DoNotOptimize(choice);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectFamily)->Range(1 << 10, 1 << 20)->Unit(benchmark::kMillisecond);

void BM_EcdfBuild(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto ecdf = stats::Ecdf::create(sample);
    benchmark::DoNotOptimize(ecdf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EcdfBuild)->Range(1 << 10, 1 << 20);

void BM_QuantileSweep(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  const auto ecdf = stats::Ecdf::create(sample).value();
  for (auto _ : state) {
    for (double q = 0.01; q < 1.0; q += 0.01) {
      benchmark::DoNotOptimize(ecdf.quantile(q).value());
    }
  }
}
BENCHMARK(BM_QuantileSweep)->Range(1 << 10, 1 << 20);

void BM_WeibullFit(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> sample(static_cast<std::size_t>(state.range(0)));
  for (auto& x : sample) x = rng.weibull(0.9, 30.0);
  for (auto _ : state) {
    auto fit = stats::fit_weibull(sample);
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WeibullFit)->Range(1 << 10, 1 << 17);

void BM_GenerateTsubame2Log(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto log = sim::generate_log(sim::tsubame2_model(), ++seed);
    benchmark::DoNotOptimize(log);
  }
  state.SetItemsProcessed(state.iterations() * 897);
}
BENCHMARK(BM_GenerateTsubame2Log);

void BM_CsvRoundTrip(benchmark::State& state) {
  const auto log = sim::generate_log(sim::tsubame3_model(), 1).value();
  for (auto _ : state) {
    const std::string csv = data::write_log_csv(log);
    auto parsed = data::read_log_csv(csv);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_CsvRoundTrip);

}  // namespace

BENCHMARK_MAIN();
