// google-benchmark microbenchmarks of the analysis-level kernels a
// decision reads: the sort crossover that places stats::kRadixSortCutoff,
// and family selection, the floor of the TBF/TTR analyses.  The SIMD
// kernels are timed (and byte-compared at every dispatch level) by
// bench_kernels, and the whole study at 1x/10x/100x scale by
// bench_run_study.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

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
  // The positive, ascending sample the TBF/TTR analyses hand over: the
  // suffix past any zeros.
  auto sample = sort_input(state);
  stats::sort_ascending(sample);
  const std::span<const double> positive(
      std::upper_bound(sample.begin(), sample.end(), 0.0), sample.end());
  for (auto _ : state) {
    auto choice = stats::select_family(positive);
    benchmark::DoNotOptimize(choice);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// From paper scale (2^9; the presets' samples hold under ~900 values) to
// the 10^6-record log's.
BENCHMARK(BM_SelectFamily)
    ->ArgsProduct({{1 << 9, 1 << 10, 1 << 12, 1 << 15, 1 << 18, 1 << 20}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
