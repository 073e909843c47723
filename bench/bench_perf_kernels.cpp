// google-benchmark microbenchmarks of the analysis kernels, so downstream
// users know the cost of running the study over much larger logs than
// Tsubame's (multi-year exascale logs reach millions of records).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "analysis/study.h"
#include "data/log_io.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "stats/ecdf.h"
#include "stats/fit.h"
#include "stats/kernels.h"
#include "stats/simd.h"
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

void BM_AdjacentDeltas(benchmark::State& state) {
  auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  std::sort(sample.begin(), sample.end());
  for (auto _ : state) {
    auto deltas = stats::adjacent_deltas(sample);
    benchmark::DoNotOptimize(deltas.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AdjacentDeltas)->Range(1 << 10, 1 << 20);

void BM_Gather(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sample = random_sample(n);
  Rng rng(99);
  std::vector<std::uint32_t> indices(n);
  for (auto& i : indices) i = static_cast<std::uint32_t>(rng.uniform_index(n));
  std::vector<double> out(n);
  for (auto _ : state) {
    stats::gather_into(sample, indices, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Gather)->Range(1 << 10, 1 << 20);

void BM_KsDistanceSorted(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = random_sample(n);
  auto b = random_sample(n + n / 3);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_distance_sorted(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KsDistanceSorted)->Range(1 << 10, 1 << 20);

// --- Per-dispatch-level kernel benches ---------------------------------
//
// range(1) selects the stats::simd dispatch level (0 scalar, 1 SSE2,
// 2 AVX2, clamped to what this host supports), timing one level's kernel
// table directly without flipping the process-wide dispatch.

int max_level() { return static_cast<int>(stats::simd::supported_level()); }

void BM_UpperBoundManyLevel(benchmark::State& state) {
  const auto& kernels =
      stats::simd::numeric_kernels(static_cast<stats::simd::Level>(state.range(1)));
  auto sorted = random_sample(static_cast<std::size_t>(state.range(0)));
  std::sort(sorted.begin(), sorted.end());
  const auto queries = random_sample(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> counts(queries.size());
  for (auto _ : state) {
    kernels.upper_bound_many(sorted.data(), sorted.size(), queries.data(), queries.size(),
                             counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UpperBoundManyLevel)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18},
                   benchmark::CreateDenseRange(0, max_level(), 1)});

void BM_XoshiroFillLevel(benchmark::State& state) {
  const auto& kernels =
      stats::simd::numeric_kernels(static_cast<stats::simd::Level>(state.range(1)));
  constexpr std::size_t kCount = 1 << 14;
  const Rng parent(17);
  stats::simd::XoshiroLanes lanes(parent, 0);
  std::vector<std::uint32_t> buffers[stats::simd::XoshiroLanes::kLanes];
  std::uint32_t* outs[stats::simd::XoshiroLanes::kLanes];
  for (std::size_t lane = 0; lane < stats::simd::XoshiroLanes::kLanes; ++lane) {
    buffers[lane].resize(kCount);
    outs[lane] = buffers[lane].data();
  }
  stats::simd::XoshiroState st;
  for (std::size_t lane = 0; lane < stats::simd::XoshiroLanes::kLanes; ++lane) {
    const auto words = lanes.lane_state(lane);
    for (std::size_t word = 0; word < 4; ++word) st.words[word][lane] = words[word];
  }
  for (auto _ : state) {
    kernels.xoshiro_fill(st, 897, (~std::uint64_t{897} + 1) % 897, kCount, outs);
    benchmark::DoNotOptimize(outs[0]);
  }
  state.SetItemsProcessed(state.iterations() * kCount * stats::simd::XoshiroLanes::kLanes);
}
BENCHMARK(BM_XoshiroFillLevel)
    ->ArgsProduct({{0}, benchmark::CreateDenseRange(0, max_level(), 1)});

void BM_EcdfEvaluateMany(benchmark::State& state) {
  const auto sample = random_sample(static_cast<std::size_t>(state.range(0)));
  const auto ecdf = stats::Ecdf::create(sample).value();
  const auto queries = random_sample(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(queries.size());
  for (auto _ : state) {
    ecdf.evaluate_many(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EcdfEvaluateMany)->Range(1 << 10, 1 << 20);

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

void BM_FullStudy(benchmark::State& state) {
  const auto log = sim::generate_log(sim::tsubame2_model(), 1).value();
  for (auto _ : state) {
    auto study = analysis::run_study(log);
    benchmark::DoNotOptimize(study);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_FullStudy);

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

void BM_ScaledSyntheticStudy(benchmark::State& state) {
  // Study cost on logs far larger than Tsubame's (scaled synthetic fleet).
  auto model = sim::tsubame3_model();
  model.total_failures = static_cast<std::size_t>(state.range(0));
  const auto log = sim::generate_log(model, 1).value();
  for (auto _ : state) {
    auto study = analysis::run_study(log);
    benchmark::DoNotOptimize(study);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScaledSyntheticStudy)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
