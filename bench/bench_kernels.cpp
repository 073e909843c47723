// Throughput and bit-identity sweep of the kernels that have an AVX2
// version: the 4-lane xoshiro fill behind bootstrap resampling and the
// byte scan behind the CSV tokenizer and the serve line framer.
//
// For every dispatch level this build supports (scalar, then AVX2 when
// available) it times each kernel on a fixed workload, reports
// single-core elements/s and the speedup over scalar, and bit-compares
// every output buffer against the scalar run.  Results land in
// BENCH_kernels.json (uploaded by the bench-smoke CI job), so the kernel
// perf trajectory and the determinism contract are both tracked across
// commits.  Exit code is non-zero if any level's output is not
// byte-identical to scalar.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/obs.h"
#include "stats/simd.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace tsufail;
using stats::simd::XoshiroLanes;

constexpr std::size_t kRngDrawsPerLane = std::size_t{1} << 14;
constexpr std::size_t kTextBytes = std::size_t{1} << 20;
constexpr double kMinSeconds = 0.15;

/// Runs `body` until kMinSeconds elapse and returns elements/second,
/// where one call to `body` processes `elems` elements.
double time_elems_per_s(std::size_t elems, const std::function<void()>& body) {
  // Warm-up pass (page faults, branch predictors) outside the timer.
  body();
  obs::Stopwatch timer;
  std::size_t iterations = 0;
  do {
    body();
    ++iterations;
  } while (timer.seconds() < kMinSeconds);
  const double seconds = timer.seconds();
  return seconds > 0.0
             ? static_cast<double>(iterations) * static_cast<double>(elems) / seconds
             : 0.0;
}

struct KernelResult {
  double elems_per_s = 0.0;
  std::vector<unsigned char> output;  // raw bytes, for identity checks
};

template <typename T>
void capture(std::vector<unsigned char>& sink, const std::vector<T>& buffer) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer.data());
  sink.insert(sink.end(), bytes, bytes + buffer.size() * sizeof(T));
}

}  // namespace

int main() {
  bench::print_banner("kernel throughput: simd dispatch levels",
                      "engineering baseline (bootstrap CIs, CSV and serve ingest)");

  // Fixed workload shared by every level.
  std::string text;
  text.reserve(kTextBytes);
  {
    Rng rng(5);
    while (text.size() < kTextBytes) {
      const std::size_t len = 20 + rng.uniform_index(80);
      for (std::size_t i = 0; i < len; ++i)
        text += static_cast<char>('a' + rng.uniform_index(26));
      text += '\n';
    }
  }

  const struct {
    const char* name;
    std::size_t elems;
  } kKernels[] = {
      {"xoshiro_fill", kRngDrawsPerLane * XoshiroLanes::kLanes},
      {"byte_scan", kTextBytes},
  };
  constexpr std::size_t kKernelCount = sizeof kKernels / sizeof kKernels[0];

  const simd::Level initial = simd::active_level();
  const std::vector<simd::Level> levels = simd::available_levels();
  // results[level][kernel]
  std::vector<std::vector<KernelResult>> results;

  for (const simd::Level level : levels) {
    simd::set_active_level(level);
    std::vector<KernelResult> row(kKernelCount);

    {
      const Rng parent(std::uint64_t{1} << 16);
      std::vector<std::uint32_t> lanes_out[XoshiroLanes::kLanes];
      std::uint32_t* outs[XoshiroLanes::kLanes];
      for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
        lanes_out[lane].resize(kRngDrawsPerLane);
        outs[lane] = lanes_out[lane].data();
      }
      row[0].elems_per_s = time_elems_per_s(kKernels[0].elems, [&] {
        // Fresh engine per rep so every rep (and every level) draws the
        // same stream prefix.
        XoshiroLanes lanes(parent, 0);
        lanes.fill_indices(897, kRngDrawsPerLane, outs);
      });
      for (const auto& lane : lanes_out) capture(row[0].output, lane);
    }

    {
      std::uint64_t newline_count = 0;
      row[1].elems_per_s = time_elems_per_s(kKernels[1].elems, [&] {
        newline_count = 0;
        std::size_t pos = 0;
        while ((pos = simd::find_byte(text, '\n', pos)) != std::string::npos) {
          ++newline_count;
          ++pos;
        }
      });
      capture(row[1].output,
              std::vector<std::uint64_t>{newline_count, simd::count_byte(text, '\n')});
    }

    results.push_back(std::move(row));
  }
  simd::set_active_level(initial);

  bench::PerfJson perf("kernels");
  bool all_identical = true;
  std::printf("%-16s %-8s %14s %10s %s\n", "kernel", "level", "elems/s", "speedup", "identical");
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    const double scalar_rate = results[0][k].elems_per_s;
    bool kernel_identical = true;
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const std::string level(simd::level_name(levels[li]));
      const KernelResult& r = results[li][k];
      const bool identical = r.output == results[0][k].output;
      kernel_identical = kernel_identical && identical;
      const double speedup = scalar_rate > 0.0 ? r.elems_per_s / scalar_rate : 0.0;
      std::printf("%-16s %-8s %14.3e %9.2fx %s\n", kKernels[k].name, level.c_str(),
                  r.elems_per_s, speedup, identical ? "yes" : "NO");
      perf.set(std::string(kKernels[k].name) + "_" + level + "_elems_per_s", r.elems_per_s);
      if (li > 0)
        perf.set(std::string(kKernels[k].name) + "_" + level + "_speedup_x", speedup);
    }
    perf.set(std::string(kKernels[k].name) + "_identical",
             static_cast<std::int64_t>(kernel_identical ? 1 : 0));
    all_identical = all_identical && kernel_identical;
  }
  perf.set("all_levels_identical", static_cast<std::int64_t>(all_identical ? 1 : 0));
  perf.write();

  std::printf("\noutputs %s across levels\n",
              all_identical ? "byte-identical" : "NOT BYTE-IDENTICAL");
  return all_identical ? 0 : 1;
}
