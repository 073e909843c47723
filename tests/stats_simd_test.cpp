// Dispatch-equivalence suite for the stats::simd kernel engine.
//
// The engine's contract is BIT-IDENTICAL output at every dispatch level
// this host supports.  Each test builds adversarial inputs — NaN/inf,
// denormals, empty and length-1 slices, lengths straddling the 2/4-lane
// boundaries, unaligned sub-slices, all-ties samples — runs every kernel
// through every level's table, and memcmp-compares against the scalar
// twin.  On a non-AVX2 host the AVX2 rows simply collapse onto the
// highest supported level, so the suite passes (trivially) everywhere.
#include "stats/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "stats/bootstrap.h"
#include "stats/ecdf.h"
#include "util/rng.h"

namespace tsufail::stats {
namespace {

namespace ssimd = tsufail::stats::simd;
using ssimd::Level;

std::vector<Level> levels() { return ssimd::available_levels(); }

std::string level_tag(Level level) { return std::string(ssimd::level_name(level)); }

/// Adversarial doubles: specials, denormals, signed zeros, plain values.
std::vector<double> adversarial_values(std::size_t n, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             1e-300,
                             -1e300};
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& x : out) {
    if (rng.uniform() < 0.25) {
      x = specials[rng.uniform_index(sizeof specials / sizeof specials[0])];
    } else {
      x = rng.normal(0.0, 1e3);
    }
  }
  return out;
}

/// Sorted sample without NaN (a sorted array precondition), but with
/// infinities, denormals, and long tie runs.
std::vector<double> adversarial_sorted(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    double v;
    const double roll = rng.uniform();
    if (roll < 0.1) {
      v = std::numeric_limits<double>::infinity() * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    } else if (roll < 0.2) {
      v = std::numeric_limits<double>::denorm_min() * static_cast<double>(rng.uniform_index(5));
    } else {
      v = rng.lognormal(2.0, 1.5);
    }
    // Tie runs: repeat ~half the values a few times.
    const std::size_t reps = rng.bernoulli(0.5) ? 1 + rng.uniform_index(4) : 1;
    for (std::size_t r = 0; r < reps && out.size() < n; ++r) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Lengths that straddle the SSE2 (2) and AVX2 (4) lane widths plus the
/// scan block sizes (16/32 bytes).
const std::size_t kBoundaryLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                        31, 32, 33, 63, 64, 65, 127, 128, 129, 1000};

template <typename T>
void expect_bytes_equal(const std::vector<T>& got, const std::vector<T>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  // Empty vectors may hold null data pointers, which memcmp must not see.
  if (want.empty()) return;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(T)))
      << what << ": output differs from scalar";
}

TEST(SimdDispatch, LevelParsingRoundTrips) {
  for (const Level level : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    Level parsed;
    ASSERT_TRUE(ssimd::parse_level(ssimd::level_name(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  Level parsed;
  EXPECT_FALSE(ssimd::parse_level("avx512", parsed));
  EXPECT_FALSE(ssimd::parse_level("", parsed));
}

TEST(SimdDispatch, SetActiveLevelClampsToSupported) {
  const Level before = ssimd::active_level();
  const Level applied = ssimd::set_active_level(Level::kAvx2);
  EXPECT_LE(static_cast<int>(applied), static_cast<int>(ssimd::supported_level()));
  EXPECT_EQ(applied, ssimd::active_level());
  ssimd::set_active_level(before);
}

TEST(SimdEquivalence, AdjacentDeltasAllLevelsAllLengths) {
  for (const std::size_t n : kBoundaryLengths) {
    if (n < 2) continue;
    const auto values = adversarial_values(n, 100 + n);
    std::vector<double> want(n - 1);
    ssimd::numeric_kernels(Level::kScalar).adjacent_deltas(values.data(), n - 1, want.data());
    for (const Level level : levels()) {
      std::vector<double> got(n - 1, -99.0);
      ssimd::numeric_kernels(level).adjacent_deltas(values.data(), n - 1, got.data());
      expect_bytes_equal(got, want, "adjacent_deltas n=" + std::to_string(n) +
                                        " level=" + level_tag(level));
    }
  }
}

TEST(SimdEquivalence, AdjacentDeltasUnalignedSlices) {
  const auto values = adversarial_values(256, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::span<const double> slice(values.data() + offset, 101);
    std::vector<double> want(100);
    ssimd::numeric_kernels(Level::kScalar).adjacent_deltas(slice.data(), 100, want.data());
    for (const Level level : levels()) {
      std::vector<double> got(100);
      ssimd::numeric_kernels(level).adjacent_deltas(slice.data(), 100, got.data());
      expect_bytes_equal(got, want, "adjacent_deltas offset=" + std::to_string(offset) +
                                        " level=" + level_tag(level));
    }
  }
}

TEST(SimdEquivalence, GatherAllLevelsAllLengths) {
  const auto values = adversarial_values(512, 11);
  Rng rng(3);
  for (const std::size_t n : kBoundaryLengths) {
    std::vector<std::uint32_t> indices(n);
    for (auto& i : indices) i = static_cast<std::uint32_t>(rng.uniform_index(values.size()));
    std::vector<double> want(n);
    ssimd::numeric_kernels(Level::kScalar)
        .gather_u32(values.data(), indices.data(), n, want.data());
    for (const Level level : levels()) {
      std::vector<double> got(n, -99.0);
      ssimd::numeric_kernels(level).gather_u32(values.data(), indices.data(), n, got.data());
      expect_bytes_equal(
          got, want, "gather n=" + std::to_string(n) + " level=" + level_tag(level));
    }
  }
}

TEST(SimdEquivalence, BoundsMatchStdAlgorithmsOnAdversarialQueries) {
  for (const std::size_t n : kBoundaryLengths) {
    const auto sorted = adversarial_sorted(n, 40 + n);
    // Queries: adversarial values (NaN included) plus every sample value
    // and its neighbors, so tie boundaries are probed exactly.
    auto queries = adversarial_values(64, 50 + n);
    for (const double v : sorted) {
      queries.push_back(v);
      queries.push_back(std::nextafter(v, -std::numeric_limits<double>::infinity()));
      queries.push_back(std::nextafter(v, std::numeric_limits<double>::infinity()));
    }
    const std::size_t m = queries.size();
    std::vector<std::uint32_t> want_ub(m), want_lb(m);
    for (std::size_t i = 0; i < m; ++i) {
      want_ub[i] = static_cast<std::uint32_t>(
          std::upper_bound(sorted.begin(), sorted.end(), queries[i]) - sorted.begin());
      want_lb[i] = static_cast<std::uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), queries[i]) - sorted.begin());
    }
    for (const Level level : levels()) {
      std::vector<std::uint32_t> got_ub(m, 9999), got_lb(m, 9999);
      ssimd::numeric_kernels(level).upper_bound_many(sorted.data(), sorted.size(),
                                                     queries.data(), m, got_ub.data());
      ssimd::numeric_kernels(level).lower_bound_many(sorted.data(), sorted.size(),
                                                     queries.data(), m, got_lb.data());
      expect_bytes_equal(got_ub, want_ub,
                         "upper_bound n=" + std::to_string(n) + " level=" + level_tag(level));
      expect_bytes_equal(got_lb, want_lb,
                         "lower_bound n=" + std::to_string(n) + " level=" + level_tag(level));
    }
  }
}

TEST(SimdEquivalence, CountsToFractionsAndQuantileIndices) {
  Rng rng(8);
  for (const std::size_t m : kBoundaryLengths) {
    std::vector<std::uint32_t> counts(m);
    for (auto& c : counts) c = static_cast<std::uint32_t>(rng.uniform_index(1u << 30));
    std::vector<double> qs(m);
    for (std::size_t i = 0; i < m; ++i)
      qs[i] = i % 7 == 0 ? 0.0 : (i % 7 == 1 ? 1.0 : rng.uniform());
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{897}}) {
      std::vector<double> want_frac(m);
      std::vector<std::uint32_t> want_rank(m);
      const auto& scalar = ssimd::numeric_kernels(Level::kScalar);
      scalar.counts_to_fractions(counts.data(), m, static_cast<double>(n), want_frac.data());
      scalar.quantile_indices(qs.data(), m, n, want_rank.data());
      for (const Level level : levels()) {
        std::vector<double> got_frac(m, -1.0);
        std::vector<std::uint32_t> got_rank(m, 9999);
        const auto& kernels = ssimd::numeric_kernels(level);
        kernels.counts_to_fractions(counts.data(), m, static_cast<double>(n), got_frac.data());
        kernels.quantile_indices(qs.data(), m, n, got_rank.data());
        expect_bytes_equal(got_frac, want_frac,
                           "counts_to_fractions m=" + std::to_string(m) +
                               " level=" + level_tag(level));
        expect_bytes_equal(got_rank, want_rank,
                           "quantile_indices m=" + std::to_string(m) + " n=" +
                               std::to_string(n) + " level=" + level_tag(level));
      }
    }
  }
}

TEST(SimdEquivalence, MaxAbsCdfGapMatchesScalar) {
  Rng rng(21);
  for (const std::size_t m : kBoundaryLengths) {
    std::vector<std::uint32_t> ca(m), cb(m);
    for (std::size_t i = 0; i < m; ++i) {
      ca[i] = static_cast<std::uint32_t>(rng.uniform_index(1000));
      cb[i] = static_cast<std::uint32_t>(rng.uniform_index(1400));
    }
    const double want = ssimd::numeric_kernels(Level::kScalar)
                            .max_abs_cdf_gap(ca.data(), cb.data(), m, 999.0, 1399.0);
    for (const Level level : levels()) {
      const double got = ssimd::numeric_kernels(level).max_abs_cdf_gap(ca.data(), cb.data(),
                                                                       m, 999.0, 1399.0);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
          << "max_abs_cdf_gap m=" << m << " level=" << level_tag(level);
    }
  }
}

TEST(SimdEquivalence, XoshiroLanesMatchScalarForkStreams) {
  // Each lane's draw sequence must equal Rng::uniform_index on the
  // matching fork — including n near a power of two (the high Lemire
  // rejection probability region) and n == 1 (threshold 0).
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{897}, (std::uint64_t{1} << 33) / 3}) {
    const Rng parent(1234 + n);
    constexpr std::size_t kCount = 300;
    std::uint32_t expected[ssimd::XoshiroLanes::kLanes][kCount];
    for (std::size_t lane = 0; lane < ssimd::XoshiroLanes::kLanes; ++lane) {
      Rng fork = parent.fork(10 + lane);
      for (std::size_t i = 0; i < kCount; ++i)
        expected[lane][i] = static_cast<std::uint32_t>(fork.uniform_index(n));
    }
    for (const Level level : levels()) {
      const auto& kernels = ssimd::numeric_kernels(level);
      ssimd::XoshiroLanes lanes(parent, 10);
      std::vector<std::uint32_t> buffers[ssimd::XoshiroLanes::kLanes];
      std::uint32_t* outs[ssimd::XoshiroLanes::kLanes];
      ssimd::XoshiroState state;
      for (std::size_t lane = 0; lane < ssimd::XoshiroLanes::kLanes; ++lane) {
        buffers[lane].assign(kCount, 0);
        outs[lane] = buffers[lane].data();
        const auto words = lanes.lane_state(lane);
        for (std::size_t word = 0; word < 4; ++word) state.words[word][lane] = words[word];
      }
      kernels.xoshiro_fill(state, n, (~n + 1) % n, kCount, outs);
      for (std::size_t lane = 0; lane < ssimd::XoshiroLanes::kLanes; ++lane) {
        for (std::size_t i = 0; i < kCount; ++i) {
          ASSERT_EQ(buffers[lane][i], expected[lane][i])
              << "n=" << n << " lane=" << lane << " draw=" << i
              << " level=" << level_tag(level);
        }
      }
    }
  }
}

TEST(SimdEquivalence, KsDistanceMatchesAcrossLevels) {
  const Level before = ssimd::active_level();
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{129}}) {
    const auto a = adversarial_sorted(n, 60 + n);
    const auto b = adversarial_sorted(n + 37, 70 + n);
    double want = 0.0;
    ssimd::set_active_level(Level::kScalar);
    want = ssimd::ks_distance_sorted(a, b);
    for (const Level level : levels()) {
      ssimd::set_active_level(level);
      const double got = ssimd::ks_distance_sorted(a, b);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
          << "ks n=" << n << " level=" << level_tag(level);
    }
  }
  ssimd::set_active_level(before);
  // All-ties degenerate samples.
  const std::vector<double> ties_a(64, 3.5), ties_b(17, 3.5);
  EXPECT_EQ(0.0, ssimd::ks_distance_sorted(ties_a, ties_b));
  EXPECT_EQ(0.0, ssimd::ks_distance_sorted(std::span<const double>{}, ties_b));
}

TEST(SimdEquivalence, ByteScanKernelsMatchFindSemantics) {
  Rng rng(5);
  for (const std::size_t n : kBoundaryLengths) {
    std::string text;
    for (std::size_t i = 0; i < n; ++i) {
      const double roll = rng.uniform();
      text += roll < 0.1 ? '\n' : (roll < 0.2 ? ',' : static_cast<char>(rng.uniform_index(256)));
    }
    for (const Level level : levels()) {
      const auto& kernels = tsufail::simd::byte_kernels(level);
      // Raw kernels return the offset into the slice, with slice-length
      // meaning "not found".  Probing every start position covers all
      // head/tail alignments of the 16/32-byte blocks.
      for (std::size_t pos = 0; pos <= n; ++pos) {
        const std::size_t len = text.size() - pos;
        const std::size_t hit = kernels.find_byte(text.data() + pos, len, '\n');
        const std::size_t got = hit == len ? std::string_view::npos : pos + hit;
        EXPECT_EQ(got, std::string_view(text).find('\n', pos))
            << "find_byte n=" << n << " pos=" << pos << " level=" << level_tag(level);

        const std::size_t block = std::min<std::size_t>(len, 64);
        std::uint64_t want4 = 0;
        for (std::size_t i = 0; i < block; ++i) {
          if (std::string_view(",\r\n\"").find(text[pos + i]) != std::string_view::npos)
            want4 |= std::uint64_t{1} << i;
        }
        EXPECT_EQ(kernels.mask_any_of4(text.data() + pos, block, ',', '\r', '\n', '"'), want4)
            << "mask_any_of4 n=" << n << " pos=" << pos << " level=" << level_tag(level);
      }
      EXPECT_EQ(kernels.count_byte(text.data(), text.size(), ','),
                static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')))
          << "count_byte n=" << n << " level=" << level_tag(level);
    }
  }
}

TEST(SimdEquivalence, EcdfBatchedApisMatchScalarLoops) {
  const auto sample = adversarial_sorted(257, 91);
  const auto ecdf = Ecdf::create(sample).value();
  auto queries = adversarial_values(300, 17);
  std::vector<double> qs;
  Rng rng(23);
  for (std::size_t i = 0; i < 100; ++i) qs.push_back(rng.uniform());
  qs.push_back(0.0);
  qs.push_back(1.0);

  const Level before = ssimd::active_level();
  for (const Level level : levels()) {
    ssimd::set_active_level(level);
    std::vector<double> many(queries.size());
    ecdf.evaluate_many(queries, many);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double one = ecdf.evaluate(queries[i]);
      ASSERT_EQ(0, std::memcmp(&many[i], &one, sizeof one))
          << "evaluate_many[" << i << "] level=" << level_tag(level);
    }
    const auto quantiles = ecdf.quantile_many(qs).value();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double one = ecdf.quantile(qs[i]).value();
      ASSERT_EQ(0, std::memcmp(&quantiles[i], &one, sizeof one))
          << "quantile_many[" << i << "] level=" << level_tag(level);
    }
  }
  ssimd::set_active_level(before);
  EXPECT_FALSE(ecdf.quantile_many(std::vector<double>{0.5, 1.5}).ok());
}

TEST(SimdEquivalence, BootstrapCiBitIdenticalAcrossLevels) {
  const auto sample = adversarial_sorted(97, 33);
  const Level before = ssimd::active_level();
  ssimd::set_active_level(Level::kScalar);
  Rng rng_scalar(2024);
  const auto want = bootstrap_mean_ci(sample, rng_scalar, 500).value();
  for (const Level level : levels()) {
    ssimd::set_active_level(level);
    Rng rng(2024);
    const auto got = bootstrap_mean_ci(sample, rng, 500).value();
    EXPECT_EQ(0, std::memcmp(&got.low, &want.low, sizeof got.low)) << level_tag(level);
    EXPECT_EQ(0, std::memcmp(&got.high, &want.high, sizeof got.high)) << level_tag(level);
    EXPECT_EQ(0, std::memcmp(&got.point, &want.point, sizeof got.point)) << level_tag(level);
  }
  ssimd::set_active_level(before);
}

}  // namespace
}  // namespace tsufail::stats
