// Dispatch-equivalence suite for the SIMD engine, plus the plain-loop
// kernels beside it.
//
// The engine's contract is BIT-IDENTICAL output at every dispatch level
// this host supports.  The xoshiro fill and the byte scans run through
// every level on adversarial inputs — lengths straddling the 32-byte
// blocks, every start offset, n near a power of two — and are compared
// against their scalar semantics; on a non-AVX2 host only the scalar
// level runs.  adjacent_deltas and gather have one implementation, which
// is compared bytewise against the naive expression on NaN/inf,
// denormals, signed zeros and unaligned sub-slices.
#include "stats/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "stats/bootstrap.h"
#include "stats/kernels.h"
#include "util/rng.h"
#include "util/simd.h"

namespace tsufail::stats {
namespace {

namespace dispatch = tsufail::simd;
using dispatch::Level;
using simd::XoshiroLanes;

std::vector<Level> levels() { return dispatch::available_levels(); }

std::string level_tag(Level level) { return std::string(dispatch::level_name(level)); }

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

/// Lengths that straddle 2- and 4-lane vector widths plus the 16- and
/// 32-byte scan blocks.
const std::size_t kBoundaryLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                        31, 32, 33, 63, 64, 65, 127, 128, 129, 1000};

template <typename T>
void expect_bytes_equal(const std::vector<T>& got, const std::vector<T>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  // Empty vectors may hold null data pointers, which memcmp must not see.
  if (want.empty()) return;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(T)))
      << what << ": output differs";
}

TEST(SimdDispatch, LevelParsingRoundTrips) {
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    Level parsed;
    ASSERT_TRUE(dispatch::parse_level(dispatch::level_name(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  Level parsed = Level::kScalar;
  EXPECT_FALSE(dispatch::parse_level("sse2", parsed));
  EXPECT_FALSE(dispatch::parse_level("avx512", parsed));
  EXPECT_FALSE(dispatch::parse_level("", parsed));
  EXPECT_EQ(parsed, Level::kScalar);
}

TEST(SimdDispatch, SetActiveLevelClampsToSupported) {
  const Level before = dispatch::active_level();
  const Level applied = dispatch::set_active_level(Level::kAvx2);
  EXPECT_LE(applied, dispatch::supported_level());
  EXPECT_EQ(applied, dispatch::active_level());
  dispatch::set_active_level(before);
}

TEST(SimdEquivalence, AdjacentDeltasAllLevelsAllLengths) {
  for (const std::size_t n : kBoundaryLengths) {
    const auto values = adversarial_values(n, 100 + n);
    std::vector<double> want;
    for (std::size_t i = 0; i + 1 < n; ++i) want.push_back(values[i + 1] - values[i]);
    expect_bytes_equal(adjacent_deltas(values), want, "adjacent_deltas n=" + std::to_string(n));
  }
}

TEST(SimdEquivalence, AdjacentDeltasUnalignedSlices) {
  const auto values = adversarial_values(256, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::span<const double> slice(values.data() + offset, 101);
    std::vector<double> want(100);
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = slice[i + 1] - slice[i];
    expect_bytes_equal(adjacent_deltas(slice), want,
                       "adjacent_deltas offset=" + std::to_string(offset));
  }
}

TEST(SimdEquivalence, GatherAllLevelsAllLengths) {
  const auto values = adversarial_values(512, 11);
  Rng rng(3);
  for (const std::size_t n : kBoundaryLengths) {
    std::vector<std::uint32_t> indices(n);
    for (auto& i : indices) i = static_cast<std::uint32_t>(rng.uniform_index(values.size()));
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = values[indices[i]];
    expect_bytes_equal(gather(values, indices), want, "gather n=" + std::to_string(n));
    // Into an unaligned sub-slice of a larger buffer, leaving its
    // neighbours untouched.
    std::vector<double> buffer(n + 2, -99.0);
    gather_into(values, indices, std::span<double>(buffer).subspan(1, n));
    expect_bytes_equal(std::vector<double>(buffer.begin() + 1, buffer.end() - 1), want,
                       "gather_into n=" + std::to_string(n));
    EXPECT_EQ(buffer.front(), -99.0);
    EXPECT_EQ(buffer.back(), -99.0);
  }
}

TEST(SimdEquivalence, XoshiroLanesMatchScalarForkStreams) {
  // Each lane's draw sequence must equal Rng::uniform_index on the
  // matching fork, for n == 1 (threshold 0) up to n near 2^31.  A Lemire
  // rejection comes less than once per 2^32 draws at any such n, so no
  // draw here takes the redraw path.  Two fills in a row check that the
  // state carries over between calls.
  const Level before = dispatch::active_level();
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{897}, (std::uint64_t{1} << 33) / 3}) {
    const Rng parent(1234 + n);
    constexpr std::size_t kCount = 300;
    constexpr std::size_t kFirst = 123;
    std::uint32_t expected[XoshiroLanes::kLanes][kCount];
    for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
      Rng fork = parent.fork(10 + lane);
      for (std::size_t i = 0; i < kCount; ++i)
        expected[lane][i] = static_cast<std::uint32_t>(fork.uniform_index(n));
    }
    for (const Level level : levels()) {
      dispatch::set_active_level(level);
      XoshiroLanes lanes(parent, 10);
      std::vector<std::uint32_t> buffers[XoshiroLanes::kLanes];
      std::uint32_t* outs[XoshiroLanes::kLanes];
      for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
        buffers[lane].assign(kCount, 0);
        outs[lane] = buffers[lane].data();
      }
      lanes.fill_indices(n, kFirst, outs);
      for (auto& out : outs) out += kFirst;
      lanes.fill_indices(n, kCount - kFirst, outs);
      for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
        for (std::size_t i = 0; i < kCount; ++i) {
          ASSERT_EQ(buffers[lane][i], expected[lane][i])
              << "n=" << n << " lane=" << lane << " draw=" << i
              << " level=" << level_tag(level);
        }
      }
    }
  }
  dispatch::set_active_level(before);
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
      const auto& kernels = dispatch::byte_kernels(level);
      // Raw kernels return the offset into the slice, with slice-length
      // meaning "not found".  Probing every start position covers all
      // head/tail alignments of the 32-byte blocks.
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

TEST(SimdEquivalence, BootstrapCiBitIdenticalAcrossLevels) {
  const auto sample = adversarial_sorted(97, 33);
  const Level before = dispatch::active_level();
  dispatch::set_active_level(Level::kScalar);
  Rng rng_scalar(2024);
  const auto want = bootstrap_mean_ci(sample, rng_scalar, 500).value();
  for (const Level level : levels()) {
    dispatch::set_active_level(level);
    Rng rng(2024);
    const auto got = bootstrap_mean_ci(sample, rng, 500).value();
    EXPECT_EQ(0, std::memcmp(&got.low, &want.low, sizeof got.low)) << level_tag(level);
    EXPECT_EQ(0, std::memcmp(&got.high, &want.high, sizeof got.high)) << level_tag(level);
    EXPECT_EQ(0, std::memcmp(&got.point, &want.point, sizeof got.point)) << level_tag(level);
  }
  dispatch::set_active_level(before);
}

}  // namespace
}  // namespace tsufail::stats
