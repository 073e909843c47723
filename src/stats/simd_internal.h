// Internal wiring between XoshiroLanes::fill_indices (simd.cpp) and the
// separately-compiled AVX2 translation unit (simd_avx2.cpp, built with
// -mavx2 when the compiler supports it).  Not installed; include only
// from those two files.
#pragma once

#include "stats/simd.h"

namespace tsufail::stats::simd::detail {

/// Advances the four lanes of `state` `count` steps each, writing
/// Lemire-bounded indices; `threshold` = (2^64 - n) % n precomputed by
/// the caller.
using XoshiroFill = void (*)(XoshiroState& state, std::uint64_t n, std::uint64_t threshold,
                             std::size_t count, std::uint32_t* const* outs) noexcept;

/// The AVX2 fill kernel, or nullptr when this binary was compiled
/// without AVX2 support.
XoshiroFill avx2_xoshiro_kernel() noexcept;

/// One scalar xoshiro256** step on column `lane` of the word-major state
/// block.  Shared by the scalar fill kernel and the AVX2 TU's rare
/// Lemire-rejection path, so both advance lanes identically.
inline std::uint64_t xoshiro_step_lane(XoshiroState& state, std::size_t lane) noexcept {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  auto& s = state.words;
  const std::uint64_t result = rotl(s[1][lane] * 5, 7) * 9;
  const std::uint64_t t = s[1][lane] << 17;
  s[2][lane] ^= s[0][lane];
  s[3][lane] ^= s[1][lane];
  s[1][lane] ^= s[2][lane];
  s[0][lane] ^= s[3][lane];
  s[2][lane] ^= t;
  s[3][lane] = rotl(s[3][lane], 45);
  return result;
}

/// Finishes one Lemire draw for `lane` given its first raw draw `x`:
/// returns the bounded index, redrawing the lane scalar-wise while the
/// low half rejects.  Bit-identical to Rng::uniform_index.
inline std::uint32_t lemire_finish_lane(XoshiroState& state, std::size_t lane,
                                        std::uint64_t x, std::uint64_t n,
                                        std::uint64_t threshold) noexcept {
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t low = static_cast<std::uint64_t>(m);
  while (low < threshold) [[unlikely]] {
    x = xoshiro_step_lane(state, lane);
    m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    low = static_cast<std::uint64_t>(m);
  }
  return static_cast<std::uint32_t>(m >> 64);
}

}  // namespace tsufail::stats::simd::detail
