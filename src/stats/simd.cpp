#include "stats/simd.h"

#include "stats/simd_internal.h"
#include "util/simd.h"

namespace tsufail::stats::simd {
namespace {

void scalar_xoshiro_fill(XoshiroState& state, std::uint64_t n, std::uint64_t threshold,
                         std::size_t count, std::uint32_t* const* outs) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
      const std::uint64_t x = detail::xoshiro_step_lane(state, lane);
      outs[lane][i] = detail::lemire_finish_lane(state, lane, x, n, threshold);
    }
  }
}

}  // namespace

void XoshiroLanes::fill_indices(std::uint64_t n, std::size_t count,
                                std::uint32_t* const outs[kLanes]) noexcept {
  // Lemire rejection threshold (2^64 - n) mod n, hoisted out of the fill
  // loop (Rng::uniform_index derives the same value lazily per draw).
  const std::uint64_t threshold = (~n + 1) % n;
  detail::XoshiroFill fill = scalar_xoshiro_fill;
  if (tsufail::simd::active_level() == tsufail::simd::Level::kAvx2) {
    if (const detail::XoshiroFill avx2 = detail::avx2_xoshiro_kernel()) fill = avx2;
  }
  fill(state_, n, threshold, count, outs);
}

}  // namespace tsufail::stats::simd
