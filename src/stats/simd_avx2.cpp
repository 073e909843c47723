// The AVX2 xoshiro fill of stats::simd.  Compiled with -mavx2 when the
// compiler supports it (see stats/CMakeLists.txt); the #if keeps the TU a
// null hook on other targets so the build stays portable.  The kernel is
// bit-identical to the scalar fill in simd.cpp.
#include "stats/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace tsufail::stats::simd {
namespace {

inline __m256i rotl64(__m256i v, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(v, k), _mm256_srli_epi64(v, 64 - k));
}

void avx2_xoshiro_fill(XoshiroState& state, std::uint64_t n, std::uint64_t threshold,
                       std::size_t count, std::uint32_t* const* outs) noexcept {
  // All four streams advance in lockstep in registers; the rare Lemire
  // rejection flushes state to memory, redraws the rejecting lane(s) with
  // the shared scalar step (so redraw sequences match the scalar engine
  // exactly), and reloads.
  __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[0]));
  __m256i s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[1]));
  __m256i s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[2]));
  __m256i s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[3]));
  alignas(32) std::uint64_t draws[XoshiroLanes::kLanes];
  for (std::size_t i = 0; i < count; ++i) {
    // result = rotl(s1 * 5, 7) * 9 — the multiplies strength-reduce to
    // shift-adds (no 64-bit vector multiply in AVX2).
    const __m256i mul5 = _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
    const __m256i rot = rotl64(mul5, 7);
    const __m256i result = _mm256_add_epi64(rot, _mm256_slli_epi64(rot, 3));
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl64(s3, 45);
    _mm256_store_si256(reinterpret_cast<__m256i*>(draws), result);

    bool rejected = false;
    for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
      const auto mul =
          static_cast<__uint128_t>(draws[lane]) * static_cast<__uint128_t>(n);
      if (static_cast<std::uint64_t>(mul) < threshold) [[unlikely]] {
        rejected = true;
        break;
      }
      outs[lane][i] = static_cast<std::uint32_t>(mul >> 64);
    }
    if (rejected) [[unlikely]] {
      _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[0]), s0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[1]), s1);
      _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[2]), s2);
      _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[3]), s3);
      for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane)
        outs[lane][i] = detail::lemire_finish_lane(state, lane, draws[lane], n, threshold);
      s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[0]));
      s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[1]));
      s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[2]));
      s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(state.words[3]));
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[0]), s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[1]), s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[2]), s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(state.words[3]), s3);
}

}  // namespace

namespace detail {
XoshiroFill avx2_xoshiro_kernel() noexcept { return &avx2_xoshiro_fill; }
}  // namespace detail

}  // namespace tsufail::stats::simd

#else  // !__AVX2__

namespace tsufail::stats::simd::detail {
XoshiroFill avx2_xoshiro_kernel() noexcept { return nullptr; }
}  // namespace tsufail::stats::simd::detail

#endif
