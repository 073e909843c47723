// The AVX2 tier of stats::simd.  Compiled with -mavx2 when the compiler
// supports it (see stats/CMakeLists.txt); the #if keeps the TU an empty
// stub on other targets so the build stays portable.  Every kernel here
// is bit-identical to its scalar twin in simd.cpp — see the determinism
// notes on each one.
#include "stats/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

namespace tsufail::stats::simd {
namespace {

inline __m256i rotl64(__m256i v, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(v, k), _mm256_srli_epi64(v, 64 - k));
}

void avx2_adjacent_deltas(const double* in, std::size_t n_out, double* out) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n_out; i += 4) {
    const __m256d hi = _mm256_loadu_pd(in + i + 1);
    const __m256d lo = _mm256_loadu_pd(in + i);
    _mm256_storeu_pd(out + i, _mm256_sub_pd(hi, lo));
  }
  for (; i < n_out; ++i) out[i] = in[i + 1] - in[i];
}

void avx2_gather_u32(const double* values, const std::uint32_t* idx, std::size_t n,
                     double* out) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Four u32 indices; the wrapper guarantees every index < 2^31, so the
    // signed i32 gather reads the intended elements.
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    _mm256_storeu_pd(out + i, _mm256_i32gather_pd(values, vi, 8));
  }
  for (; i < n; ++i) out[i] = values[idx[i]];
}

/// Lane-parallel branchless search: finds, per query lane, the length of
/// the prefix of `sorted` satisfying a monotone predicate, by greedy
/// power-of-two descent from bit_floor(n).  Every lane runs the same
/// iteration count, so the loop has no per-lane control flow.  The count
/// is an exact integer — bit-identical to std::upper_bound/lower_bound by
/// construction (same predicate, same prefix).
template <int kCmpPredicate, bool kQueryFirst>
void avx2_bound_many(const double* sorted, std::size_t n, const double* xs, std::size_t m,
                     std::uint32_t* out) noexcept {
  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i one = _mm256_set1_epi64x(1);
  const std::uint64_t top = std::bit_floor(n);
  std::size_t q = 0;
  for (; q + 4 <= m; q += 4) {
    const __m256d x = _mm256_loadu_pd(xs + q);
    __m256i ub = _mm256_setzero_si256();
    for (std::uint64_t bit = top; bit > 0; bit >>= 1) {
      const __m256i vbit = _mm256_set1_epi64x(static_cast<long long>(bit));
      const __m256i next = _mm256_add_epi64(ub, vbit);
      const __m256i over = _mm256_cmpgt_epi64(next, vn);
      // Clamp the probe so the gather index stays in range for lanes that
      // are already past the end (their result is masked off below).
      const __m256i probe = _mm256_blendv_epi8(next, vn, over);
      const __m256d av =
          _mm256_i64gather_pd(sorted, _mm256_sub_epi64(probe, one), 8);
      const __m256d hit = kQueryFirst ? _mm256_cmp_pd(x, av, kCmpPredicate)
                                      : _mm256_cmp_pd(av, x, kCmpPredicate);
      const __m256i ok = _mm256_andnot_si256(over, _mm256_castpd_si256(hit));
      ub = _mm256_add_epi64(ub, _mm256_and_si256(ok, vbit));
    }
    alignas(32) long long counts[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts), ub);
    for (int lane = 0; lane < 4; ++lane)
      out[q + static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(counts[lane]);
  }
  for (; q < m; ++q) {
    if constexpr (kQueryFirst) {
      out[q] = static_cast<std::uint32_t>(std::upper_bound(sorted, sorted + n, xs[q]) - sorted);
    } else {
      out[q] = static_cast<std::uint32_t>(std::lower_bound(sorted, sorted + n, xs[q]) - sorted);
    }
  }
}

void avx2_upper_bound_many(const double* sorted, std::size_t n, const double* xs,
                           std::size_t m, std::uint32_t* out) noexcept {
  // upper_bound keeps growing while !(x < a[next-1]); NLT_UQ makes a NaN
  // query count the whole sample, exactly like std::upper_bound.
  avx2_bound_many<_CMP_NLT_UQ, true>(sorted, n, xs, m, out);
}

void avx2_lower_bound_many(const double* sorted, std::size_t n, const double* xs,
                           std::size_t m, std::uint32_t* out) noexcept {
  // lower_bound keeps growing while a[next-1] < x; LT_OQ makes a NaN
  // query count zero, exactly like std::lower_bound.
  avx2_bound_many<_CMP_LT_OQ, false>(sorted, n, xs, m, out);
}

void avx2_counts_to_fractions(const std::uint32_t* counts, std::size_t m, double n,
                              double* out) noexcept {
  const __m256d dn = _mm256_set1_pd(n);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i));
    // Counts < 2^31, so the signed i32 -> double conversion is exact, and
    // IEEE division is correctly rounded: bit-identical to the scalar.
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_cvtepi32_pd(raw), dn));
  }
  for (; i < m; ++i) out[i] = static_cast<double>(counts[i]) / n;
}

void avx2_quantile_indices(const double* qs, std::size_t m, std::size_t n,
                           std::uint32_t* out) noexcept {
  const auto dn = static_cast<double>(n);
  const auto scalar_one = [&](double qv) {
    auto rank = static_cast<std::size_t>(std::ceil(qv * dn));
    rank = std::min(rank, n);
    rank = std::max<std::size_t>(rank, 1);
    return static_cast<std::uint32_t>(rank - 1);
  };
  if (n > (std::size_t{1} << 31) - 1) {
    for (std::size_t i = 0; i < m; ++i) out[i] = scalar_one(qs[i]);
    return;
  }
  const __m256d vdn = _mm256_set1_pd(dn);
  const __m128i vn32 = _mm_set1_epi32(static_cast<int>(n));
  const __m128i vone = _mm_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d t = _mm256_mul_pd(_mm256_loadu_pd(qs + i), vdn);
    const __m256d up = _mm256_round_pd(t, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    __m128i rank = _mm256_cvttpd_epi32(up);  // exact: up is integral, <= n < 2^31
    rank = _mm_min_epi32(rank, vn32);
    rank = _mm_max_epi32(rank, vone);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_sub_epi32(rank, vone));
  }
  for (; i < m; ++i) out[i] = scalar_one(qs[i]);
}

double avx2_max_abs_cdf_gap(const std::uint32_t* ca, const std::uint32_t* cb, std::size_t m,
                            double dn, double dm) noexcept {
  // max is exact and order-independent over these finite values, so the
  // vector reduction matches the scalar left-to-right scan bit-for-bit.
  const __m256d vdn = _mm256_set1_pd(dn);
  const __m256d vdm = _mm256_set1_pd(dm);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vworst = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d fa = _mm256_div_pd(
        _mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(ca + i))), vdn);
    const __m256d fb = _mm256_div_pd(
        _mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(cb + i))), vdm);
    vworst = _mm256_max_pd(vworst, _mm256_andnot_pd(sign_mask, _mm256_sub_pd(fa, fb)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vworst);
  double worst = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
  for (; i < m; ++i) {
    const double diff = std::abs(static_cast<double>(ca[i]) / dn -
                                 static_cast<double>(cb[i]) / dm);
    if (diff > worst) worst = diff;
  }
  return worst;
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

constexpr NumericKernels kAvx2NumericKernels{
    avx2_adjacent_deltas, avx2_gather_u32,         avx2_upper_bound_many,
    avx2_lower_bound_many, avx2_counts_to_fractions, avx2_quantile_indices,
    avx2_max_abs_cdf_gap, avx2_xoshiro_fill,
};

}  // namespace

namespace detail {
const NumericKernels* avx2_numeric_kernels() noexcept { return &kAvx2NumericKernels; }
}  // namespace detail

}  // namespace tsufail::stats::simd

#else  // !__AVX2__

namespace tsufail::stats::simd::detail {
const NumericKernels* avx2_numeric_kernels() noexcept { return nullptr; }
}  // namespace tsufail::stats::simd::detail

#endif
