#include "stats/simd.h"

#include <algorithm>
#include <cmath>

#include "stats/simd_internal.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tsufail::stats::simd {
namespace {

// Vector paths use signed 32/64-bit lane indices; inputs at or above
// 2^31 elements take the scalar twin (wrappers check).
constexpr std::size_t kMaxVectorElements = (std::size_t{1} << 31) - 1;

// --- Scalar twins -------------------------------------------------------
//
// The portable baseline every other level is bit-compared against.

void scalar_adjacent_deltas(const double* in, std::size_t n_out, double* out) noexcept {
  for (std::size_t i = 0; i < n_out; ++i) out[i] = in[i + 1] - in[i];
}

void scalar_gather_u32(const double* values, const std::uint32_t* idx, std::size_t n,
                       double* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = values[idx[i]];
}

void scalar_upper_bound_many(const double* sorted, std::size_t n, const double* xs,
                             std::size_t m, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = static_cast<std::uint32_t>(std::upper_bound(sorted, sorted + n, xs[i]) - sorted);
  }
}

void scalar_lower_bound_many(const double* sorted, std::size_t n, const double* xs,
                             std::size_t m, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    out[i] = static_cast<std::uint32_t>(std::lower_bound(sorted, sorted + n, xs[i]) - sorted);
  }
}

void scalar_counts_to_fractions(const std::uint32_t* counts, std::size_t m, double n,
                                double* out) noexcept {
  for (std::size_t i = 0; i < m; ++i) out[i] = static_cast<double>(counts[i]) / n;
}

void scalar_quantile_indices(const double* qs, std::size_t m, std::size_t n,
                             std::uint32_t* out) noexcept {
  const auto dn = static_cast<double>(n);
  for (std::size_t i = 0; i < m; ++i) {
    // Exactly Ecdf::quantile's arithmetic: rank = ceil(q*n) clamped to
    // [1, n] (the lower clamp covers q == 0 -> first observation).
    auto rank = static_cast<std::size_t>(std::ceil(qs[i] * dn));
    rank = std::min(rank, n);
    rank = std::max<std::size_t>(rank, 1);
    out[i] = static_cast<std::uint32_t>(rank - 1);
  }
}

double scalar_max_abs_cdf_gap(const std::uint32_t* ca, const std::uint32_t* cb, std::size_t m,
                              double dn, double dm) noexcept {
  double worst = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double diff =
        std::abs(static_cast<double>(ca[i]) / dn - static_cast<double>(cb[i]) / dm);
    if (diff > worst) worst = diff;
  }
  return worst;
}

void scalar_xoshiro_fill(XoshiroState& state, std::uint64_t n, std::uint64_t threshold,
                         std::size_t count, std::uint32_t* const* outs) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t lane = 0; lane < XoshiroLanes::kLanes; ++lane) {
      const std::uint64_t x = detail::xoshiro_step_lane(state, lane);
      outs[lane][i] = detail::lemire_finish_lane(state, lane, x, n, threshold);
    }
  }
}

constexpr NumericKernels kScalarNumericKernels{
    scalar_adjacent_deltas, scalar_gather_u32,     scalar_upper_bound_many,
    scalar_lower_bound_many, scalar_counts_to_fractions, scalar_quantile_indices,
    scalar_max_abs_cdf_gap, scalar_xoshiro_fill,
};

// --- SSE2 tier ----------------------------------------------------------
//
// Only the kernels where 128 bits pay for themselves: 2-wide double
// subtraction/division and the 2-wide quantile rank math.  Binary search
// and gathers stay scalar (no gather instruction before AVX2), the
// merge-based KS stays shared, and the 4-lane RNG runs its scalar
// columns.

#if defined(__SSE2__)

void sse2_adjacent_deltas(const double* in, std::size_t n_out, double* out) noexcept {
  std::size_t i = 0;
  for (; i + 2 <= n_out; i += 2) {
    const __m128d hi = _mm_loadu_pd(in + i + 1);
    const __m128d lo = _mm_loadu_pd(in + i);
    _mm_storeu_pd(out + i, _mm_sub_pd(hi, lo));
  }
  for (; i < n_out; ++i) out[i] = in[i + 1] - in[i];
}

void sse2_counts_to_fractions(const std::uint32_t* counts, std::size_t m, double n,
                              double* out) noexcept {
  const __m128d dn = _mm_set1_pd(n);
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    // Two u32 counts -> two doubles (counts < 2^31, so the signed
    // conversion is exact).
    const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(counts + i));
    _mm_storeu_pd(out + i, _mm_div_pd(_mm_cvtepi32_pd(raw), dn));
  }
  for (; i < m; ++i) out[i] = static_cast<double>(counts[i]) / n;
}

void sse2_quantile_indices(const double* qs, std::size_t m, std::size_t n,
                           std::uint32_t* out) noexcept {
  if (n > kMaxVectorElements) return scalar_quantile_indices(qs, m, n, out);
  const auto dn = static_cast<double>(n);
  const __m128d dn2 = _mm_set1_pd(dn);
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const __m128d t = _mm_mul_pd(_mm_loadu_pd(qs + i), dn2);
    // ceil without SSE4.1 roundpd: truncate, then add 1 where the
    // truncation went below the value (q >= 0, so t >= 0 and the
    // truncated double is representable exactly).
    const __m128i trunc = _mm_cvttpd_epi32(t);
    const __m128d back = _mm_cvtepi32_pd(trunc);
    const __m128i below = _mm_castpd_si128(_mm_cmplt_pd(back, t));
    // below is a 64-bit lane mask; collapse to the 32-bit rank lanes.
    alignas(16) std::int32_t rank2[4];
    alignas(16) std::uint64_t mask2[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(rank2), trunc);
    _mm_store_si128(reinterpret_cast<__m128i*>(mask2), below);
    for (int lane = 0; lane < 2 && i + static_cast<std::size_t>(lane) < m; ++lane) {
      std::int64_t rank = rank2[lane] + (mask2[lane] != 0 ? 1 : 0);
      rank = std::min<std::int64_t>(rank, static_cast<std::int64_t>(n));
      rank = std::max<std::int64_t>(rank, 1);
      out[i + static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(rank - 1);
    }
  }
  for (; i < m; ++i) scalar_quantile_indices(qs + i, 1, n, out + i);
}

constexpr NumericKernels kSse2NumericKernels{
    sse2_adjacent_deltas,   scalar_gather_u32,        scalar_upper_bound_many,
    scalar_lower_bound_many, sse2_counts_to_fractions, sse2_quantile_indices,
    scalar_max_abs_cdf_gap, scalar_xoshiro_fill,
};

#endif  // __SSE2__

/// Merge-sweep KS (the scalar/SSE2 algorithm; see kernels.h for the
/// derivation).  The AVX2 batched formulation computes the same |i/n -
/// j/m| values, so both agree bit-for-bit.
double ks_merge(std::span<const double> a, std::span<const double> b) noexcept {
  const auto n = static_cast<double>(a.size());
  const auto m = static_cast<double>(b.size());
  double worst = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const double x = (j >= b.size() || (i < a.size() && a[i] <= b[j])) ? a[i] : b[j];
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    const double diff =
        std::abs(static_cast<double>(i) / n - static_cast<double>(j) / m);
    if (diff > worst) worst = diff;
  }
  return worst;
}

const NumericKernels& kernels_for(Level level) noexcept { return numeric_kernels(level); }

const NumericKernels& active_kernels() noexcept { return kernels_for(active_level()); }

}  // namespace

const NumericKernels& numeric_kernels(Level level) noexcept {
  if (static_cast<int>(level) > static_cast<int>(supported_level()))
    level = supported_level();
  switch (level) {
    case Level::kAvx2:
      if (const NumericKernels* avx2 = detail::avx2_numeric_kernels()) return *avx2;
      [[fallthrough]];
    case Level::kSse2:
#if defined(__SSE2__)
      return kSse2NumericKernels;
#else
      [[fallthrough]];
#endif
    case Level::kScalar:
      break;
  }
  return kScalarNumericKernels;
}

void adjacent_deltas(std::span<const double> values, std::span<double> out) noexcept {
  if (values.size() < 2) return;
  active_kernels().adjacent_deltas(values.data(), out.size(), out.data());
}

void gather(std::span<const double> values, std::span<const std::uint32_t> indices,
            std::span<double> out) noexcept {
  if (values.size() > kMaxVectorElements)
    return scalar_gather_u32(values.data(), indices.data(), indices.size(), out.data());
  active_kernels().gather_u32(values.data(), indices.data(), indices.size(), out.data());
}

void upper_bound_many(std::span<const double> sorted, std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept {
  if (sorted.size() > kMaxVectorElements)
    return scalar_upper_bound_many(sorted.data(), sorted.size(), xs.data(), xs.size(),
                                   out.data());
  active_kernels().upper_bound_many(sorted.data(), sorted.size(), xs.data(), xs.size(),
                                    out.data());
}

void lower_bound_many(std::span<const double> sorted, std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept {
  if (sorted.size() > kMaxVectorElements)
    return scalar_lower_bound_many(sorted.data(), sorted.size(), xs.data(), xs.size(),
                                   out.data());
  active_kernels().lower_bound_many(sorted.data(), sorted.size(), xs.data(), xs.size(),
                                    out.data());
}

void counts_to_fractions(std::span<const std::uint32_t> counts, double n,
                         std::span<double> out) noexcept {
  active_kernels().counts_to_fractions(counts.data(), counts.size(), n, out.data());
}

void quantile_indices(std::span<const double> qs, std::size_t n,
                      std::span<std::uint32_t> out) noexcept {
  active_kernels().quantile_indices(qs.data(), qs.size(), n, out.data());
}

double ks_distance_sorted(std::span<const double> a, std::span<const double> b) {
  // The O(n + m) merge sweep wins at every level: a lane-parallel
  // batched-search formulation (upper_bound_many of every sample point in
  // both samples + max_abs_cdf_gap) was measured ~8x SLOWER on AVX2 —
  // the log(n) factor of (n + m) searches dwarfs the 4-wide lanes.  The
  // batched kernels stay in the table for the consumers where they do
  // win (Ecdf::evaluate_many, rolling windows).
  if (a.empty() || b.empty()) return 0.0;
  return ks_merge(a, b);
}

void XoshiroLanes::fill_indices(std::uint64_t n, std::size_t count,
                                std::uint32_t* const outs[kLanes]) noexcept {
  // Lemire rejection threshold (2^64 - n) mod n, hoisted out of the fill
  // loop (Rng::uniform_index derives the same value lazily per draw).
  const std::uint64_t threshold = (~n + 1) % n;
  active_kernels().xoshiro_fill(state_, n, threshold, count, outs);
}

}  // namespace tsufail::stats::simd
