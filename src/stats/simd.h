// stats::simd — the explicit-SIMD numeric kernel engine.
//
// Raw-slice kernels behind the public stats surfaces (stats::kernels,
// Ecdf::evaluate_many/quantile_many, bootstrap_ci's resample fill), with
// one implementation per dispatch level (util/simd.h): a portable scalar
// twin, the SSE2 subset that pays off at 128 bits, and the AVX2 tier
// (4-wide double math, vpgather, 4-lane xoshiro256**).  The level is
// selected once per process by CPUID, overridable via TSUFAIL_SIMD.
//
// Determinism contract: every kernel produces BIT-IDENTICAL results at
// every level.  That is possible because the kernels only reorganize
// lane-independent work — element-wise subtraction, per-query binary
// search, per-stream RNG steps, IEEE division (correctly rounded, so
// vector and scalar divides agree) — and never reassociate floating-point
// accumulation.  The dispatch-equivalence suite (stats_simd_test) bit-
// compares every kernel across levels on adversarial inputs; the
// differential oracle and golden report snapshots hold at every level.
//
// Preconditions shared by the vector paths: array lengths and index
// values must stay below 2^31 (vpgather consumes signed 32/64-bit
// indices).  Wrappers fall back to the scalar twin automatically for
// larger inputs, so the public API has no size limit.
#pragma once

#include <cstdint>
#include <span>

#include "util/rng.h"
#include "util/simd.h"

namespace tsufail::stats::simd {

using Level = tsufail::simd::Level;
using tsufail::simd::active_level;
using tsufail::simd::available_levels;
using tsufail::simd::level_name;
using tsufail::simd::parse_level;
using tsufail::simd::set_active_level;
using tsufail::simd::supported_level;

/// out[i] = values[i + 1] - values[i].  Precondition: out.size() + 1 ==
/// values.size() (out may be empty for a single-element input).
void adjacent_deltas(std::span<const double> values, std::span<double> out) noexcept;

/// out[i] = values[indices[i]] (vpgatherqd/i32gather on AVX2).
/// Precondition: every index < values.size(); out.size() == indices.size().
void gather(std::span<const double> values, std::span<const std::uint32_t> indices,
            std::span<double> out) noexcept;

/// out[i] = number of elements of `sorted` <= xs[i], i.e.
/// std::upper_bound(sorted, xs[i]) - sorted.begin(), via a lane-parallel
/// branchless power-of-two descent.  NaN queries count the whole sample
/// (exactly as std::upper_bound's comparator does).
/// Precondition: sorted ascending; out.size() == xs.size().
void upper_bound_many(std::span<const double> sorted, std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept;

/// out[i] = number of elements of `sorted` < xs[i]
/// (std::lower_bound positions).  NaN queries count zero elements.
void lower_bound_many(std::span<const double> sorted, std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept;

/// out[i] = static_cast<double>(counts[i]) / n — the ECDF step heights
/// for a batch of upper_bound_many counts.  IEEE division is correctly
/// rounded, so the vector divide is bit-identical to the scalar one.
void counts_to_fractions(std::span<const std::uint32_t> counts, double n,
                         std::span<double> out) noexcept;

/// out[i] = the sorted-sample index of the empirical quantile qs[i] over
/// a sample of size n, matching Ecdf::quantile exactly:
/// clamp(ceil(q * n), 1, n) - 1.  Precondition: every q in [0, 1]
/// (validate before calling); n >= 1.
void quantile_indices(std::span<const double> qs, std::size_t n,
                      std::span<std::uint32_t> out) noexcept;

/// Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)| between two
/// ascending-sorted samples, via the O(n + m) merge sweep at every level
/// (measured faster than a lane-parallel batched-search formulation,
/// whose log-factor extra work dwarfs the vector width).
/// Returns 0.0 if either sample is empty.
double ks_distance_sorted(std::span<const double> a, std::span<const double> b);

/// The state of four xoshiro256** streams, word-major and lane-minor:
/// words[word][lane], so each state word of the four streams is one
/// contiguous 32-byte row that a single vector load picks up.  The AVX2
/// kernel's aligned loads need that row alignment, and it is part of the
/// type: any holder of a state (XoshiroLanes, a test, a bench) gets it,
/// and a plain uint64_t array cannot be passed by mistake.
struct alignas(32) XoshiroState {
  static constexpr std::size_t kLanes = 4;
  std::uint64_t words[4][kLanes];
};

/// Four xoshiro256** streams advanced in lockstep — one per 64-bit lane
/// of an AVX2 register at that level, scalar column loops otherwise.
///
/// Each lane is seeded from `parent.fork(first_stream + lane)`, and its
/// draw sequence is bit-identical to calling Rng::uniform_index on that
/// fork directly (the rare Lemire rejection redraws a single lane in
/// place).  bootstrap_ci runs its fixed-128-replicate shards four per
/// group on this engine: the per-shard sequences — and therefore every
/// CI bound — are unchanged, while resample-index throughput roughly
/// quadruples.
class XoshiroLanes {
 public:
  static constexpr std::size_t kLanes = XoshiroState::kLanes;

  XoshiroLanes(const Rng& parent, std::uint64_t first_stream) noexcept {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const auto words = parent.fork(first_stream + lane).state_words();
      for (std::size_t word = 0; word < 4; ++word) state_.words[word][lane] = words[word];
    }
  }

  /// Fills outs[lane][0..count) with Lemire-bounded indices in [0, n) for
  /// every lane, advancing all four streams.  Precondition: n in
  /// [1, 2^32); all four out pointers valid for `count` elements.
  void fill_indices(std::uint64_t n, std::size_t count,
                    std::uint32_t* const outs[kLanes]) noexcept;

  /// The current state words of one lane (for tests pinning lane
  /// evolution against a scalar Rng).
  std::array<std::uint64_t, 4> lane_state(std::size_t lane) const noexcept {
    return {state_.words[0][lane], state_.words[1][lane], state_.words[2][lane],
            state_.words[3][lane]};
  }

 private:
  XoshiroState state_;
};

// --- Internal: per-level kernel table ----------------------------------
//
// Exposed so bench_kernels can time one level without flipping the
// process-wide dispatch, and so the equivalence suite can diff levels.

struct NumericKernels {
  void (*adjacent_deltas)(const double* in, std::size_t n_out, double* out) noexcept;
  void (*gather_u32)(const double* values, const std::uint32_t* idx, std::size_t n,
                     double* out) noexcept;
  void (*upper_bound_many)(const double* sorted, std::size_t n, const double* xs, std::size_t m,
                           std::uint32_t* out) noexcept;
  void (*lower_bound_many)(const double* sorted, std::size_t n, const double* xs, std::size_t m,
                           std::uint32_t* out) noexcept;
  void (*counts_to_fractions)(const std::uint32_t* counts, std::size_t m, double n,
                              double* out) noexcept;
  void (*quantile_indices)(const double* qs, std::size_t m, std::size_t n,
                           std::uint32_t* out) noexcept;
  /// max_i |ca[i]/dn - cb[i]/dm| over m entries (0.0 for m == 0).
  double (*max_abs_cdf_gap)(const std::uint32_t* ca, const std::uint32_t* cb, std::size_t m,
                            double dn, double dm) noexcept;
  /// Advances 4 xoshiro lanes `count` steps each, writing Lemire-bounded
  /// indices; `threshold` = (2^64 - n) % n precomputed by the wrapper.
  void (*xoshiro_fill)(XoshiroState& state, std::uint64_t n, std::uint64_t threshold,
                       std::size_t count, std::uint32_t* const* outs) noexcept;
};

/// The numeric kernel table for `level` (clamped to supported_level()).
const NumericKernels& numeric_kernels(Level level) noexcept;

}  // namespace tsufail::stats::simd
