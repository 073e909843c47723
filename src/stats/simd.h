// stats::simd — the 4-lane xoshiro256** engine behind bootstrap_ci's
// resample draws.
//
// Its fill is the one numeric kernel with an AVX2 version, selected by
// the process-wide dispatch level (util/simd.h); every other kernel in
// stats is a plain loop (stats/kernels.h).
//
// Determinism contract: the fill produces BIT-IDENTICAL draws at every
// level.  Each lane is an independent stream, the AVX2 kernel only runs
// the four steps side by side, and a Lemire rejection redraws its lane
// with the same scalar step.  The dispatch-equivalence suite
// (stats_simd_test) pins every lane against Rng::uniform_index.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.h"

namespace tsufail::stats::simd {

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
/// doubles at AVX2.
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
  /// every lane, advancing all four streams, at the active dispatch
  /// level.  Precondition: n in [1, 2^32); all four out pointers valid
  /// for `count` elements.
  void fill_indices(std::uint64_t n, std::size_t count,
                    std::uint32_t* const outs[kLanes]) noexcept;

 private:
  XoshiroState state_;
};

}  // namespace tsufail::stats::simd
