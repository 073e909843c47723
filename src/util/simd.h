// Runtime SIMD dispatch and byte-scanning kernels.
//
// One process-wide dispatch level — scalar, SSE2, or AVX2 — is selected
// once at startup: the CPU is probed (CPUID via the compiler builtins),
// the result is clamped to what this binary was actually compiled with,
// and an optional TSUFAIL_SIMD=scalar|sse2|avx2 environment override
// (itself clamped to hardware support) lets tests and benches pin the
// level.  Every explicit-SIMD kernel in the library — the byte scanners
// below, the numeric kernels in stats::simd — routes through this single
// level, so `TSUFAIL_SIMD=scalar tsufail ...` exercises the portable
// fallback end to end and `tsufail --version` can state which paths a
// box will take.
//
// The byte kernels live here (not in stats) because the CSV tokenizer is
// part of tsufail_util, the lowest library in the stack: a 16/32-byte
// compare + movemask block scan shared by the CSV parser and the serve
// line-protocol framer.
//
// Determinism contract: for any input, every kernel returns bit-identical
// results at every dispatch level.  The dispatch-equivalence suite
// (tests/stats_simd_test.cpp) enforces this on adversarial inputs, and
// CI runs one job with TSUFAIL_SIMD=scalar plus one -march=x86-64-v3
// build so all levels stay honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tsufail::simd {

/// Dispatch levels, ordered: a level implies all the ones below it.
enum class Level {
  kScalar = 0,  ///< portable C++ loops, no vector instructions required
  kSse2 = 1,    ///< 128-bit integer/double lanes (baseline on x86-64)
  kAvx2 = 2,    ///< 256-bit lanes, vpgather, 4-wide double math
};

/// Human-readable level name: "scalar", "sse2", "avx2".
const char* level_name(Level level) noexcept;

/// Parses a level name (as accepted in TSUFAIL_SIMD). Returns false on an
/// unknown name, leaving `out` untouched.
bool parse_level(std::string_view name, Level& out) noexcept;

/// The best level this binary can run on this CPU: hardware support
/// (CPUID) clamped to what was compiled in (an AVX2 kernel TU only
/// exists when the compiler accepted -mavx2).  Constant per process.
Level supported_level() noexcept;

/// The active dispatch level.  First call: supported_level() clamped by
/// the TSUFAIL_SIMD environment override, then cached.  Every kernel
/// call reads this, so it is cheap (one relaxed atomic load).
Level active_level() noexcept;

/// Overrides the active level (clamped to supported_level(); returns the
/// level actually applied).  For benches and the dispatch-equivalence
/// tests; not thread-safe against concurrent kernel calls mid-switch.
Level set_active_level(Level level) noexcept;

/// All levels this process can actually run, ascending (always starts
/// with kScalar).  The bench and equivalence suites iterate this.
std::vector<Level> available_levels();

// --- Byte-scanning kernels ---------------------------------------------
//
// All return an offset relative to `text.begin() + pos` semantics of
// std::string_view::find: the absolute index of the first match at or
// after `pos`, or std::string_view::npos.

/// First occurrence of `c` at or after `pos` (SIMD memchr).
std::size_t find_byte(std::string_view text, char c, std::size_t pos = 0) noexcept;

/// Bitmask of the bytes of `block` (at most 64) equal to any of the four
/// values: bit i is set iff block[i] is one of them.  Pass a repeated
/// byte to match fewer than four distinct values.  A scanner keeps one
/// mask per 64 bytes and steps from match to match with bit operations,
/// so a run of short fields costs no call per field.
std::uint64_t mask_any_of4(std::string_view block, char c0, char c1, char c2, char c3) noexcept;

/// Number of occurrences of `c` in `text` (SIMD popcount over compare
/// masks).  Used to keep CSV line numbers exact across bulk quoted-field
/// scans.
std::size_t count_byte(std::string_view text, char c) noexcept;

// --- Internal: per-level byte-kernel tables ----------------------------
//
// Raw-pointer kernels behind the wrappers above.  Exposed so the bench
// can time a specific level without flipping the global, and so the
// equivalence suite can diff levels directly.

struct ByteKernels {
  std::size_t (*find_byte)(const char* p, std::size_t n, char c) noexcept;
  /// Precondition: n <= 64.
  std::uint64_t (*mask_any_of4)(const char* p, std::size_t n, char c0, char c1, char c2,
                                char c3) noexcept;
  std::size_t (*count_byte)(const char* p, std::size_t n, char c) noexcept;
};

/// The byte-kernel table for `level` (clamped to supported_level()).
const ByteKernels& byte_kernels(Level level) noexcept;

}  // namespace tsufail::simd
