#include "util/simd.h"

#include <atomic>
#include <cstdlib>

#include "util/simd_internal.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tsufail::simd {
namespace {

// --- Scalar byte kernels ------------------------------------------------
//
// Plain byte-at-a-time loops, deliberately not routed through memchr: the
// scalar level is the honest portable baseline the equivalence suite and
// the bench speedup ratios are measured against.

std::size_t scalar_find_byte(const char* p, std::size_t n, char c) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] == c) return i;
  }
  return n;
}

std::uint64_t scalar_mask_any_of4(const char* p, std::size_t n, char c0, char c1, char c2,
                                  char c3) noexcept {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = p[i];
    if (c == c0 || c == c1 || c == c2 || c == c3) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::size_t scalar_count_byte(const char* p, std::size_t n, char c) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += p[i] == c;
  return count;
}

constexpr ByteKernels kScalarByteKernels{scalar_find_byte, scalar_mask_any_of4,
                                         scalar_count_byte};

// --- SSE2 byte kernels --------------------------------------------------
//
// 16-byte blocks: compare-equal per lane, movemask to a 16-bit mask, then
// count-trailing-zeros for the first hit.  Tails shorter than one block
// fall back to the scalar loop (never reads past the buffer).

#if defined(__SSE2__)

std::size_t sse2_find_byte(const char* p, std::size_t n, char c) noexcept {
  const __m128i needle = _mm_set1_epi8(c);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
  }
  return i + scalar_find_byte(p + i, n - i, c);
}

std::uint64_t sse2_mask_any_of4(const char* p, std::size_t n, char c0, char c1, char c2,
                                char c3) noexcept {
  const __m128i n0 = _mm_set1_epi8(c0);
  const __m128i n1 = _mm_set1_epi8(c1);
  const __m128i n2 = _mm_set1_epi8(c2);
  const __m128i n3 = _mm_set1_epi8(c3);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(block, n0), _mm_cmpeq_epi8(block, n1)),
        _mm_or_si128(_mm_cmpeq_epi8(block, n2), _mm_cmpeq_epi8(block, n3)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(_mm_movemask_epi8(hit))) << i;
  }
  if (i < n) mask |= scalar_mask_any_of4(p + i, n - i, c0, c1, c2, c3) << i;
  return mask;
}

std::size_t sse2_count_byte(const char* p, std::size_t n, char c) noexcept {
  const __m128i needle = _mm_set1_epi8(c);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle));
    count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  return count + scalar_count_byte(p + i, n - i, c);
}

constexpr ByteKernels kSse2ByteKernels{sse2_find_byte, sse2_mask_any_of4, sse2_count_byte};

#endif  // __SSE2__

// --- Level selection ----------------------------------------------------

Level hardware_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports runs CPUID once and caches inside libgcc.
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

Level compiled_level() noexcept {
  if (detail::avx2_byte_kernels() != nullptr) return Level::kAvx2;
#if defined(__SSE2__)
  return Level::kSse2;
#else
  return Level::kScalar;
#endif
}

Level clamp_to_supported(Level level) noexcept {
  const Level cap = supported_level();
  return static_cast<int>(level) > static_cast<int>(cap) ? cap : level;
}

/// -1 = not yet selected; otherwise the int value of the active Level.
std::atomic<int> g_active_level{-1};

Level select_initial_level() noexcept {
  Level level = supported_level();
  if (const char* env = std::getenv("TSUFAIL_SIMD")) {
    Level requested = level;
    if (parse_level(env, requested)) level = clamp_to_supported(requested);
    // An unrecognized value keeps the detected level: misconfiguration
    // must not silently drop a production box to scalar.
  }
  return level;
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

bool parse_level(std::string_view name, Level& out) noexcept {
  if (name == "scalar") {
    out = Level::kScalar;
  } else if (name == "sse2") {
    out = Level::kSse2;
  } else if (name == "avx2") {
    out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

Level supported_level() noexcept {
  static const Level kSupported = [] {
    const Level hw = hardware_level();
    const Level compiled = compiled_level();
    return static_cast<int>(hw) < static_cast<int>(compiled) ? hw : compiled;
  }();
  return kSupported;
}

Level active_level() noexcept {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(select_initial_level());
    g_active_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<Level>(level);
}

Level set_active_level(Level level) noexcept {
  const Level applied = clamp_to_supported(level);
  g_active_level.store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

std::vector<Level> available_levels() {
  std::vector<Level> levels{Level::kScalar};
  if (supported_level() >= Level::kSse2) levels.push_back(Level::kSse2);
  if (supported_level() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

const ByteKernels& byte_kernels(Level level) noexcept {
  switch (clamp_to_supported(level)) {
    case Level::kAvx2:
      if (const ByteKernels* avx2 = detail::avx2_byte_kernels()) return *avx2;
      [[fallthrough]];
    case Level::kSse2:
#if defined(__SSE2__)
      return kSse2ByteKernels;
#else
      [[fallthrough]];
#endif
    case Level::kScalar:
      break;
  }
  return kScalarByteKernels;
}

std::size_t find_byte(std::string_view text, char c, std::size_t pos) noexcept {
  if (pos >= text.size()) return std::string_view::npos;
  const std::size_t offset =
      byte_kernels(active_level()).find_byte(text.data() + pos, text.size() - pos, c);
  return offset == text.size() - pos ? std::string_view::npos : pos + offset;
}

std::uint64_t mask_any_of4(std::string_view block, char c0, char c1, char c2, char c3) noexcept {
  return byte_kernels(active_level()).mask_any_of4(block.data(), block.size(), c0, c1, c2, c3);
}

std::size_t count_byte(std::string_view text, char c) noexcept {
  if (text.empty()) return 0;
  return byte_kernels(active_level()).count_byte(text.data(), text.size(), c);
}

}  // namespace tsufail::simd
