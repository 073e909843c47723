#include "util/simd.h"

#include <atomic>
#include <cstdlib>

#include "util/simd_internal.h"

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

// --- Level selection ----------------------------------------------------

Level hardware_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports runs CPUID once and caches inside libgcc.
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level clamp_to_supported(Level level) noexcept {
  return level > supported_level() ? supported_level() : level;
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
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

bool parse_level(std::string_view name, Level& out) noexcept {
  if (name == "scalar") {
    out = Level::kScalar;
  } else if (name == "avx2") {
    out = Level::kAvx2;
  } else {
    return false;
  }
  return true;
}

Level supported_level() noexcept {
  static const Level kSupported =
      detail::avx2_byte_kernels() != nullptr ? hardware_level() : Level::kScalar;
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
  if (supported_level() == Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

const ByteKernels& byte_kernels(Level level) noexcept {
  // kAvx2 survives the clamp only when the AVX2 table was compiled in.
  if (clamp_to_supported(level) == Level::kAvx2) return *detail::avx2_byte_kernels();
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
