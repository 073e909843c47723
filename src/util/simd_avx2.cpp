// AVX2 byte-scanning kernels.  This translation unit is compiled with
// -mavx2 (see util/CMakeLists.txt); nothing here may be called unless
// runtime dispatch selected Level::kAvx2, which requires CPUID support.
// When the compiler cannot target AVX2 the hook returns nullptr and the
// dispatch core clamps the supported level down.
#include "util/simd_internal.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tsufail::simd::detail {

#if defined(__AVX2__)

namespace {

std::size_t tail_find_byte(const char* p, std::size_t n, char c) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] == c) return i;
  }
  return n;
}

std::size_t avx2_find_byte(const char* p, std::size_t n, char c) noexcept {
  const __m256i needle = _mm256_set1_epi8(c);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i block = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(block, needle)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  return i + tail_find_byte(p + i, n - i, c);
}

std::uint64_t avx2_mask_any_of4(const char* p, std::size_t n, char c0, char c1, char c2,
                                char c3) noexcept {
  const __m256i n0 = _mm256_set1_epi8(c0);
  const __m256i n1 = _mm256_set1_epi8(c1);
  const __m256i n2 = _mm256_set1_epi8(c2);
  const __m256i n3 = _mm256_set1_epi8(c3);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i block = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i hit = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi8(block, n0), _mm256_cmpeq_epi8(block, n1)),
        _mm256_or_si256(_mm256_cmpeq_epi8(block, n2), _mm256_cmpeq_epi8(block, n3)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(_mm256_movemask_epi8(hit))) << i;
  }
  for (; i < n; ++i) {
    const char c = p[i];
    if (c == c0 || c == c1 || c == c2 || c == c3) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

std::size_t avx2_count_byte(const char* p, std::size_t n, char c) noexcept {
  const __m256i needle = _mm256_set1_epi8(c);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i block = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(block, needle)));
    count += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) count += p[i] == c;
  return count;
}

constexpr ByteKernels kAvx2ByteKernels{avx2_find_byte, avx2_mask_any_of4, avx2_count_byte};

}  // namespace

const ByteKernels* avx2_byte_kernels() noexcept { return &kAvx2ByteKernels; }

#else  // !__AVX2__

const ByteKernels* avx2_byte_kernels() noexcept { return nullptr; }

#endif

}  // namespace tsufail::simd::detail
