#include "stats/kernels.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "stats/simd.h"

namespace tsufail::stats {
namespace {

constexpr int kDigitBits = 8;
constexpr std::size_t kDigitValues = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kDigitValues - 1;
constexpr int kDigits = 64 / kDigitBits;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// The radix passes move raw 64-bit patterns through double storage;
// memcpy keeps that free of aliasing and of any floating-point load.
std::uint64_t load_bits(const double* p) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, p, sizeof bits);
  return bits;
}

void store_bits(double* p, std::uint64_t bits) noexcept { std::memcpy(p, &bits, sizeof bits); }

/// Unsigned keys in the doubles' order: a negative value has every bit
/// flipped (larger magnitude, smaller key), a non-negative one only its
/// sign bit (so it sorts above every negative).
std::uint64_t to_key(std::uint64_t bits) noexcept {
  return bits ^ ((~(bits >> 63) + 1) | kSignBit);
}

std::uint64_t from_key(std::uint64_t key) noexcept {
  return key ^ (((key >> 63) - 1) | kSignBit);
}

}  // namespace

void radix_sort_ascending(std::span<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return;
  double* const data = values.data();
  // Keys replace the values in place; one pass counts every digit.
  std::array<std::array<std::size_t, kDigitValues>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = to_key(load_bits(data + i));
    store_bits(data + i, key);
    for (int digit = 0; digit < kDigits; ++digit)
      ++counts[digit][(key >> (digit * kDigitBits)) & kDigitMask];
  }

  std::unique_ptr<double[]> scratch;
  double* src = data;
  double* dst = nullptr;
  const std::uint64_t any_key = load_bits(data);
  for (int digit = 0; digit < kDigits; ++digit) {
    const int shift = digit * kDigitBits;
    auto& offsets = counts[digit];
    if (offsets[(any_key >> shift) & kDigitMask] == n) continue;  // one value of this digit
    if (!scratch) {
      scratch.reset(new double[n]);
      dst = scratch.get();
    }
    std::size_t next = 0;
    for (std::size_t& offset : offsets) next += std::exchange(offset, next);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = load_bits(src + i);
      store_bits(dst + offsets[(key >> shift) & kDigitMask]++, key);
    }
    std::swap(src, dst);
  }
  if (src != data) std::memcpy(data, src, n * sizeof(double));
  for (std::size_t i = 0; i < n; ++i) store_bits(data + i, from_key(load_bits(data + i)));
}

void sort_ascending(std::span<double> values) {
  if (values.size() < kRadixSortCutoff) {
    std::sort(values.begin(), values.end());
  } else {
    radix_sort_ascending(values);
  }
}

std::span<const double> ascending_view(std::span<const double> sample,
                                       std::vector<double>& storage) {
  if (std::is_sorted(sample.begin(), sample.end())) return sample;
  storage.assign(sample.begin(), sample.end());
  sort_ascending(storage);
  return storage;
}

std::vector<double> adjacent_deltas(std::span<const double> values) {
  if (values.size() < 2) return {};
  std::vector<double> deltas(values.size() - 1);
  simd::adjacent_deltas(values, deltas);
  return deltas;
}

std::vector<double> gather(std::span<const double> values,
                           std::span<const std::uint32_t> indices) {
  std::vector<double> out(indices.size());
  gather_into(values, indices, out);
  return out;
}

void gather_into(std::span<const double> values, std::span<const std::uint32_t> indices,
                 std::span<double> out) {
  assert(out.size() >= indices.size() && "gather_into: output slice too small");
#ifndef NDEBUG
  for (const std::uint32_t i : indices)
    assert(i < values.size() && "gather_into: index out of range");
#endif
  simd::gather(values, indices, out);
}

double ks_distance_sorted(std::span<const double> a, std::span<const double> b) {
  return simd::ks_distance_sorted(a, b);
}

}  // namespace tsufail::stats
