// Vectorization-friendly primitive kernels shared by the hot analysis
// paths (ECDF/KS scans, TBF deltas, index gathers, bootstrap resampling,
// sorting samples).
//
// Each kernel restructures a loop that used to live inline in one
// consumer — push_back accumulation, branchy merges, fused random-draw +
// gather — into a branch-light pass over contiguous slices that the
// auto-vectorizer can handle, while producing bit-identical doubles:
// every arithmetic operation happens in the same order with the same
// operands as the scalar loop it replaced, so the golden report
// snapshots and the differential oracle's ULP tiers stay green.
// bench_perf_kernels times the sorts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tsufail::stats {

/// out[i] = values[i + 1] - values[i] for i in [0, n - 1); empty for
/// n < 2.  The TBF inner loop (gaps between consecutive failure hours),
/// as one indexed store per element instead of a push_back.
std::vector<double> adjacent_deltas(std::span<const double> values);

/// out[i] = values[indices[i]].  The index-gather behind hours_of /
/// ttr_of and the bootstrap resample fill.  Precondition: every index is
/// in range (callers index validated position spans).
std::vector<double> gather(std::span<const double> values,
                           std::span<const std::uint32_t> indices);

/// In-place variant writing into a caller-owned slice of size
/// indices.size() — lets resampling loops recycle one buffer.
void gather_into(std::span<const double> values, std::span<const std::uint32_t> indices,
                 std::span<double> out);

/// Below this many values sort_ascending calls std::sort; at or above it,
/// radix_sort_ascending.  Set at the crossover bench_perf_kernels
/// measures (BM_RadixSort vs BM_StdSort, Release, 4-vCPU AVX2 host), on
/// lognormal and on 4-decimal tie-heavy samples alike: at 2^10 std::sort
/// takes 14-17 us to the radix sort's 23-29 us; at 2^11 the radix sort
/// takes 40-53 us to std::sort's 44-83 us; at 2^12 it is 2.4-2.9x faster.
/// Paper-scale samples (under ~900 values) stay on std::sort.
inline constexpr std::size_t kRadixSortCutoff = 2048;

/// Sorts `values` ascending, in place: std::sort below kRadixSortCutoff,
/// radix_sort_ascending at or above it.
void sort_ascending(std::span<double> values);

/// LSD radix sort, one byte per pass, over the order-preserving 64-bit
/// key of each double (every bit of a negative value flipped, only the
/// sign bit of a non-negative one).  The keys replace the values in
/// place, a pass whose byte is the same in every key is skipped, and the
/// one scratch buffer holds values.size() doubles.  Doubles that compare
/// equal have equal bits except +-0, so the output is std::sort's bit for
/// bit on any input without -0.0 or NaN; on a +-0 mix, -0.0 comes first
/// (std::sort leaves that order unspecified).  Callers use
/// sort_ascending; this entry point lets the kernel bench time the radix
/// path below the cutoff too.
void radix_sort_ascending(std::span<double> values);

/// `sample` itself when it is already ascending; otherwise a sorted copy
/// of it, held in `storage`.  Lets a reader of an ordered sample skip the
/// copy a const input otherwise forces.
std::span<const double> ascending_view(std::span<const double> sample,
                                       std::vector<double>& storage);

/// Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)| between the
/// empirical CDFs of two ascending-sorted samples, via one linear merge
/// sweep (O(n + m)) instead of per-point binary searches
/// (O(n log n + m log m)).  Each step distance is computed as
/// |i/n - j/m| with the same integer-to-double divisions the
/// evaluate()-based scan performed, so the result is bit-identical.
/// Returns 0.0 if either sample is empty.  Preconditions: both sorted.
double ks_distance_sorted(std::span<const double> a, std::span<const double> b);

}  // namespace tsufail::stats
