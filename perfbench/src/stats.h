// Order statistics for the benchmark's timings.
//
// Percentiles are nearest-rank: the q-th percentile of n samples is the
// ceil(q*n)-th smallest.  A tail percentile is only reported when at least
// ten samples lie beyond it; highest_supported() picks the highest
// candidate that meets that rule for a given sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-th percentile among n samples (n > 0).
inline std::size_t nearest_rank(double q, std::size_t n) {
  // The epsilon keeps exact products such as 0.95 * 20 from rounding up a
  // whole rank through floating-point error.
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (r < 1) r = 1;
  if (r > static_cast<double>(n)) r = static_cast<double>(n);
  return static_cast<std::size_t>(r);
}

/// Samples strictly above the q-th percentile's rank.
inline std::size_t samples_beyond(double q, std::size_t n) {
  return n - nearest_rank(q, n);
}

/// The highest of `candidates` (any order) that leaves at least
/// `min_beyond` samples beyond it; 0 when none does.
inline double highest_supported(std::size_t n,
                                std::vector<double> candidates = {0.999, 0.99, 0.95, 0.9, 0.5},
                                std::size_t min_beyond = 10) {
  if (n == 0) return 0;
  std::sort(candidates.begin(), candidates.end(), std::greater<double>());
  for (double q : candidates) {
    if (samples_beyond(q, n) >= min_beyond) return q;
  }
  return 0;
}

/// Nearest-rank percentile of already sorted samples; 0 when empty.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(q, sorted.size()) - 1];
}

inline double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

/// The reported tail: the requested percentile, lowered to the highest one
/// the sample supports.
inline double tail_percentile(std::vector<double> v, double q) {
  double supported = highest_supported(v.size());
  return percentile(std::move(v), std::min(q, supported > 0 ? supported : q));
}

/// Median of per-round figures (lower middle for even counts, so the value
/// is always one that was measured).
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace perfbench
