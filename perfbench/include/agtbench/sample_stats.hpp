// Exact order statistics over raw samples.
//
// Every timing the benchmark reports is computed here from the full list of
// samples, never from a bucketed histogram: at the sample counts one run
// produces (a handful to a few hundred), bucket boundaries would dominate
// the answer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace agtbench {

/// Quantile q in [0, 1] by linear interpolation between the two nearest
/// order statistics (the "type 7" rule of R and NumPy's default): q = 0 is
/// the minimum, q = 1 the maximum, and q = k/(n-1) lands exactly on the
/// k-th smallest sample. Throws on an empty input or q outside [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile outside [0, 1]");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The tail a sample set can support: the highest percentile that still
/// has at least `beyond` samples ranked above it. With n sorted samples
/// that is the order statistic of rank n-1-beyond, at percentile
/// 100*(n-1-beyond)/(n-1). Fewer than beyond+1 samples support no tail.
struct tail_point {
  bool valid = false;
  double percentile = 0.0;  ///< in [0, 100]
  double value = 0.0;
};

inline tail_point supported_tail(std::vector<double> v,
                                 std::size_t beyond = 10) {
  tail_point t;
  if (v.size() < beyond + 1) return t;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 1 - beyond;
  t.valid = true;
  t.percentile = v.size() == 1 ? 100.0
                               : 100.0 * static_cast<double>(k) /
                                     static_cast<double>(v.size() - 1);
  t.value = v[k];
  return t;
}

}  // namespace agtbench
