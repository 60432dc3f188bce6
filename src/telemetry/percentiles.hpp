// p50/p95/p99 derivation from log2 bucket counts.
//
// Both histogram flavours in this tree (telemetry::histogram,
// io_recorder's latency buckets, util/stats.hpp's log2_histogram) bucket by
// power of two: bucket i counts values in [2^i, 2^(i+1)), bucket 0 also
// absorbing 0. That loses exact order statistics but keeps recording to one
// relaxed add — this header recovers quantile *estimates* at scrape time by
// linear interpolation inside the containing bucket. Bucket boundaries
// chain (hi of bucket i == lo of bucket i+1), so the estimate is continuous
// and monotone in p: p50 <= p95 <= p99 by construction, which is exactly
// what tools/check_bench_json.py enforces on every emitted report.
//
// The bucket upper bound can exceed the largest recorded value by up to 2x;
// pass the exact recorded maximum as `clamp_max` where one is tracked
// (io_recorder does) so p99 <= max also holds. Registry histograms track
// their exact min and max; percentiles_in_range clamps into that range.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace asyncgt::telemetry {

/// Interpolated percentile (`p` in [0, 100]) over log2 bucket counts.
/// Returns 0 for an empty histogram. `clamp_max` > 0 caps the estimate at
/// the exact recorded maximum.
inline double percentile_from_log2(const std::vector<std::uint64_t>& buckets,
                                   double p, double clamp_max = 0.0) {
  std::uint64_t total = 0;
  for (const auto c : buckets) total += c;
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  double result = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
    const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
    const double count = static_cast<double>(buckets[i]);
    if (cum + count >= rank) {
      const double frac = rank > cum ? (rank - cum) / count : 0.0;
      result = lo + frac * (hi - lo);
      break;
    }
    cum += count;
    result = hi;  // floating-point slack: fall through to the last bucket end
  }
  if (clamp_max > 0.0 && result > clamp_max) result = clamp_max;
  return result;
}

struct percentile_set {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline percentile_set percentiles_from_log2(
    const std::vector<std::uint64_t>& buckets, double clamp_max = 0.0) {
  percentile_set out;
  out.p50 = percentile_from_log2(buckets, 50.0, clamp_max);
  out.p95 = percentile_from_log2(buckets, 95.0, clamp_max);
  out.p99 = percentile_from_log2(buckets, 99.0, clamp_max);
  return out;
}

/// Percentiles clamped into the exact recorded range [lo, hi] (registry
/// histograms keep their min and max), so min <= p50 <= p95 <= p99 <= max
/// holds and a one-valued series reports that value.
inline percentile_set percentiles_in_range(
    const std::vector<std::uint64_t>& buckets, double lo, double hi) {
  percentile_set p = percentiles_from_log2(buckets);
  p.p50 = std::clamp(p.p50, lo, hi);
  p.p95 = std::clamp(p.p95, lo, hi);
  p.p99 = std::clamp(p.p99, lo, hi);
  return p;
}

}  // namespace asyncgt::telemetry
