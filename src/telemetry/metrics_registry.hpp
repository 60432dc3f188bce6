// The shared named-metric registry: counters, gauges and log2 histograms.
//
// It is the one sink for named metrics (catalog: docs/observability.md).
// Each record is written once, off the hot path, after its numbers are
// final: the service engine accounts every finished queue phase into the
// job's registry, the algorithm finalizers add their work proxies at
// delivery, and tools stamp phase and I/O totals. Per-thread hot-path
// counting lives in the job's metric_scope instead, so every write here is
// one relaxed atomic on an unshared metric.
//
// Concurrency contract:
//   * counter::add / gauge::set / histogram::record are safe from any
//     thread.
//   * get_counter/get_gauge/get_histogram lock briefly; call them once and
//     keep the reference (stable for the registry's lifetime).
//   * scrape() is safe concurrently with writers; it observes each metric
//     with relaxed loads, so an in-flight update may or may not be included
//     (exact totals are only guaranteed once the writers are done).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace asyncgt::telemetry {

namespace detail {
/// Atomically replaces `a` by `v` while `v` beats it (high/low-water mark).
template <typename T, typename Beats>
void store_if(std::atomic<T>& a, T v, Beats beats) noexcept {
  T cur = a.load(std::memory_order_relaxed);
  while (beats(v, cur) &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotone event count.
class counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, bytes resident, ...).
class gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water-mark semantics).
  void record_max(std::int64_t v) noexcept {
    detail::store_if(v_, v, std::greater<>{});
  }
  std::int64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Power-of-two-bucket histogram: bucket i counts values in [2^i, 2^(i+1)),
/// bucket 0 also absorbs 0 — the atomic sibling of util/stats.hpp's
/// log2_histogram. It also keeps the exact minimum and maximum, which bound
/// the interpolated percentiles (exact for a one-valued series).
class histogram {
 public:
  static constexpr std::size_t num_buckets = 64;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    detail::store_if(min_, value, std::less<>{});
    detail::store_if(max_, value, std::greater<>{});
  }

  static std::size_t bucket_of(std::uint64_t value) noexcept {
    std::size_t b = 0;
    while (value >>= 1) ++b;  // floor(log2), 0 for value 0
    return b;
  }

  /// Bucket counts (index i = [2^i, 2^(i+1))).
  std::vector<std::uint64_t> buckets() const {
    std::vector<std::uint64_t> out(num_buckets, 0);
    for (std::size_t i = 0; i < num_buckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Exact smallest / largest recorded value; 0 while empty.
  std::uint64_t min() const noexcept {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == no_min ? 0 : m;
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(no_min, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t no_min =
      std::numeric_limits<std::uint64_t>::max();
  std::atomic<std::uint64_t> buckets_[num_buckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{no_min};
  std::atomic<std::uint64_t> max_{0};
};

enum class metric_kind { counter, gauge, histogram };

/// Immutable view of every registered metric.
struct metrics_snapshot {
  struct entry {
    std::string name;
    metric_kind kind = metric_kind::counter;
    std::uint64_t total = 0;             // counter total / histogram count
    std::int64_t value = 0;              // gauge reading
    std::uint64_t sum = 0;               // histogram value sum
    std::uint64_t min = 0;               // histogram exact min
    std::uint64_t max = 0;               // histogram exact max
    std::vector<std::uint64_t> buckets;  // histogram only (log2 buckets)
  };
  std::vector<entry> entries;

  const entry* find(const std::string& name) const {
    for (const auto& e : entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  /// Counter total / gauge value by name; 0 if absent.
  std::uint64_t value_of(const std::string& name) const {
    const entry* e = find(name);
    if (e == nullptr) return 0;
    if (e->kind == metric_kind::gauge) {
      return e->value < 0 ? 0 : static_cast<std::uint64_t>(e->value);
    }
    return e->total;
  }
};

class metrics_registry {
 public:
  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  /// Finds or creates; the returned reference stays valid for the
  /// registry's lifetime. A name registers exactly one kind — requesting an
  /// existing name as a different kind throws std::logic_error.
  counter& get_counter(const std::string& name);
  gauge& get_gauge(const std::string& name);
  histogram& get_histogram(const std::string& name);

  metrics_snapshot scrape() const;

  /// Zeroes every metric (definitions stay registered).
  void reset();

 private:
  template <typename Metric>
  Metric& find_or_create(std::deque<Metric>& store, metric_kind kind,
                         const std::string& name);

  mutable std::mutex mu_;
  // deques give stable element addresses across registration.
  std::deque<counter> counters_;
  std::deque<gauge> gauges_;
  std::deque<histogram> histograms_;
  struct slot {
    metric_kind kind;
    std::size_t index;
  };
  std::map<std::string, slot> by_name_;
};

}  // namespace asyncgt::telemetry
