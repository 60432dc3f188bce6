// Interval snapshot dumper for live introspection (--stats-dump).
//
// A stats_dumper owns the "previous scrape" of a metrics_registry and turns
// each new scrape into per-interval deltas: counters and histogram counts
// report the increment since the last take, gauges report their current
// reading. Hooked into the background sampler (sampler::set_tick_hook) it
// prints a compact table every N ticks while a traversal runs.
//
// Reset hazard: metrics_registry::reset() may race a running dumper —
// another thread zeroes every counter between two takes, making the current
// total smaller than the remembered one. A naive `cur - prev` underflows to
// a near-2^64 "delta". The dumper clamps instead: when a counter went
// backwards it reports the post-reset total as the interval's delta (the
// count since the reset — everything still attributable to the interval)
// and resynchronizes. Deltas are therefore never negative and never
// underflow, no matter when reset_counters() lands. Covered by
// tests/telemetry/stats_dump_test.cpp.
//
// Threading: take_interval/render/dump serialize on an internal mutex, so
// the sampler thread and a foreground caller may share one dumper.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metrics_registry.hpp"

namespace asyncgt::telemetry {

class stats_dumper {
 public:
  explicit stats_dumper(const metrics_registry* reg) : reg_(reg) {}

  struct delta_entry {
    std::string name;
    metric_kind kind = metric_kind::counter;
    std::uint64_t delta = 0;   // counter/histogram increment this interval
    std::uint64_t total = 0;   // cumulative total at this take
    std::int64_t value = 0;    // gauge reading
    bool changed = false;      // moved since the previous take
  };

  /// Scrapes the registry and returns this interval's deltas, advancing the
  /// remembered baseline. Counters that went backwards (a reset landed
  /// mid-interval) report their post-reset total, never an underflow.
  std::vector<delta_entry> take_interval();

  /// take_interval() formatted as an aligned text table; empty string when
  /// nothing changed this interval (so idle ticks stay silent).
  std::string render();

  /// render() to a stream, with a "-- stats @Ns --" header line. No-op when
  /// nothing changed.
  void dump(std::ostream& out, double t_seconds);

  /// Intervals dumped so far (header counter for tests).
  std::uint64_t dumps() const noexcept {
    std::lock_guard lk(mu_);
    return dumps_;
  }

 private:
  static std::uint64_t clamp_delta(std::uint64_t cur, std::uint64_t prev) {
    return cur >= prev ? cur - prev : cur;
  }

  const metrics_registry* reg_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> prev_;  // counter/histogram baselines
  std::map<std::string, std::int64_t> prev_gauge_;  // last gauge readings
  std::uint64_t dumps_ = 0;
};

}  // namespace asyncgt::telemetry
