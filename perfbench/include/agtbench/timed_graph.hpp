// A forwarding Graph adaptor that times adjacency calls from outside.
//
// timed_graph<G> models the same GraphStorage concept as G (csr_graph,
// sem::sem_csr, overlay_view): every query is forwarded unchanged, so
// labels through the adaptor equal labels without it. for_each_out_edge /
// for_each_in_edge are additionally metered: the adaptor counts every call
// and every edge exactly, and on one call in `sample_every` it reads a
// steady clock three times — at the call, at the first edge callback, and
// at the return:
//
//   call start -> first callback = the storage layer's own fetch time (the
//                                  offset lookup in memory; cache probe,
//                                  pread and simulated device wait on SEM);
//   first callback -> return     = the edge callbacks, i.e. the visitor's
//                                  q.push path (plus the per-edge loop
//                                  step between them).
//
// Timing each callback separately would cost two clock reads per edge, far
// more than an in-memory push, and its residue would inflate the scaled
// totals; three reads per sampled call keep the estimate nearly unbiased.
// Counts are exact; times are the sampled sums scaled by calls/sampled
// calls, per lane, minus the calibrated cost of the clock reads. Each lane
// (thread) owns one cache line of relaxed atomics, so metering adds no
// contention and no data race.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "graph/types.hpp"

namespace agtbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Mean cost of one steady_clock read, measured once per process.
inline double clock_read_ns() {
  static const double cost = [] {
    constexpr int reads = 200000;
    const std::int64_t t0 = now_ns();
    std::int64_t last = t0;
    for (int i = 0; i < reads; ++i) last = now_ns();
    return static_cast<double>(last - t0) / reads;
  }();
  return cost;
}

/// Small per-thread index, assigned on first use. Lanes of one meter are
/// indexed by it; 64 slots cover any pool this benchmark builds.
inline std::size_t lane_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Scaled totals of one meter, in seconds.
struct adjacency_totals {
  std::uint64_t calls = 0;
  std::uint64_t edges = 0;
  std::uint64_t sampled_calls = 0;
  double call_s = 0.0;      ///< whole adjacency calls, callbacks included
  double callback_s = 0.0;  ///< first edge callback -> return

  /// The storage layer's own time: call minus callback, never negative.
  double fetch_self_s() const noexcept {
    return call_s > callback_s ? call_s - callback_s : 0.0;
  }
};

class adjacency_meter {
 public:
  static constexpr std::size_t max_lanes = 64;

  explicit adjacency_meter(std::uint32_t sample_every = 16)
      : sample_every_(sample_every == 0 ? 1 : sample_every) {}

  adjacency_meter(const adjacency_meter&) = delete;
  adjacency_meter& operator=(const adjacency_meter&) = delete;

  /// Runs `iterate(cb)` — one adjacency call whose edges reach `cb` — and
  /// meters it, forwarding every edge to `f`.
  template <typename VertexId, typename Iterate, typename F>
  void measure(Iterate&& iterate, F&& f) const {
    lane& l = lanes_[lane_slot() % max_lanes];
    const std::uint64_t call = bump(l.calls, 1);
    std::uint64_t edges = 0;
    if (call % sample_every_ != 0) {
      iterate([&](VertexId t, asyncgt::weight_t w) {
        ++edges;
        f(t, w);
      });
      bump(l.edges, edges);
      return;
    }
    std::int64_t first = 0;
    const std::int64_t t0 = now_ns();
    iterate([&](VertexId t, asyncgt::weight_t w) {
      if (edges++ == 0) first = now_ns();
      f(t, w);
    });
    const std::int64_t t1 = now_ns();
    bump(l.edges, edges);
    bump(l.sampled, 1);
    bump(l.call_ns, static_cast<std::uint64_t>(t1 - t0));
    if (edges > 0) {
      bump(l.sampled_with_edges, 1);
      bump(l.callback_ns, static_cast<std::uint64_t>(t1 - first));
    }
  }

  /// Sums the lanes, scaling each lane's sampled times by its
  /// calls/sampled-calls ratio after removing the clock reads: about one
  /// read per sampled call falls in the fetch part and one in the callback
  /// part of calls that had edges.
  adjacency_totals totals() const {
    adjacency_totals t;
    const double clock = clock_read_ns();
    for (const lane& l : lanes_) {
      const std::uint64_t calls = l.calls.load(std::memory_order_relaxed);
      const std::uint64_t sampled = l.sampled.load(std::memory_order_relaxed);
      t.calls += calls;
      t.edges += l.edges.load(std::memory_order_relaxed);
      t.sampled_calls += sampled;
      if (sampled == 0) continue;
      const double scale =
          static_cast<double>(calls) / static_cast<double>(sampled);
      const auto with_edges = static_cast<double>(
          l.sampled_with_edges.load(std::memory_order_relaxed));
      const auto corrected = [&](std::uint64_t raw_ns, double reads) {
        const double ns = static_cast<double>(raw_ns) - reads * clock;
        return ns > 0.0 ? ns * scale * 1e-9 : 0.0;
      };
      t.call_s += corrected(l.call_ns.load(std::memory_order_relaxed),
                            static_cast<double>(sampled) + with_edges);
      t.callback_s += corrected(
          l.callback_ns.load(std::memory_order_relaxed), with_edges);
    }
    if (t.callback_s > t.call_s) t.callback_s = t.call_s;
    return t;
  }

 private:
  struct alignas(64) lane {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> sampled{0};
    std::atomic<std::uint64_t> sampled_with_edges{0};
    std::atomic<std::uint64_t> call_ns{0};
    std::atomic<std::uint64_t> callback_ns{0};
  };

  /// Single-writer increment: only the owning thread writes its lane.
  static std::uint64_t bump(std::atomic<std::uint64_t>& a, std::uint64_t n) {
    const std::uint64_t v = a.load(std::memory_order_relaxed) + n;
    a.store(v, std::memory_order_relaxed);
    return v;
  }

  std::uint32_t sample_every_;
  mutable std::array<lane, max_lanes> lanes_{};
};

/// Forwarding adaptor: G's GraphStorage surface, with out- and in-edge
/// iteration metered on separate meters (out-edge callbacks are pushes;
/// in-edge callbacks are the hybrid bottom-up scan). The adaptor borrows
/// both the graph and the meters; all three must outlive every job that
/// traverses it.
template <typename Graph>
class timed_graph {
 public:
  using vertex_id = typename Graph::vertex_id;

  timed_graph(const Graph& g, const adjacency_meter& out,
              const adjacency_meter& in)
      : g_(&g), out_(&out), in_(&in) {}

  std::uint64_t num_vertices() const noexcept { return g_->num_vertices(); }
  std::uint64_t num_edges() const noexcept { return g_->num_edges(); }
  bool is_weighted() const noexcept { return g_->is_weighted(); }
  std::uint64_t out_degree(vertex_id v) const { return g_->out_degree(v); }
  bool has_reverse() const noexcept { return g_->has_reverse(); }
  std::uint64_t in_degree(vertex_id v) const { return g_->in_degree(v); }

  template <typename F>
  void for_each_out_edge(vertex_id v, F&& f) const {
    out_->measure<vertex_id>(
        [&](auto&& cb) { g_->for_each_out_edge(v, cb); }, f);
  }

  template <typename F>
  void for_each_in_edge(vertex_id v, F&& f) const {
    in_->measure<vertex_id>(
        [&](auto&& cb) { g_->for_each_in_edge(v, cb); }, f);
  }

 private:
  const Graph* g_;
  const adjacency_meter* out_;
  const adjacency_meter* in_;
};

}  // namespace agtbench
