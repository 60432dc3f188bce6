// Frontier-adaptive hybrid (top-down / bottom-up) traversal.
//
// The paper's engine is purely asynchronous and push-based: every relaxed
// vertex pushes a visitor along each out-edge, so dense frontiers — the
// middle levels of a small-world BFS, the first waves of CC — inspect far
// more edges than they relax. Direction-optimizing traversal (Beamer,
// Buluç, Patterson, SC'12) flips those dense phases around: instead of the
// frontier pushing out-edges, every *unvisited* vertex scans its in-edges
// for a frontier parent and stops at the first hit. With a reverse view on
// the graph (csr_graph::ensure_reverse / sem_csr::open_reverse) the sweep
// is an early-exit scan and the total edges inspected drop by the ratio the
// bench harness (bench/ext_structure_sweep --hybrid) measures.
//
// This header grafts that idea onto the asynchronous engine without
// abandoning its label-correcting semantics (docs/hybrid_traversal.md
// walks through the proof obligations). A hybrid traversal is one phased
// job on asyncgt::engine: its step hook runs between phases, applies the
// last phase's output, and picks the next direction:
//
//   * Top-down phases are queue runs capped at a level horizon: a visitor
//     carrying a level >= horizon defers itself into a per-lane buffer
//     instead of relaxing. At quiescence every label < horizon is exact,
//     and the deferred buffers hold exactly the candidate edges into the
//     next level — both the next frontier and the m_f input to the alpha
//     test.
//   * Bottom-up phases are gang sweeps over the still-unvisited
//     candidates' in-edges on the job's lanes (per-lane claim lists the
//     step applies afterwards — race-free by construction).
//   * The final flip back seeds "expand" visitors (push your out-edges,
//     relabel nothing) for the last bottom-up wave and runs the queue with
//     an infinite horizon: from an exact frontier, plain asynchronous label
//     correction converges to the identical fixed point as the pure-async
//     run. The diff harness (ctest -L diff) asserts bit-identical labels on
//     both IM and SEM backends.
//
// The alpha/beta switch thresholds live in queue/frontier_estimator.hpp
// and come in through traversal_options (--hybrid-alpha / --hybrid-beta).
#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/frontier_estimator.hpp"
#include "service/engine.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {

/// One direction phase of a hybrid run, for observability: bench reports
/// serialize these under "phases" and compare_bench_json watches the
/// edge_inspections totals.
struct hybrid_phase {
  std::string direction;  // "top-down" | "bottom-up" | "async-tail"
  std::uint64_t depth = 0;             // BFS level computed / CC sweep index
  std::uint64_t edge_inspections = 0;  // edges scanned during this phase
  std::uint64_t frontier = 0;          // wave size the phase produced
};

/// Side-channel detail a hybrid run fills in when the caller passes one.
struct hybrid_extra {
  std::uint64_t direction_switches = 0;
  std::uint64_t edge_inspections = 0;  // sum over phases
  std::vector<hybrid_phase> phases;
};

/// What both hybrid job states carry besides labels and per-lane buffers.
struct hybrid_common {
  sharded_counter updates;
  sharded_counter inspected;  // edges scanned, all phases
  /// On the heap: the job's queue config points at it, the state moves.
  std::unique_ptr<frontier_estimator> est;
  hybrid_extra extra;
  std::uint64_t inspected_before = 0;  // at the last phase launch
  /// Sweep work (claims, CC label changes), each morally one visit: keeps
  /// the aggregate work proxies (wasted_visits = visits - updates) sane.
  std::uint64_t sweep_visits = 0;

  hybrid_common(std::size_t num_threads, double alpha, double beta)
      : updates(num_threads),
        inspected(num_threads),
        est(std::make_unique<frontier_estimator>(alpha, beta)) {}

  /// Records a finished phase's inspections into the per-phase breakdown.
  void note_phase(const char* dir, std::uint64_t depth,
                  std::uint64_t frontier) {
    extra.phases.push_back(
        {dir, depth, inspected.total() - inspected_before, frontier});
  }
};

template <typename Graph>
struct hybrid_bfs_state : hybrid_common {
  using V = typename Graph::vertex_id;
  enum class direction { top_down, bottom_up, async_tail };

  const Graph* g = nullptr;
  std::vector<dist_t> level;
  std::vector<V> parent;
  /// Visitors at level >= horizon defer instead of relaxing; the step
  /// raises this one level per capped run and sets it to
  /// infinite_distance for the final asynchronous tail.
  dist_t horizon = infinite_distance<dist_t>;
  /// Per-lane (vertex, parent) candidates for level depth+1: deferred by a
  /// capped run's visitors or claimed by a bottom-up sweep (cache-line
  /// padded: lanes append concurrently to their own).
  std::vector<padded<std::vector<std::pair<V, V>>>> next;

  // Driver state, touched only by the between-phase step.
  direction dir = direction::top_down;  // of the phase last launched
  std::vector<V> wave;                  // vertices newly labelled at depth
  dist_t depth = 0;
  /// m_u: out-edges still owned by unvisited vertices (the alpha test's
  /// denominator); maintained incrementally as waves land.
  std::uint64_t m_u = 0;

  hybrid_bfs_state(const Graph& graph, V start, std::size_t num_threads,
                   double alpha, double beta)
      : hybrid_common(num_threads, alpha, beta),
        g(&graph),
        level(graph.num_vertices(), infinite_distance<dist_t>),
        parent(graph.num_vertices(), invalid_vertex<V>),
        next(num_threads),
        wave{start},
        m_u(graph.num_edges() - graph.out_degree(start)) {
    // Level 0 is applied directly.
    level[start] = 0;
    parent[start] = start;
    updates.add(0);
  }
};

template <typename VertexId>
struct hybrid_bfs_visitor {
  VertexId vtx{};
  VertexId cur_parent{};
  dist_t cur_level = 0;
  /// Flip-back seed: vtx already holds cur_level; push its out-edges
  /// without relabeling (the bottom-up sweep did the relabeling).
  bool expand = false;

  VertexId vertex() const noexcept { return vtx; }
  dist_t priority() const noexcept { return cur_level; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (expand) {
      if (s.level[vtx] == cur_level) push_out_edges(s, q, tid);
      return;
    }
    if (cur_level < s.level[vtx]) {
      if (cur_level >= s.horizon) {
        s.next[tid].value.emplace_back(vtx, cur_parent);
        return;
      }
      s.level[vtx] = cur_level;
      s.parent[vtx] = cur_parent;
      s.updates.add(tid);
      push_out_edges(s, q, tid);
    }
  }

  template <typename State, typename Queue>
  void push_out_edges(State& s, Queue& q, std::size_t tid) const {
    const std::uint64_t d = s.g->out_degree(vtx);
    s.inspected.add(tid, d);
    telemetry::metric_scope::count_edges(d);
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      q.push(hybrid_bfs_visitor{vj, vtx, cur_level + 1, false});
    });
  }
};

template <typename Graph>
struct hybrid_cc_state : hybrid_common {
  using V = typename Graph::vertex_id;

  const Graph* g = nullptr;
  std::vector<V> ccid;
  /// Jacobi double buffer: a sweep reads ccid and writes next_ccid.
  std::vector<V> next_ccid;
  /// Per-lane lists of the vertices the last sweep lowered.
  std::vector<padded<std::vector<V>>> changed;

  // Driver state, touched only by the between-phase step.
  std::uint64_t sweeps = 0;
  bool in_tail = false;

  hybrid_cc_state(const Graph& graph, std::size_t num_threads, double alpha,
                  double beta)
      : hybrid_common(num_threads, alpha, beta),
        g(&graph),
        ccid(graph.num_vertices()),
        next_ccid(graph.num_vertices()),
        changed(num_threads) {
    std::iota(ccid.begin(), ccid.end(), V{0});
  }
};

template <typename VertexId>
struct hybrid_cc_visitor {
  VertexId vtx{};
  VertexId cur_ccid{};
  /// Flip-back seed: vtx already holds cur_ccid; push it to the neighbours
  /// without relabeling.
  bool expand = false;

  VertexId vertex() const noexcept { return vtx; }
  VertexId priority() const noexcept { return cur_ccid; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (expand ? s.ccid[vtx] != cur_ccid : cur_ccid >= s.ccid[vtx]) return;
    if (!expand) {
      s.ccid[vtx] = cur_ccid;
      s.updates.add(tid);
    }
    const std::uint64_t d = s.g->out_degree(vtx);
    s.inspected.add(tid, d);
    telemetry::metric_scope::count_edges(d);
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      q.push(hybrid_cc_visitor{vj, cur_ccid, false});
    });
  }
};

namespace detail {

template <typename Graph>
void require_reverse(const Graph& g, const char* what) {
  if (!g.has_reverse()) {
    throw std::invalid_argument(
        std::string(what) +
        ": graph has no reverse view (ensure_reverse / open_reverse first)");
  }
}

/// Shared finalize tail (attributed to the job): sweep work counts as
/// visits in the result and the job's scope; the breakdown is published and
/// the direction metrics are recorded into the job's registry.
inline void finish_hybrid(hybrid_common& s, queue_run_stats& stats,
                          hybrid_extra* out, const char* algo) {
  stats.visits += s.sweep_visits;
  if (telemetry::metric_scope* sc = telemetry::metric_scope::current()) {
    sc->add(telemetry::metric_scope::hot::visits,
            telemetry::metric_scope::current_shard(), s.sweep_visits);
  }
  s.extra.edge_inspections = s.inspected.total();
  if (telemetry::metrics_registry* m =
          telemetry::metric_scope::current_metrics()) {
    m->get_counter("engine.direction_switches")
        .add(s.extra.direction_switches);
    m->get_counter(std::string(algo) + ".edge_inspections")
        .add(s.extra.edge_inspections);
    m->get_gauge("queue.frontier_peak")
        .record_max(static_cast<std::int64_t>(s.est->peak_queued()));
  }
  if (out != nullptr) *out = std::move(s.extra);
}

/// Hybrid BFS step: applies the last phase's level depth+1 candidates
/// (first per vertex wins), then launches the direction that computes the
/// next level — or finishes on an empty wave or a completed tail.
template <typename Ctl>
void hybrid_bfs_step(Ctl& ctl) {
  auto& s = ctl.state;
  using state_t = std::remove_reference_t<decltype(s)>;
  using V = typename state_t::V;
  using direction = typename state_t::direction;
  const std::uint64_t n = s.g->num_vertices();

  if (ctl.phases_finished > 0) {
    if (s.dir == direction::async_tail) {
      s.note_phase("async-tail", s.depth + 1, 0);
      return;
    }
    std::vector<V> wave;
    for (auto& lane : s.next) {
      for (const auto& [v, p] : lane.value) {
        if (s.depth + 1 < s.level[v]) {
          s.level[v] = s.depth + 1;
          s.parent[v] = p;
          s.updates.add(0);
          wave.push_back(v);
        }
      }
      lane.value.clear();
    }
    if (s.dir == direction::bottom_up) s.sweep_visits += wave.size();
    ++s.depth;
    for (const V v : wave) s.m_u -= s.g->out_degree(v);
    s.note_phase(s.dir == direction::top_down ? "top-down" : "bottom-up",
                 s.depth, wave.size());
    s.wave = std::move(wave);
  }
  if (s.wave.empty()) return;

  s.est->sample(s.wave.size());
  if (s.dir == direction::top_down) {
    std::uint64_t m_f = 0;
    for (const V v : s.wave) m_f += s.g->out_degree(v);
    if (s.est->go_bottom_up(m_f, s.m_u)) {
      s.dir = direction::bottom_up;
      ++s.extra.direction_switches;
    }
  } else if (s.dir == direction::bottom_up &&
             !s.est->stay_bottom_up(s.wave.size(), n)) {
    s.dir = direction::async_tail;
    ++s.extra.direction_switches;
  }
  s.inspected_before = s.inspected.total();

  if (s.dir != direction::bottom_up) {
    // Expanders push the wave's out-edges. Capped, every level depth+1
    // candidate defers itself, so quiescence leaves exactly the next
    // level's candidates; uncapped (the tail), plain asynchronous label
    // correction finishes the traversal from the exact frontier.
    s.horizon = s.dir == direction::top_down ? s.depth + 1
                                             : infinite_distance<dist_t>;
    for (const V v : s.wave) {
      ctl.queue.push(hybrid_bfs_visitor<V>{v, v, s.depth, true});
    }
    ctl.run();
    return;
  }

  // Every unvisited vertex scans its in-edges for a parent at `depth`,
  // stopping (for accounting) at the first hit.
  ctl.sweep(n, [&s](std::size_t tid, std::uint64_t b, std::uint64_t e) {
    std::uint64_t scanned = 0;
    for (std::uint64_t i = b; i < e; ++i) {
      if (s.level[i] != infinite_distance<dist_t>) continue;
      const V v = static_cast<V>(i);
      bool claimed = false;
      s.g->for_each_in_edge(v, [&](V u, weight_t) {
        if (claimed) return;
        ++scanned;
        if (s.level[u] == s.depth) {
          claimed = true;
          s.next[tid].value.emplace_back(v, u);
        }
      });
    }
    s.inspected.add(tid, scanned);
    telemetry::metric_scope::count_edges(scanned);
  });
}

/// Hybrid CC step: folds the last sweep in (on the first call, the own-id
/// initialization), then sweeps again while the change count stays above
/// n/beta, flips to the asynchronous push tail seeded with the last
/// sweep's changed set, or finishes.
template <typename Ctl>
void hybrid_cc_step(Ctl& ctl) {
  auto& s = ctl.state;
  using V = typename std::remove_reference_t<decltype(s)>::V;
  const std::uint64_t n = s.ccid.size();

  std::uint64_t changed = n;
  if (ctl.phases_finished == 0) {
    // Initialization to the own id is every vertex's first relaxation (the
    // async seeding does the same against the invalid init label), so the
    // aggregate work proxies stay well-defined: updates >= n, and
    // cc_result::work()'s label_corrections = updates - n never wraps.
    s.updates.add(0, n);
    s.sweep_visits += n;
  } else if (s.in_tail) {
    s.note_phase("async-tail", s.sweeps + 1, 0);
    return;
  } else {
    std::swap(s.ccid, s.next_ccid);
    changed = 0;
    for (const auto& lane : s.changed) changed += lane.value.size();
    s.updates.add(0, changed);
    s.sweep_visits += changed;
    s.est->sample(changed);
    s.note_phase("bottom-up", ++s.sweeps, changed);
  }
  if (changed == 0) return;
  s.inspected_before = s.inspected.total();

  if (s.sweeps == 0 || s.est->stay_bottom_up(changed, n)) {
    for (auto& lane : s.changed) lane.value.clear();
    ctl.sweep(n, [&s](std::size_t tid, std::uint64_t b, std::uint64_t e) {
      std::uint64_t scanned = 0;
      for (std::uint64_t v = b; v < e; ++v) {
        V m = s.ccid[v];
        s.g->for_each_in_edge(static_cast<V>(v), [&](V u, weight_t) {
          ++scanned;
          if (s.ccid[u] < m) m = s.ccid[u];
        });
        s.next_ccid[v] = m;
        if (m < s.ccid[v]) s.changed[tid].value.push_back(V(v));
      }
      s.inspected.add(tid, scanned);
      telemetry::metric_scope::count_edges(scanned);
    });
    return;
  }
  ++s.extra.direction_switches;
  s.in_tail = true;
  for (const auto& lane : s.changed) {
    for (const V v : lane.value) {
      ctl.queue.push(hybrid_cc_visitor<V>{v, s.ccid[v], true});
    }
  }
  ctl.run();
}

}  // namespace detail

/// Session API: submits a hybrid BFS job. Requires a reverse view on `g`
/// (throws std::invalid_argument otherwise); produces exactly async_bfs's
/// labels.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_hybrid_bfs(
    const Graph& g, typename Graph::vertex_id start, hybrid_extra* extra,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("hybrid_bfs: start vertex out of range");
  }
  detail::require_reverse(g, "hybrid_bfs");
  traversal_options t = resolve(opts);
  hybrid_bfs_state<Graph> state(g, start, t.queue.num_threads,
                                t.hybrid_alpha, t.hybrid_beta);
  t.queue.estimator = state.est.get();
  return submit_phased<hybrid_bfs_visitor<V>>(
      std::move(t), std::move(state),
      [](auto& ctl) { detail::hybrid_bfs_step(ctl); },
      [extra](hybrid_bfs_state<Graph>& s, queue_run_stats stats) {
        detail::finish_hybrid(s, stats, extra, "hybrid_bfs");
        return take_bfs_result(s, std::move(stats), "hybrid_bfs");
      },
      "hybrid_bfs");
}

/// Session API: submits a hybrid CC job for an undirected (symmetric)
/// graph. Starts bottom-up — every vertex's label is its own id, so the
/// "frontier" is the whole graph and Jacobi pull sweeps over in-edges relax
/// it wholesale — then flips to the asynchronous push tail once the
/// per-sweep change count drops below n/beta. Seeding the tail with only
/// the final sweep's changed vertices is sound: a double-buffered sweep
/// that leaves both endpoints of an edge unchanged has already ordered
/// their labels, so every possible future relaxation traces back to a
/// changed vertex. Produces exactly async_cc's labels (the min reachable id
/// per vertex).
template <typename Graph>
job<cc_result<typename Graph::vertex_id>> engine::submit_hybrid_cc(
    const Graph& g, hybrid_extra* extra,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  detail::require_reverse(g, "hybrid_cc");
  traversal_options t = resolve(opts);
  hybrid_cc_state<Graph> state(g, t.queue.num_threads, t.hybrid_alpha,
                               t.hybrid_beta);
  t.queue.estimator = state.est.get();
  return submit_phased<hybrid_cc_visitor<V>>(
      std::move(t), std::move(state),
      [](auto& ctl) { detail::hybrid_cc_step(ctl); },
      [extra](hybrid_cc_state<Graph>& s, queue_run_stats stats) {
        detail::finish_hybrid(s, stats, extra, "hybrid_cc");
        return take_cc_result(s, std::move(stats), "hybrid_cc");
      },
      "hybrid_cc");
}

// ---- One-shot wrappers over the process-local engine (submit + get) ----

/// `extra`, when non-null, receives the per-phase direction/inspection
/// breakdown.
template <typename Graph>
bfs_result<typename Graph::vertex_id> hybrid_bfs(
    const Graph& g, typename Graph::vertex_id start,
    traversal_options opts = {}, hybrid_extra* extra = nullptr) {
  return engine::process_default()
      .submit_hybrid_bfs(g, start, extra, std::move(opts))
      .get();
}

template <typename Graph>
cc_result<typename Graph::vertex_id> hybrid_cc(const Graph& g,
                                               traversal_options opts = {},
                                               hybrid_extra* extra = nullptr) {
  return engine::process_default()
      .submit_hybrid_cc(g, extra, std::move(opts))
      .get();
}

}  // namespace asyncgt
