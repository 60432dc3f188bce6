// The multithreaded asynchronous prioritized visitor queue — the paper's
// core contribution (§III-A), as the public facade over a layered engine.
//
// Structure. The queue is a set of per-thread prioritized queues; a hash of
// the vertex id selects the owning queue ("each thread 'owns' a queue and
// the queue is selected based on a hash of the vertex identifier"). This
// yields three properties the paper relies on:
//   1. reduced lock contention versus one shared queue,
//   2. exclusive access: all visitors for vertex v execute on owner(v)'s
//      thread, so per-vertex algorithm state needs no locks or atomics,
//   3. statistical load balance: an avalanching hash spreads hub vertices
//      uniformly across queues.
//
// Layers (docs/visitor_queue.md walks through each):
//   routing_policy.hpp   — vertex id -> owning queue (avalanche / identity)
//   ordering_policy.hpp  — per-worker pop discipline (priority/fifo/lifo),
//                          selected once at construction; the hot loop is
//                          monomorphic, with no per-pop order dispatch
//   mailbox.hpp          — batched cross-thread delivery (per-thread outbox
//                          buffers, flush_batch visitors per mutex
//                          acquisition) and the sleep/wake protocol
//   termination.hpp      — the in-flight counter and its batching-aware
//                          quiescence proof
//   traversal_engine.hpp — the worker loop and the pooled run driver
//
// Asynchrony. There are no barriers or level synchronizations anywhere;
// every worker pops its locally-best visitor and runs it immediately.
// Priority ordering is therefore a heuristic (the paper: "we cannot
// guarantee that the absolute shortest-path vertex is visited at each
// step, possibly requiring multiple visits per vertex") — correctness comes
// from label correction in the visitors, not from visit order.
//
// Oversubscription. num_threads is independent of core count; the paper runs
// up to 512 threads on 16 cores both to shrink per-queue contention and, in
// the semi-external setting, to keep enough concurrent reads in flight to
// saturate a flash device.
//
// Observability. The config optionally carries telemetry sinks (see
// docs/observability.md): a trace_writer that receives per-visit spans
// sampled 1-in-N plus worker sleep spans, a sampler that gets queue-depth /
// pending probes registered for the duration of the run, and the job's
// metric_scope, installed as every worker body's ambient attribution. The
// queue records no named metric: each run hands its queue_run_stats to the
// completion callback, and the service engine accounts them. All sinks
// default to null and the hot loop tests one cached pointer per feature;
// bench/micro_primitives measures what they cost.
//
// Visitor concept (see src/core for the algorithm visitors):
//   VertexId vertex() const;                  -- routing key
//   Priority priority() const;                -- smaller visits earlier
//   void visit(State&, Queue&, tid);          -- may push() more visitors
// Visitors must be cheap to move and default-constructible. `Queue` is a
// template parameter: inside a run it is the engine's per-worker handle
// (whose push() appends to thread-local outbox buffers), so visitors must
// not assume it is visitor_queue itself — only that it has push(). `tid` is
// the executing worker's index, usable to index per-thread counters in
// State without contention.
//
// NOTE: this is an internal header. User code includes <asyncgt.hpp> (the
// umbrella) and uses the session API (asyncgt::engine) or the async_* free
// functions; including queue/visitor_queue.hpp — or any other internal
// header — directly from user code is unsupported and may break without
// notice as the layering evolves.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <variant>
#include <vector>

#include "queue/ordering_policy.hpp"
#include "queue/queue_config.hpp"
#include "queue/queue_stats.hpp"
#include "queue/traversal_engine.hpp"
#include "telemetry/sampler.hpp"

namespace asyncgt {

template <typename Visitor, typename State>
class visitor_queue {
 public:
  using vertex_id = decltype(std::declval<const Visitor&>().vertex());

  explicit visitor_queue(visitor_queue_config cfg) : cfg_(cfg) {
    cfg_.validate();
    // The ordering policy is chosen exactly once; every hot-path call from
    // here on runs inside the matching engine instantiation.
    switch (cfg_.order) {
      case queue_order::priority:
        engine_.template emplace<prio_engine>(cfg_);
        break;
      case queue_order::fifo:
        engine_.template emplace<fifo_engine>(cfg_);
        break;
      case queue_order::lifo:
        engine_.template emplace<lifo_engine>(cfg_);
        break;
      case queue_order::hot:
        engine_.template emplace<hot_engine>(cfg_);
        break;
    }
  }

  visitor_queue(const visitor_queue&) = delete;
  visitor_queue& operator=(const visitor_queue&) = delete;

  ~visitor_queue() { unregister_probes(); }

  /// Enqueues a visitor from outside a run (seeding); visitors running
  /// inside a run push through the per-worker handle they receive, not
  /// through this method.
  void push(const Visitor& v) { push(Visitor(v)); }

  /// Move overload: visitors constructed in place (the common case in the
  /// algorithm headers) are forwarded without a copy.
  void push(Visitor&& v) {
    with_engine([&](auto& e) { e.push_external(std::move(v)); });
  }

  /// Runs to quiescence as one gang on cfg.pool and returns at once;
  /// `done(stats, error)` runs once on the finishing pool thread, after the
  /// sampler probes are unregistered. `state` is shared mutable algorithm
  /// state, safe because per-vertex entries are only touched by their
  /// owner thread. error is a traversal_aborted when a body threw (an
  /// io_error, a throwing visitor, bad_alloc) or the run was cancelled;
  /// the queue is reset and reusable. Keep `state` and the queue alive
  /// until `done` ran (asyncgt::engine does; docs/service_api.md).
  template <typename Done>
  void run_async(State& state, Done done) {
    register_probes();
    with_engine(
        [&](auto& e) { e.run_async(state, wrap_done(std::move(done))); });
  }

  /// Seeded run for algorithms that start one visitor per vertex (CC,
  /// PageRank, k-core): `make_visitor` is copied into the gang and called
  /// as const, concurrently, by every worker on its slice of [0, n) — it
  /// must be const-callable and thread-safe (traversal_engine::
  /// run_seeded_async has the pre-accounting argument). Completion as
  /// run_async.
  template <typename MakeVisitor, typename Done>
  void run_seeded_async(State& state, std::uint64_t num_vertices,
                        MakeVisitor make_visitor, Done done) {
    register_probes();
    with_engine([&](auto& e) {
      e.run_seeded_async(state, num_vertices, std::move(make_visitor),
                         wrap_done(std::move(done)));
    });
  }

  /// Gang sweep `body(tid, begin, end)` over lane slices of [0, n); see
  /// traversal_engine::sweep_async.
  template <typename Body, typename Done>
  void sweep_async(std::uint64_t n, Body body, Done done) {
    with_engine([&](auto& e) {
      e.sweep_async(n, std::move(body), std::move(done));
    });
  }

  /// Cooperative cancellation: aborts the current (or next) run promptly;
  /// it completes with traversal_aborted carrying `reason` (first request
  /// wins). Callable from any thread — this is what job::cancel() forwards
  /// to (reason cancelled); the service watchdog and load shedder pass
  /// deadline_exceeded / stalled / shed through the same path.
  void cancel(abort_reason reason = abort_reason::cancelled) {
    with_engine([reason](auto& e) { e.request_cancel(reason); });
  }

  std::size_t num_threads() const noexcept { return cfg_.num_threads; }

  /// In-flight visitor count (the termination counter). Exact at
  /// quiescence; a conservative instantaneous sample while workers run —
  /// this is what the telemetry sampler plots as the frontier size.
  std::int64_t pending() const noexcept {
    return const_cast<visitor_queue*>(this)->with_engine(
        [](auto& e) { return e.pending(); });
  }

  /// Snapshot of every per-thread queue length (locks each mailbox
  /// briefly). Intended for sampler probes and tests, not hot paths.
  std::vector<std::size_t> queue_depths() {
    return with_engine([](auto& e) { return e.queue_depths(); });
  }

 private:
  using prio_engine =
      detail::traversal_engine<Visitor, State, priority_order<Visitor>>;
  using fifo_engine =
      detail::traversal_engine<Visitor, State, fifo_order<Visitor>>;
  using lifo_engine =
      detail::traversal_engine<Visitor, State, lifo_order<Visitor>>;
  using hot_engine =
      detail::traversal_engine<Visitor, State, hot_order<Visitor>>;

  /// Single dispatch point from the runtime order to the monomorphic
  /// engine. The monostate alternative only exists so the variant can be
  /// default-constructed before the constructor emplaces the real engine
  /// (the engines hold mutexes and are neither copyable nor movable).
  template <typename F>
  decltype(auto) with_engine(F&& f) {
    switch (engine_.index()) {
      case 1:
        return f(std::get<1>(engine_));
      case 2:
        return f(std::get<2>(engine_));
      case 3:
        return f(std::get<3>(engine_));
      default:
        return f(std::get<4>(engine_));
    }
  }

  /// Decorates an async completion callback so probes are unregistered
  /// before the caller's `done` observes the result (telemetry teardown is
  /// part of the run on the async path, as on the blocking one).
  template <typename Done>
  auto wrap_done(Done done) {
    return [this, d = std::move(done)](queue_run_stats stats,
                                       std::exception_ptr error) mutable {
      unregister_probes();
      d(std::move(stats), std::move(error));
    };
  }

  void register_probes() {
    if (cfg_.sampler == nullptr || !probe_ids_.empty()) return;
    probe_ids_.push_back(cfg_.sampler->add_probe(
        "queue.pending",
        [this] { return static_cast<double>(pending()); }));
    probe_ids_.push_back(cfg_.sampler->add_probe("queue.depth.total", [this] {
      std::size_t sum = 0;
      for (const std::size_t d : queue_depths()) sum += d;
      return static_cast<double>(sum);
    }));
    probe_ids_.push_back(cfg_.sampler->add_probe("queue.depth.max", [this] {
      std::size_t mx = 0;
      for (const std::size_t d : queue_depths()) mx = std::max(mx, d);
      return static_cast<double>(mx);
    }));
  }

  void unregister_probes() {
    if (cfg_.sampler == nullptr) return;
    for (const auto id : probe_ids_) cfg_.sampler->remove_probe(id);
    probe_ids_.clear();
  }

  visitor_queue_config cfg_;
  std::variant<std::monostate, prio_engine, fifo_engine, lifo_engine,
               hot_engine>
      engine_;
  std::vector<telemetry::sampler::probe_id> probe_ids_;
};

}  // namespace asyncgt
