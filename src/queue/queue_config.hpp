// Configuration surface of the layered traversal engine.
//
// Kept in its own header so every layer (routing_policy, ordering_policy,
// mailbox, termination, traversal_engine) can consume the config without
// pulling in the visitor_queue facade. See docs/visitor_queue.md for the
// four-layer architecture this configures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "queue/frontier_estimator.hpp"
#include "telemetry/metric_scope.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"

namespace asyncgt {

// Forward-declared so this header stays below the service layer: the engine
// only ever holds a pointer to the pool (src/service/worker_pool.hpp), and
// traversal_engine.hpp includes the full definition.
namespace service {
class worker_pool;
}

// Forward-declared so configs can carry the advisory pointer without the
// full interface; the engine and hot_order include hot_advisor.hpp.
class hot_advisor;

/// Visitor pop ordering. `priority` is the paper's design; `fifo` and `lifo`
/// exist for the ablation bench that quantifies what the prioritization buys;
/// `hot` is the two-band hot-block mode (priority order within each band,
/// but visitors whose adjacency block is cache-resident or pressure-hot pop
/// first — see hot_advisor.hpp and docs/hot_blocks.md).
/// The value selects one of four compile-time ordering policies
/// (ordering_policy.hpp) once at queue construction — the hot pop loop runs
/// inside the selected instantiation and pays no per-pop dispatch.
enum class queue_order { priority, fifo, lifo, hot };

struct visitor_queue_config {
  std::size_t num_threads = 4;
  queue_order order = queue_order::priority;
  /// Secondary sort by vertex id within equal priorities — the paper's
  /// semi-external locality optimization (§IV-C). Harmless in-memory.
  bool secondary_vertex_sort = false;
  /// Route with the raw id (v % threads) instead of the avalanching hash;
  /// used by the load-balance ablation.
  bool identity_hash = false;

  /// Cross-thread delivery batch size B (mailbox layer). Pushes from inside
  /// visitors append lock-free to a per-thread outbox buffer per destination
  /// and are delivered — one destination-mutex acquisition plus one batched
  /// termination-counter update — only when the buffer holds B visitors (or
  /// at flush-on-idle / flush-before-sleep, which keep termination exact).
  /// 1 reproduces the seed's per-push delivery; 64 amortizes both per-push
  /// costs ~64x on fan-out-heavy traversals.
  std::size_t flush_batch = 64;

  /// Optional telemetry sinks (all borrowed, all nullable — null means the
  /// corresponding instrumentation compiles to a predictable branch).
  /// per-visit spans, 1 in traversal_engine::trace_sample_every per worker
  telemetry::trace_writer* trace = nullptr;
  telemetry::sampler* sampler = nullptr;     ///< depth/pending probes

  /// Per-job attribution scope (borrowed, nullable). When set, the engine
  /// installs it as the calling thread's ambient metric_scope for the
  /// duration of every worker body (telemetry/metric_scope.hpp) and marks
  /// the job's run start, so deep layers (io_recorder, the visitors) charge
  /// the job. asyncgt::engine wires one scope per submitted job and
  /// accounts each run's stats into it; null costs nothing.
  telemetry::metric_scope* scope = nullptr;

  /// Frontier-density estimator (borrowed, nullable). When set, every
  /// worker samples the in-flight visitor count into it at its
  /// flush-on-idle / termination-commit checkpoints — the cheap points
  /// where the termination counter is meaningful. The hybrid phase driver
  /// (core/hybrid_traversal.hpp) wires one per job to make its direction
  /// decisions and records its peak as `queue.frontier_peak`; null costs
  /// one predictable branch per idle transition.
  frontier_estimator* estimator = nullptr;

  /// Hot-vertex advisor (borrowed, nullable). With `order == hot` this is
  /// the signal source for the two-band pop discipline: hot_order asks it
  /// is_hot() at push time, and the engine feeds it on_enqueue/on_complete
  /// at delivery/visit time (which is how the SEM block_pressure tracker
  /// stays live). Null degrades hot ordering to plain priority order and
  /// costs the other orderings nothing. sem_config::open() builds and wires
  /// one when requested (docs/hot_blocks.md).
  hot_advisor* advisor = nullptr;

  /// Borrowed worker pool (required): every run is one gang of its parked
  /// threads. asyncgt::engine sets it on each job config; queue-layer tests
  /// and micro benches bring their own.
  service::worker_pool* pool = nullptr;

  void validate() const {
    if (pool == nullptr) {
      throw std::invalid_argument("visitor_queue: needs a worker pool");
    }
    if (num_threads == 0) {
      throw std::invalid_argument("visitor_queue: need at least one thread");
    }
    if (flush_batch == 0) {
      throw std::invalid_argument("visitor_queue: flush_batch must be >= 1");
    }
  }
};

}  // namespace asyncgt
