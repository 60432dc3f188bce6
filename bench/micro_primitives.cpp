// google-benchmark microbenchmarks for the hot primitives under the visitor
// queue: the d-ary heap (vs std::priority_queue), the routing hash, the
// spinlock (vs std::mutex), the RNG pipeline feeding the generators, and the
// telemetry layer's cost (BM_VisitorQueueTelemetry*: sinks off vs the sinks
// the engine attaches to a job; docs/observability.md reports the measured
// medians and spread).
// These guard against regressions in the building blocks; the paper-level
// experiments live in the table*/fig*/ablation* binaries.
#include <benchmark/benchmark.h>

#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <random>

#include "queue/dary_heap.hpp"
#include "queue/visitor_queue.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/metric_scope.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace {

using asyncgt::dary_heap;

void BM_DaryHeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  asyncgt::xoshiro256ss rng(1);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    dary_heap<std::uint64_t, std::less<std::uint64_t>> h;
    for (const auto v : values) h.push(v);
    std::uint64_t sink = 0;
    while (!h.empty()) sink ^= h.pop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_DaryHeapPushPop)->Arg(1024)->Arg(65536);

void BM_StdPriorityQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  asyncgt::xoshiro256ss rng(1);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        h;
    for (const auto v : values) h.push(v);
    std::uint64_t sink = 0;
    while (!h.empty()) {
      sink ^= h.top();
      h.pop();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_StdPriorityQueuePushPop)->Arg(1024)->Arg(65536);

void BM_Mix64Routing(benchmark::State& state) {
  std::uint64_t v = 0;
  std::size_t sink = 0;
  for (auto _ : state) {
    sink ^= asyncgt::queue_of(v++, 512);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mix64Routing);

void BM_SpinlockUncontended(benchmark::State& state) {
  asyncgt::spinlock lock;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_SpinlockUncontended);

void BM_MutexUncontended(benchmark::State& state) {
  std::mutex lock;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_MutexUncontended);

void BM_Xoshiro(benchmark::State& state) {
  asyncgt::xoshiro256ss rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

void BM_Mt19937(benchmark::State& state) {
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mt19937);

// --- Telemetry overhead budget ---------------------------------------------
// The queue is instrumented unconditionally (no compile-time switch), so the
// null-sink cost — one pointer test per run plus the pre-existing counters —
// must stay in the noise. BM_VisitorQueueTelemetryOff is the guarded number;
// BM_VisitorQueueTelemetryOn shows what attached sinks add.

struct tree_state {
  std::uint64_t n = 0;
  std::vector<std::uint8_t> seen;
};

// Spreads over an implicit binary tree: ~n visits, no shared-state races
// (each vertex is visited only by its hash-owner thread).
struct tree_visitor {
  std::uint64_t vtx = 0;

  std::uint64_t vertex() const noexcept { return vtx; }
  std::uint64_t priority() const noexcept { return vtx; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t) const {
    if (s.seen[vtx]) return;
    s.seen[vtx] = 1;
    const std::uint64_t left = 2 * vtx + 1;
    if (left < s.n) q.push(tree_visitor{left});
    if (left + 1 < s.n) q.push(tree_visitor{left + 1});
  }
};

// The queue runs every traversal as a gang on a worker pool; the benches
// share one, warmed by the first iteration. Wall time is the measure (each
// bench sets UseRealTime): the calling thread only waits, so its CPU time
// says nothing about throughput.
asyncgt::service::worker_pool& bench_pool() {
  static asyncgt::service::worker_pool pool;
  return pool;
}

asyncgt::visitor_queue_config pooled(std::size_t threads) {
  asyncgt::visitor_queue_config cfg;
  cfg.num_threads = threads;
  cfg.pool = &bench_pool();
  return cfg;
}

void run_tree(std::uint64_t n, asyncgt::visitor_queue_config cfg,
              benchmark::State& state) {
  for (auto _ : state) {
    tree_state s;
    s.n = n;
    s.seen.assign(n, 0);
    asyncgt::visitor_queue<tree_visitor, tree_state> q(cfg);
    q.push(tree_visitor{0});
    // Shared: the pool thread may still be inside set_value when the
    // waiter wakes and the iteration ends.
    auto visits = std::make_shared<std::promise<std::uint64_t>>();
    auto done = visits->get_future();
    q.run_async(s, [visits](asyncgt::queue_run_stats stats,
                            std::exception_ptr) {
      visits->set_value(stats.visits);
    });
    benchmark::DoNotOptimize(done.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_VisitorQueueTelemetryOff(benchmark::State& state) {
  asyncgt::visitor_queue_config cfg = pooled(4);
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueTelemetryOff)->Arg(1 << 16)->UseRealTime();

// The sinks the service engine attaches to every job: its metric_scope (the
// worker bodies' ambient attribution) plus a trace writer.
void BM_VisitorQueueTelemetryOn(benchmark::State& state) {
  asyncgt::telemetry::metric_scope scope(1, "bench", 4);
  asyncgt::telemetry::trace_writer trace;
  asyncgt::visitor_queue_config cfg = pooled(4);
  cfg.scope = &scope;
  cfg.trace = &trace;
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueTelemetryOn)->Arg(1 << 16)->UseRealTime();

// --- Batched cross-thread delivery ------------------------------------------
// Arg is the mailbox flush batch B: 1 reproduces the per-push delivery of the
// pre-layered queue (one mailbox mutex acquisition and one termination-counter
// reservation per visitor), larger B amortizes both over up to B visitors.
// Per-visitor push cost should drop as B grows; the flushes/pushes ratio from
// queue_run_stats tells the same story (~B× fewer mutex acquisitions).

void BM_VisitorQueueFlushBatch(benchmark::State& state) {
  asyncgt::visitor_queue_config cfg = pooled(4);
  cfg.flush_batch = static_cast<std::size_t>(state.range(1));
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueFlushBatch)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 64})
    ->UseRealTime();

void BM_RegistryCounterAdd(benchmark::State& state) {
  asyncgt::telemetry::metrics_registry registry;
  auto& counter = registry.get_counter("bench.counter");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.total());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryCounterAdd);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    asyncgt::telemetry::scoped_span span(nullptr, "noop");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedSpanDisabled);

}  // namespace

BENCHMARK_MAIN();
