// Admission control and backpressure (engine::config's overload knobs,
// src/service/admission.hpp) — the tentpole's load-shedding layer:
//
//   * reject: a submit past max_pending_jobs throws a typed
//     admission_rejected (kind queue_full) without touching the pool;
//   * block: the submit parks on the completion CV and is admitted as soon
//     as a slot frees; with admission_timeout_ms it gives up typed
//     (kind timeout) instead of waiting forever;
//   * shed-lowest-priority: an over-bound submit evicts the lowest
//     strictly-lower-priority active job (outcome "shed"), and refuses
//     typed (kind no_shed_victim) when every active job is >= priority;
//   * memory budget: a submit whose declared estimate does not fit the
//     uncommitted remainder is refused at admission (kind memory_budget),
//     never OOM-killed mid-flight; an estimate over the whole budget is
//     refused even on an idle engine;
//   * conservation: submitted == rejected + active + completed + failed +
//     cancelled + deadline_exceeded + stalled + shed at quiescence, and
//     the service.rejected/shed metric family mirrors the counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

using service::admission_policy;
using service::admission_rejected;

traversal_options threads(std::size_t n) {
  return traversal_options{}.with_threads(n);
}

std::uint64_t terminal_sum(const engine::service_counters& c) {
  return c.rejected + c.active + c.completed + c.failed + c.cancelled +
         c.deadline_exceeded + c.stalled + c.shed;
}

// Self-sustaining ring traversal: runs until cancelled (engine_test idiom).
struct ring_state {
  std::uint64_t n = 0;
  std::vector<padded<std::uint64_t>> visits_per_thread;
  ring_state(std::uint64_t size, std::size_t nthreads)
      : n(size), visits_per_thread(nthreads) {}
};

struct ring_visitor {
  std::uint32_t vtx{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return 0; }
  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    ++s.visits_per_thread[tid].value;
    q.push(ring_visitor{static_cast<std::uint32_t>((vtx + 1) % s.n)});
  }
};

auto submit_ring(engine& eng, traversal_options opts) {
  return eng.submit_traversal<ring_visitor>(
      std::move(opts), ring_state(1 << 10, 4),
      [](auto& q, auto&) { q.push(ring_visitor{0}); },
      [](ring_state&, queue_run_stats stats) { return stats.visits; });
}

TEST(Admission, RejectPolicyThrowsTypedWhenTheBoundIsHit) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = admission_policy::reject});
  auto hog = submit_ring(eng, threads(4));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  try {
    (void)eng.submit_bfs(g, vertex32{0});
    FAIL() << "expected admission_rejected";
  } catch (const admission_rejected& e) {
    EXPECT_EQ(e.why(), admission_rejected::kind::queue_full);
    EXPECT_NE(std::string(e.what()).find("queue_full"), std::string::npos);
  }
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
  eng.wait_idle();

  // The rejected submit never held a slot: the freed engine admits again.
  EXPECT_EQ(eng.submit_bfs(g, vertex32{0}).get().level,
            serial_bfs(g, vertex32{0}).level);
  const auto sc = eng.counters();
  EXPECT_EQ(sc.submitted, 3u);
  EXPECT_EQ(sc.rejected, 1u);
  EXPECT_EQ(sc.cancelled, 1u);
  EXPECT_EQ(sc.completed, 1u);
  EXPECT_EQ(sc.submitted, terminal_sum(sc));
}

TEST(Admission, BlockPolicyAdmitsWhenASlotFrees) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = admission_policy::block});
  auto hog = submit_ring(eng, threads(4));
  while (hog.pending() == 0) {
  }

  // The blocked submit must park (not throw) and complete once the hog is
  // cancelled out of its slot.
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto expected = serial_bfs(g, vertex32{0});
  std::thread unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    hog.cancel();
  });
  const auto r = eng.submit_bfs(g, vertex32{0}).get();  // parks ~50ms
  EXPECT_EQ(r.level, expected.level);
  unblocker.join();
  EXPECT_THROW(hog.get(), traversal_aborted);
  eng.wait_idle();
  const auto sc = eng.counters();
  EXPECT_EQ(sc.submitted, 2u);
  EXPECT_EQ(sc.rejected, 0u);
  EXPECT_EQ(sc.submitted, terminal_sum(sc));
}

TEST(Admission, BlockPolicyTimesOutTyped) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = admission_policy::block,
              .admission_timeout_ms = 50});
  auto hog = submit_ring(eng, threads(4));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)eng.submit_bfs(g, vertex32{0});
    FAIL() << "expected admission_rejected";
  } catch (const admission_rejected& e) {
    EXPECT_EQ(e.why(), admission_rejected::kind::timeout);
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(45));
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
}

TEST(Admission, ShedEvictsTheLowestPriorityVictim) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = admission_policy::shed_lowest_priority});
  auto low = submit_ring(eng, threads(4).with_priority(-1));
  while (low.pending() == 0) {
  }

  // A higher-priority submit sheds the low job and takes its place.
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  auto high = eng.submit_bfs(g, vertex32{0}, threads(4).with_priority(1));
  EXPECT_EQ(high.get().level, serial_bfs(g, vertex32{0}).level);
  try {
    low.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::shed);
  }
  EXPECT_EQ(low.stats().outcome, "shed");
  EXPECT_EQ(low.stats().priority, -1);
  eng.wait_idle();
  const auto sc = eng.counters();
  EXPECT_EQ(sc.shed, 1u);
  EXPECT_EQ(sc.shed_requests, 1u);
  EXPECT_EQ(sc.completed, 1u);
  EXPECT_EQ(sc.submitted, terminal_sum(sc));
}

TEST(Admission, ShedRefusesTypedWithoutAStrictlyLowerVictim) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .max_pending_jobs = 1,
              .admission = admission_policy::shed_lowest_priority});
  auto peer = submit_ring(eng, threads(4).with_priority(0));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  try {
    // Equal priority: shedding would let jobs evict their own class and
    // livelock the service under symmetric load.
    (void)eng.submit_bfs(g, vertex32{0}, threads(4).with_priority(0));
    FAIL() << "expected admission_rejected";
  } catch (const admission_rejected& e) {
    EXPECT_EQ(e.why(), admission_rejected::kind::no_shed_victim);
  }
  peer.cancel();
  EXPECT_THROW(peer.get(), traversal_aborted);
  eng.wait_idle();
  EXPECT_EQ(eng.counters().shed, 0u);
}

// ---- memory budget ------------------------------------------------------

TEST(Admission, EstimateOverTheWholeBudgetIsRefusedEvenWhenIdle) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .admission = admission_policy::reject,
              .memory_budget_bytes = 1 << 20});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  try {
    (void)eng.submit_bfs(g, vertex32{0},
                         threads(4).with_memory_estimate(2 << 20));
    FAIL() << "expected admission_rejected";
  } catch (const admission_rejected& e) {
    EXPECT_EQ(e.why(), admission_rejected::kind::memory_budget);
  }
  // A fitting job is admitted; the graph's resident size feeds estimates.
  EXPECT_GT(g.resident_bytes(), 0u);
  auto r = eng.submit_bfs(g, vertex32{0},
                          threads(4).with_memory_estimate(1 << 19));
  EXPECT_EQ(r.get().level, serial_bfs(g, vertex32{0}).level);
  eng.wait_idle();
  EXPECT_EQ(eng.counters().memory_committed_bytes, 0u)
      << "completed jobs release their commitment";
}

TEST(Admission, CommittedEstimatesGateConcurrentAdmission) {
  engine eng({.pool_threads = 4,
              .defaults = threads(4),
              .admission = admission_policy::reject,
              .memory_budget_bytes = 1 << 20});
  // 768 KiB committed: a second 768 KiB job no longer fits the remainder.
  auto hog = submit_ring(eng, threads(4).with_memory_estimate(768 << 10));
  EXPECT_EQ(eng.counters().memory_committed_bytes,
            static_cast<std::uint64_t>(768 << 10));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  try {
    (void)eng.submit_bfs(g, vertex32{0},
                         threads(4).with_memory_estimate(768 << 10));
    FAIL() << "expected admission_rejected";
  } catch (const admission_rejected& e) {
    EXPECT_EQ(e.why(), admission_rejected::kind::memory_budget);
  }
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
  eng.wait_idle();
  EXPECT_EQ(eng.counters().memory_committed_bytes, 0u);
  const auto sc = eng.counters();
  EXPECT_EQ(sc.submitted, terminal_sum(sc));
}

// ---- metrics mirror -----------------------------------------------------

TEST(Admission, RejectionsLandOnTheServiceMetricFamily) {
  telemetry::metrics_registry reg;
  engine eng({.pool_threads = 4,
              .defaults = threads(4).with_metrics(&reg),
              .max_pending_jobs = 1,
              .admission = admission_policy::reject});
  auto hog = submit_ring(eng, threads(4));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  EXPECT_THROW((void)eng.submit_bfs(g, vertex32{0}), admission_rejected);
  EXPECT_THROW((void)eng.submit_bfs(g, vertex32{0}), admission_rejected);
  EXPECT_EQ(reg.get_counter("service.rejected").total(), 2u);
  hog.cancel();
  EXPECT_THROW(hog.get(), traversal_aborted);
  eng.wait_idle();
  EXPECT_EQ(eng.counters().rejected, 2u);
}

}  // namespace
}  // namespace asyncgt
