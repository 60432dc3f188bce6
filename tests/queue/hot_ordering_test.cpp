// Hot ordering (queue_order::hot): the two-band pop discipline and the
// advisor protocol around it (docs/hot_blocks.md). Exercised at two levels:
//
//   * hot_order directly (no threads): hot-band-first pops with priority
//     order inside each band, the take_hot_pops tally-and-reset, clear()
//     zeroing the tally, and the null-advisor degradation to plain
//     priority behaviour;
//   * the full engine: a counting advisor under async_bfs pins the
//     conservation law — one on_enqueue per delivered visitor, one
//     on_complete per executed visit, equal to the run's visit count — and
//     the queue_run_stats::hot_pops surface.
#include "queue/ordering_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/async_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "queue/hot_advisor.hpp"

namespace asyncgt {
namespace {

struct probe_visitor {
  std::uint32_t vtx{};
  std::uint32_t prio{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return prio; }
};

/// Advisor calling even vertices hot and counting every hook invocation.
/// Thread-safe (relaxed atomics), so the same type serves the single-thread
/// ordering tests and the multi-thread engine conservation test.
class counting_advisor final : public hot_advisor {
 public:
  bool is_hot(std::uint64_t vertex) const noexcept override {
    return vertex % 2 == 0;
  }
  void on_enqueue(std::uint64_t) noexcept override {
    enqueues.fetch_add(1, std::memory_order_relaxed);
  }
  void on_complete(std::uint64_t) noexcept override {
    completes.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() noexcept override {
    resets.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> enqueues{0};
  std::atomic<std::uint64_t> completes{0};
  std::atomic<std::uint64_t> resets{0};
};

TEST(HotOrdering, HotBandPopsFirstPriorityWithinBands) {
  counting_advisor advisor;
  visitor_queue_config cfg;
  cfg.advisor = &advisor;
  hot_order<probe_visitor> order;
  order.configure(cfg);

  // Even vertices are hot; priorities deliberately interleave the bands so
  // plain priority order would produce 1,2,3,4,5,6.
  order.push(probe_visitor{1, 1});  // cold
  order.push(probe_visitor{2, 2});  // hot
  order.push(probe_visitor{3, 3});  // cold
  order.push(probe_visitor{4, 4});  // hot
  order.push(probe_visitor{5, 5});  // cold
  order.push(probe_visitor{6, 6});  // hot
  EXPECT_EQ(order.size(), 6u);

  std::vector<std::uint32_t> pops;
  probe_visitor v;
  while (order.try_pop(v)) pops.push_back(v.vtx);
  const std::vector<std::uint32_t> expect{2, 4, 6, 1, 3, 5};
  EXPECT_EQ(pops, expect);
  EXPECT_EQ(order.take_hot_pops(), 3u);
  // The tally was consumed: a second take reads zero.
  EXPECT_EQ(order.take_hot_pops(), 0u);
}

TEST(HotOrdering, ClearDiscardsVisitorsAndZerosTheTally) {
  counting_advisor advisor;
  visitor_queue_config cfg;
  cfg.advisor = &advisor;
  hot_order<probe_visitor> order;
  order.configure(cfg);
  order.push(probe_visitor{2, 2});
  order.push(probe_visitor{3, 3});
  probe_visitor v;
  ASSERT_TRUE(order.try_pop(v));  // one hot pop on the books
  order.clear();
  EXPECT_TRUE(order.empty());
  EXPECT_FALSE(order.try_pop(v));
  // Post-abort stats must report zeros, so clear() drops the tally too.
  EXPECT_EQ(order.take_hot_pops(), 0u);
}

TEST(HotOrdering, NullAdvisorDegradesToPriorityOrder) {
  hot_order<probe_visitor> order;
  order.configure(visitor_queue_config{});  // advisor == nullptr
  for (const std::uint32_t p : {5u, 2u, 4u, 1u, 3u}) {
    order.push(probe_visitor{p, p});
  }
  std::vector<std::uint32_t> pops;
  probe_visitor v;
  while (order.try_pop(v)) pops.push_back(v.prio);
  const std::vector<std::uint32_t> expect{1, 2, 3, 4, 5};
  EXPECT_EQ(pops, expect);
  EXPECT_EQ(order.take_hot_pops(), 0u);  // everything sat in the cold band
}

// The conservation law the SEM pressure tracker relies on: the engine fires
// on_enqueue exactly once per delivered visitor (seeding included) and
// on_complete exactly once per executed visit, so at quiescence both equal
// the run's visit count and the advisor's net pending is zero.
TEST(HotOrdering, EngineFiresOneEnqueuePerDeliveryAndOneCompletePerVisit) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  counting_advisor advisor;
  traversal_options cfg;
  cfg.queue.num_threads = 8;
  cfg.queue.order = queue_order::hot;
  cfg.queue.advisor = &advisor;

  const auto r = async_bfs(g, vertex32{0}, cfg);
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level)
      << "hot ordering must not change final labels";
  EXPECT_GT(r.stats.visits, 0u);
  EXPECT_EQ(advisor.enqueues.load(), r.stats.visits);
  EXPECT_EQ(advisor.completes.load(), r.stats.visits);
  EXPECT_EQ(advisor.resets.load(), 0u);  // clean run: no abort reset
  // Half the vertices classify hot, so the hot band must have served pops.
  EXPECT_GT(r.stats.hot_pops, 0u);
  EXPECT_LE(r.stats.hot_pops, r.stats.visits);
}

TEST(HotOrdering, HotOrderWithoutAdvisorStillTraversesCorrectly) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  traversal_options cfg;
  cfg.queue.num_threads = 4;
  cfg.queue.order = queue_order::hot;  // advisor left null: all-cold
  const auto r = async_bfs(g, vertex32{0}, cfg);
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  EXPECT_EQ(r.stats.hot_pops, 0u);
}

}  // namespace
}  // namespace asyncgt
