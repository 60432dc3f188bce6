// Failure-containment contract of the layered traversal engine: an
// exception thrown inside any worker's visit must never std::terminate or
// hang the process. It is latched with thread/vertex context, every other
// worker (including parked ones) unwinds promptly, and the first error
// resurfaces on the calling thread as traversal_aborted — after which the
// queue is reusable for a clean run. These tests are part of the TSan
// preset: the abort broadcast races against delivery, parking, and seeding
// by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "queue/traversal_abort.hpp"
#include "queue/visitor_queue.hpp"
#include "test_pool.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

// Implicit-binary-tree visitor (no graph needed) with a single bomb vertex
// whose visit throws. Everything else fans out, so at detonation time other
// workers are mid-visit, mid-delivery, or parked.
struct bomb_state {
  std::uint64_t n = 0;
  std::uint32_t bomb = ~std::uint32_t{0};  // no bomb by default
  bool all_bombs = false;                  // every visit throws
  std::vector<padded<std::uint64_t>> visits_per_thread;
  bomb_state(std::uint64_t size, std::size_t threads)
      : n(size), visits_per_thread(threads) {}
  std::uint64_t total_visits() const {
    std::uint64_t t = 0;
    for (const auto& v : visits_per_thread) t += v.value;
    return t;
  }
};

struct bomb_visitor {
  std::uint32_t vtx{};
  std::uint32_t depth{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return depth; }
  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (vtx == s.bomb || s.all_bombs) {
      throw std::runtime_error("bomb vertex visited");
    }
    ++s.visits_per_thread[tid].value;
    const std::uint64_t left = 2ULL * vtx + 1;
    const std::uint64_t right = 2ULL * vtx + 2;
    if (left < s.n) {
      q.push(bomb_visitor{static_cast<std::uint32_t>(left), depth + 1});
    }
    if (right < s.n) {
      q.push(bomb_visitor{static_cast<std::uint32_t>(right), depth + 1});
    }
  }
};

visitor_queue_config threads(std::size_t n) { return pooled_config(n); }

TEST(TraversalAbort, ThrowingVisitorSurfacesAsTraversalAborted) {
  bomb_state s(1 << 14, 8);
  s.bomb = 7777;
  visitor_queue<bomb_visitor, bomb_state> q(threads(8));
  q.push(bomb_visitor{0, 0});
  try {
    run_blocking(q, s);
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_LT(e.worker(), 8u);
    EXPECT_TRUE(e.has_vertex());
    EXPECT_EQ(e.vertex(), 7777u);
    EXPECT_NE(std::string(e.what()).find("bomb vertex"), std::string::npos);
    // The original exception rides along for callers that dispatch on it.
    ASSERT_TRUE(e.cause());
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  }
}

TEST(TraversalAbort, QueueIsReusableAfterAbort) {
  const std::uint64_t n = 1 << 14;
  bomb_state armed(n, 8);
  armed.bomb = 4242;
  visitor_queue<bomb_visitor, bomb_state> q(threads(8));
  q.push(bomb_visitor{0, 0});
  EXPECT_THROW(run_blocking(q, armed), traversal_aborted);

  // Same queue object, clean state: the abandoned visitors from the aborted
  // run must be gone and the tree must be walked exactly once per vertex.
  bomb_state clean(n, 8);
  q.push(bomb_visitor{0, 0});
  const auto stats = run_blocking(q, clean);
  EXPECT_EQ(clean.total_visits(), n);
  EXPECT_EQ(stats.visits, n);
}

TEST(TraversalAbort, AbortWakesParkedWorkers) {
  // One visitor, many threads: every worker except the one routed vertex 0
  // parks immediately. The bomb then detonates on the owner; if the abort
  // broadcast missed parked workers this test would hang in join.
  bomb_state s(1, 16);
  s.bomb = 0;
  visitor_queue<bomb_visitor, bomb_state> q(threads(16));
  q.push(bomb_visitor{0, 0});
  EXPECT_THROW(run_blocking(q, s), traversal_aborted);
}

TEST(TraversalAbort, SeededRunAborts) {
  bomb_state s(1 << 12, 8);
  s.bomb = 999;
  visitor_queue<bomb_visitor, bomb_state> q(threads(8));
  try {
    run_seeded_blocking(q, s, s.n, [](std::uint32_t v) {
      return bomb_visitor{v, 0};
    });
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_TRUE(e.has_vertex());
    EXPECT_EQ(e.vertex(), 999u);
  }
  // And the seeded entry point recovers too. (Seeds re-spawn their tree
  // children, so each vertex is visited once as a seed plus once per
  // ancestor visit — at least n in total.)
  bomb_state clean(1 << 12, 8);
  run_seeded_blocking(q, clean, clean.n, [](std::uint32_t v) {
    return bomb_visitor{v, 0};
  });
  EXPECT_GE(clean.total_visits(), clean.n);
}

TEST(TraversalAbort, FirstErrorWinsUnderConcurrentFailures) {
  // Every visit throws; exactly one error must be latched and reported,
  // and it must carry a coherent vertex (one that actually detonated).
  bomb_state s(1 << 12, 8);
  s.all_bombs = true;
  visitor_queue<bomb_visitor, bomb_state> q(threads(8));
  try {
    run_seeded_blocking(q, s, s.n, [&s](std::uint32_t v) {
      return bomb_visitor{v, 0};
    });
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_TRUE(e.has_vertex());
    EXPECT_LT(e.vertex(), s.n);
  }
}

TEST(TraversalAbort, ExternalPushAfterAbortStartsClean) {
  bomb_state armed(1 << 10, 4);
  armed.bomb = 100;
  visitor_queue<bomb_visitor, bomb_state> q(threads(4));
  q.push(bomb_visitor{0, 0});
  EXPECT_THROW(run_blocking(q, armed), traversal_aborted);
  // Post-abort the engine reset pending to zero; a lone external push must
  // be the only seed of the next run (no stale in-flight accounting).
  bomb_state clean(8, 4);
  q.push(bomb_visitor{0, 0});
  run_blocking(q, clean);
  EXPECT_EQ(clean.total_visits(), 8u);
}

}  // namespace
}  // namespace asyncgt
