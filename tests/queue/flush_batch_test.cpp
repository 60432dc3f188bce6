// Batched cross-thread delivery tests: the mailbox layer's flush_batch knob.
//
// flush_batch=1 reproduces the seed's per-push delivery (one mailbox mutex
// acquisition and one termination reservation per visitor), so its flushes
// counter equals the push counter exactly; larger batches amortize both and
// the flushes counter must drop accordingly while every result stays
// identical. Also covers engine reuse: one queue across many run() /
// run_seeded() calls must reset done_, pending_ and the per-worker stats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "queue/visitor_queue.hpp"
#include "test_pool.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

struct tree_state {
  std::uint64_t n = 0;
  std::vector<padded<std::uint64_t>> visits_per_thread;
  explicit tree_state(std::uint64_t size, std::size_t threads)
      : n(size), visits_per_thread(threads) {}
};

struct tree_visitor {
  std::uint32_t vtx{};
  std::uint32_t depth{};

  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return depth; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    ++s.visits_per_thread[tid].value;
    const std::uint64_t left = 2ULL * vtx + 1;
    const std::uint64_t right = 2ULL * vtx + 2;
    if (left < s.n) {
      q.push(tree_visitor{static_cast<std::uint32_t>(left), depth + 1});
    }
    if (right < s.n) {
      q.push(tree_visitor{static_cast<std::uint32_t>(right), depth + 1});
    }
  }
};

struct leaf_state {
  std::vector<padded<std::uint64_t>> visits;
  explicit leaf_state(std::size_t threads) : visits(threads) {}
};

struct leaf_visitor {
  std::uint32_t vtx{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return 0; }
  template <typename State, typename Queue>
  void visit(State& s, Queue&, std::size_t tid) const {
    ++s.visits[tid].value;
  }
};

// Copy-counting visitor for the move-only discipline test. The counter is a
// plain int: the test runs the queue on one worker thread.
int g_visitor_copies = 0;

struct counting_state {
  std::uint64_t n = 0;
  std::uint64_t visits = 0;
};

struct counting_visitor {
  std::uint32_t vtx{};

  counting_visitor() = default;
  explicit counting_visitor(std::uint32_t v) : vtx(v) {}
  counting_visitor(const counting_visitor& o) : vtx(o.vtx) {
    ++g_visitor_copies;
  }
  counting_visitor& operator=(const counting_visitor& o) {
    vtx = o.vtx;
    ++g_visitor_copies;
    return *this;
  }
  counting_visitor(counting_visitor&&) = default;
  counting_visitor& operator=(counting_visitor&&) = default;

  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return vtx; }
  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t) const {
    ++s.visits;
    const std::uint64_t left = 2ULL * vtx + 1;
    if (left < s.n) {
      q.push(counting_visitor{static_cast<std::uint32_t>(left)});
    }
    if (left + 1 < s.n) {
      q.push(counting_visitor{static_cast<std::uint32_t>(left + 1)});
    }
  }
};

std::uint64_t total_visits(const tree_state& s) {
  std::uint64_t sum = 0;
  for (const auto& v : s.visits_per_thread) sum += v.value;
  return sum;
}

visitor_queue_config cfg_with(std::size_t threads, std::size_t batch) {
  visitor_queue_config cfg = pooled_config(threads);
  cfg.flush_batch = batch;
  return cfg;
}

queue_run_stats run_tree(std::uint64_t n, const visitor_queue_config& cfg,
                         std::uint64_t* visits_out = nullptr) {
  tree_state state(n, cfg.num_threads);
  visitor_queue<tree_visitor, tree_state> q(cfg);
  q.push(tree_visitor{0, 0});
  auto stats = run_blocking(q, state);
  if (visits_out != nullptr) *visits_out = total_visits(state);
  return stats;
}

TEST(FlushBatch, ZeroBatchRejected) {
  visitor_queue_config cfg = cfg_with(2, 0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW((visitor_queue<tree_visitor, tree_state>(cfg)),
               std::invalid_argument);
}

TEST(FlushBatch, BatchOneFlushesOncePerPush) {
  // Per-push delivery: every push is its own batch, so the mutex-acquisition
  // counter equals the push counter — the seed's behaviour, reproduced.
  for (const std::size_t threads : {1u, 4u}) {
    const auto stats = run_tree(4096, cfg_with(threads, 1));
    EXPECT_EQ(stats.pushes, 4096u);
    EXPECT_EQ(stats.flushes, stats.pushes) << "threads=" << threads;
  }
}

TEST(FlushBatch, LargeBatchAmortizesFlushes) {
  // With B=64 the same traversal needs far fewer deliveries. Idle-time
  // flushes ship partial batches, so the realized amortization is below B,
  // but it must still be a large multiple.
  constexpr std::uint64_t kN = 1 << 16;
  const auto b1 = run_tree(kN, cfg_with(4, 1));
  const auto b64 = run_tree(kN, cfg_with(4, 64));
  EXPECT_EQ(b1.pushes, b64.pushes);
  EXPECT_GT(b64.flushes, 0u);
  EXPECT_LT(b64.flushes * 8, b1.flushes)
      << "b1.flushes=" << b1.flushes << " b64.flushes=" << b64.flushes;
}

TEST(FlushBatch, VisitCountsIdenticalAcrossBatchSizes) {
  constexpr std::uint64_t kN = 10000;
  for (const std::size_t batch : {1u, 2u, 7u, 64u, 1024u}) {
    for (const std::size_t threads : {1u, 3u, 16u}) {
      std::uint64_t visits = 0;
      const auto stats = run_tree(kN, cfg_with(threads, batch), &visits);
      EXPECT_EQ(visits, kN) << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(stats.visits, kN);
      EXPECT_EQ(stats.pushes, kN);
    }
  }
}

TEST(FlushBatch, SeededRunsCompleteForAnyBatch) {
  // run_seeded pre-reserves terminations for the whole seed range; seeding
  // flushes must not double-count. Exercise batch sizes around the seed
  // slab boundaries.
  constexpr std::uint64_t kN = 5000;
  for (const std::size_t batch : {1u, 64u, 8192u}) {
    leaf_state state(8);
    visitor_queue<leaf_visitor, leaf_state> q(cfg_with(8, batch));
    const auto stats = run_seeded_blocking(q, state, kN, [](std::uint32_t v) {
      return leaf_visitor{v};
    });
    EXPECT_EQ(stats.visits, kN) << "batch=" << batch;
    EXPECT_EQ(q.pending(), 0);
  }
}

TEST(FlushBatch, ReuseResetsTerminationAndStats) {
  // One engine, many runs: done_ must clear, pending_ must drain to zero,
  // and every per-worker counter (visits, pushes, flushes, per-queue
  // breakdown) must restart from zero — no accumulation across runs.
  constexpr std::uint64_t kN = 2048;
  tree_state state(kN, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4, 64));

  q.push(tree_visitor{0, 0});
  const auto first = run_blocking(q, state);
  EXPECT_EQ(first.visits, kN);
  EXPECT_EQ(q.pending(), 0);

  for (int round = 0; round < 3; ++round) {
    q.push(tree_visitor{0, 0});
    const auto again = run_blocking(q, state);
    EXPECT_EQ(again.visits, first.visits) << "round=" << round;
    EXPECT_EQ(again.pushes, first.pushes);
    EXPECT_EQ(again.visits_per_queue.size(), first.visits_per_queue.size());
    std::uint64_t per_queue_sum = 0;
    for (const auto v : again.visits_per_queue) per_queue_sum += v;
    EXPECT_EQ(per_queue_sum, kN);  // not 2x/3x: stats reset, not accumulated
    EXPECT_EQ(q.pending(), 0);
  }
  EXPECT_EQ(total_visits(state), 4 * kN);
}

TEST(FlushBatch, ReuseMixesRunAndRunSeeded) {
  // A seeded run after a plain run (and vice versa) on the same engine:
  // the seeding pre-reservation must start from a drained counter.
  constexpr std::uint64_t kN = 1024;
  tree_state state(kN, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4, 16));

  q.push(tree_visitor{0, 0});
  EXPECT_EQ(run_blocking(q, state).visits, kN);

  const auto seeded = run_seeded_blocking(q, state, kN, [](std::uint32_t v) {
    return tree_visitor{v, 0};  // every vertex seeded: all re-visited once
  });
  EXPECT_GE(seeded.visits, kN);
  EXPECT_EQ(q.pending(), 0);

  q.push(tree_visitor{0, 0});
  EXPECT_EQ(run_blocking(q, state).visits, kN);
  EXPECT_EQ(q.pending(), 0);
}

TEST(FlushBatch, StatsToStringIncludesFlushes) {
  const auto stats = run_tree(256, cfg_with(2, 8));
  EXPECT_NE(stats.to_string().find("flushes="), std::string::npos)
      << stats.to_string();
}

TEST(FlushBatch, RvaluePushPathNeverCopiesVisitors) {
  // Satellite of the move-only discipline: a visitor pushed as an rvalue
  // travels outbox -> mailbox slab -> private ordering -> pop entirely by
  // move. Copy-count with a single worker so the counter needs no atomics.
  g_visitor_copies = 0;
  counting_state state;
  state.n = 512;
  visitor_queue<counting_visitor, counting_state> q(cfg_with(1, 8));
  q.push(counting_visitor{0});
  const auto stats = run_blocking(q, state);
  EXPECT_EQ(stats.visits, 512u);
  EXPECT_EQ(state.visits, 512u);
  EXPECT_EQ(g_visitor_copies, 0);
}

}  // namespace
}  // namespace asyncgt
