// Contract of the service's gang scheduler (service/worker_pool.hpp): FIFO
// block dispatch, grow-only spawning with a frozen-when-warm lifetime
// counter, completion hooks that run once after a gang's last item, and a
// destructor that drains every queued gang. These are the properties the
// engine's job scheduler and the zero-spawns-after-warm-up acceptance test
// are built on, so they get direct coverage below the traversal layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/worker_pool.hpp"

namespace asyncgt::service {
namespace {

/// Submits a gang and returns a future its completion hook fulfils.
std::future<void> submit(worker_pool& pool, std::size_t count,
                         std::function<void(std::size_t)> body) {
  auto done = std::make_shared<std::promise<void>>();
  auto f = done->get_future();
  pool.submit(count, std::move(body), [done] { done->set_value(); });
  return f;
}

TEST(WorkerPool, RunsEverySlotExactlyOnce) {
  worker_pool pool(4);
  std::vector<std::atomic<int>> hits(16);
  submit(pool, hits.size(), [&](std::size_t slot) { ++hits[slot]; }).wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, SpawnCounterGrowsOnDemandAndThenFreezes) {
  worker_pool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.threads_spawned(), 2u);

  // A gang wider than the pool grows it (the FIFO progress guarantee
  // requires at least `count` threads)...
  submit(pool, 6, [](std::size_t) {}).wait();
  EXPECT_EQ(pool.size(), 6u);
  EXPECT_EQ(pool.threads_spawned(), 6u);

  // ...and every narrower or equal gang afterwards reuses warm threads:
  // the lifetime counter must not move again.
  for (int i = 0; i < 8; ++i) {
    submit(pool, 6, [](std::size_t) {}).wait();
    submit(pool, 3, [](std::size_t) {}).wait();
  }
  EXPECT_EQ(pool.threads_spawned(), 6u);
  EXPECT_EQ(pool.gangs_completed(), 17u);
}

TEST(WorkerPool, FifoBlockDispatchSerializesOversizedLoad) {
  // Gang A occupies the entire pool, parked on a gate. Gang B is queued
  // behind it: with no spare threads, FIFO block dispatch means not one B
  // item may start until A releases.
  worker_pool pool(4);
  std::atomic<bool> gate{false};
  std::atomic<int> a_started{0};
  std::atomic<int> b_started{0};

  auto a = submit(pool, 4, [&](std::size_t) {
    ++a_started;
    while (!gate.load()) std::this_thread::yield();
  });
  auto b = submit(pool, 4, [&](std::size_t) { ++b_started; });

  while (a_started.load() < 4) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(b_started.load(), 0) << "gang B ran while A held every thread";

  gate.store(true);
  a.wait();
  b.wait();
  EXPECT_EQ(b_started.load(), 4);
}

TEST(WorkerPool, ConcurrentGangsOverlapWhenThreadsAreFree) {
  // Two half-width gangs in an oversized pool must genuinely overlap: each
  // gang's items park until they have seen a live item of the *other* gang,
  // which can only terminate if both run at once.
  worker_pool pool(8);
  std::atomic<int> a_live{0};
  std::atomic<int> b_live{0};
  auto a = submit(pool, 4, [&](std::size_t) {
    ++a_live;
    while (b_live.load() == 0) std::this_thread::yield();
  });
  auto b = submit(pool, 4, [&](std::size_t) {
    ++b_live;
    while (a_live.load() == 0) std::this_thread::yield();
  });
  a.wait();
  b.wait();
  EXPECT_EQ(a_live.load(), 4);
  EXPECT_EQ(b_live.load(), 4);
}

TEST(WorkerPool, OnCompleteRunsOnceBeforeWaitReturns) {
  worker_pool pool(4);
  std::atomic<int> body_runs{0};
  std::atomic<int> completions{0};
  int seen_at_completion = -1;
  // Shared: the pool thread may still be inside set_value when the test
  // wakes and returns.
  auto done = std::make_shared<std::promise<void>>();
  pool.submit(
      8, [&](std::size_t) { ++body_runs; },
      [&, done] {
        seen_at_completion = body_runs.load();
        ++completions;
        done->set_value();
      });
  done->get_future().wait();
  EXPECT_EQ(pool.gangs_completed(), 1u);
  EXPECT_EQ(completions.load(), 1);
  EXPECT_EQ(seen_at_completion, 8) << "on_complete ran before the last item";
}

TEST(WorkerPool, DestructorDrainsQueuedGangs) {
  // Submit a burst and destroy the pool immediately: shutdown must still
  // run every queued item (abandoning them would park sibling traversal
  // lanes forever), then join.
  std::atomic<int> runs{0};
  {
    worker_pool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit(2, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++runs;
      });
    }
  }
  EXPECT_EQ(runs.load(), 32);
}

TEST(WorkerPool, EmptyGangIsRejected) {
  worker_pool pool(1);
  EXPECT_THROW(pool.submit(0, [](std::size_t) {}), std::invalid_argument);
}

TEST(WorkerPool, ManyGangsStress) {
  worker_pool pool(8);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::future<void>> gangs;
  gangs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    gangs.push_back(submit(pool, 1 + static_cast<std::size_t>(i % 8),
                           [&](std::size_t slot) { total += slot + 1; }));
  }
  for (const auto& g : gangs) g.wait();
  // sum over gangs of 1+2+...+count
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t c = 1 + static_cast<std::uint64_t>(i % 8);
    expect += c * (c + 1) / 2;
  }
  EXPECT_EQ(total.load(), expect);
  EXPECT_EQ(pool.gangs_completed(), 64u);
  EXPECT_EQ(pool.threads_spawned(), 8u);
}

}  // namespace
}  // namespace asyncgt::service
