// metric_scope — per-job hot counters, TLS ambient attribution, and
// lifecycle timestamps (the substrate of the service's job_stats surface).
// Covered here:
//
//   * sharded hot-counter accumulation and the totals() scrape;
//   * attribution RAII: install/restore, nesting, and the null install
//     (a no-op that still restores, so call sites stay unconditional);
//   * the static charge helpers (count_edges/count_io/count_io_retry) with
//     and without an installed scope;
//   * mark_run_start/mark_finished first-write-wins semantics and the
//     derived queue-wait/run/total latencies;
//   * the conservation invariant under concurrency: threads that charge a
//     shared registry AND their ambient scope produce per-scope sums that
//     equal the registry's global delta exactly (satellite of ISSUE 6; the
//     engine-level version lives in tests/service/job_stats_test.cpp). Run
//     under tsan via the tsan preset.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "telemetry/metric_scope.hpp"
#include "telemetry/metrics_registry.hpp"

namespace asyncgt::telemetry {
namespace {

using hot = metric_scope::hot;

TEST(MetricScope, ShardedAddsSumInTotals) {
  metric_scope s(7, "bfs", 4);
  EXPECT_EQ(s.job_id(), 7u);
  EXPECT_EQ(s.label(), "bfs");

  s.add(hot::visits, 0, 10);
  s.add(hot::visits, 1, 20);
  s.add(hot::visits, 2, 30);
  s.add(hot::visits, 7, 5);  // shard index wraps mod shard count
  EXPECT_EQ(s.total(hot::visits), 65u);
  EXPECT_EQ(s.total(hot::pushes), 0u);

  s.add(hot::io_bytes, 0, 4096);
  const auto all = s.totals();
  EXPECT_EQ(all[static_cast<std::size_t>(hot::visits)], 65u);
  EXPECT_EQ(all[static_cast<std::size_t>(hot::io_bytes)], 4096u);
  EXPECT_EQ(all[static_cast<std::size_t>(hot::wakeups)], 0u);
}

// ---- ambient attribution ------------------------------------------------

TEST(MetricScope, AttributionInstallsRestoresAndNests) {
  EXPECT_EQ(metric_scope::current(), nullptr);
  metric_scope outer(1, "outer", 2);
  metric_scope inner(2, "inner", 2);
  {
    metric_scope::attribution a(&outer, 1);
    EXPECT_EQ(metric_scope::current(), &outer);
    EXPECT_EQ(metric_scope::current_shard(), 1u);
    {
      metric_scope::attribution b(&inner, 0);
      EXPECT_EQ(metric_scope::current(), &inner);
      EXPECT_EQ(metric_scope::current_shard(), 0u);
    }
    // The inner frame restored the outer install, not null.
    EXPECT_EQ(metric_scope::current(), &outer);
    EXPECT_EQ(metric_scope::current_shard(), 1u);
  }
  EXPECT_EQ(metric_scope::current(), nullptr);
}

TEST(MetricScope, NullAttributionIsANoOpThatStillRestores) {
  metric_scope s(3, "bfs", 2);
  metric_scope::attribution a(&s, 0);
  {
    // A null install must not clobber the ambient scope...
    metric_scope::attribution b(nullptr, 5);
    EXPECT_EQ(metric_scope::current(), &s);
    EXPECT_EQ(metric_scope::current_shard(), 0u);
  }
  // ...and its destructor must leave the outer install intact.
  EXPECT_EQ(metric_scope::current(), &s);
}

TEST(MetricScope, StaticHelpersChargeTheAmbientScope) {
  // With no scope installed the helpers are silent no-ops.
  metric_scope::count_edges(100);
  metric_scope::count_io(4096);
  metric_scope::count_io_retry();

  metric_scope s(4, "cc", 2);
  {
    metric_scope::attribution a(&s, 1);
    metric_scope::count_edges(100);
    metric_scope::count_edges(23);
    metric_scope::count_io(4096);
    metric_scope::count_io(512);
    metric_scope::count_io_retry();
  }
  EXPECT_EQ(s.total(hot::edge_inspections), 123u);
  EXPECT_EQ(s.total(hot::io_ops), 2u);
  EXPECT_EQ(s.total(hot::io_bytes), 4608u);
  EXPECT_EQ(s.total(hot::io_retries), 1u);

  // After the frame popped, further charges go nowhere.
  metric_scope::count_edges(1000);
  EXPECT_EQ(s.total(hot::edge_inspections), 123u);
}

// ---- lifecycle timestamps -----------------------------------------------

TEST(MetricScope, LifecycleMarksAreFirstWriteWins) {
  metric_scope s(5, "bfs", 1);
  EXPECT_FALSE(s.finished());
  // Before any marks the derived latencies read as "so far" / zero — never
  // negative.
  EXPECT_GE(s.total_seconds(), 0.0);

  s.mark_run_start();
  const double wait1 = s.queue_wait_seconds();
  s.mark_run_start();  // a second gang lane losing the CAS must not move it
  EXPECT_EQ(s.queue_wait_seconds(), wait1);

  s.mark_finished();
  EXPECT_TRUE(s.finished());
  const double total = s.total_seconds();
  const double run = s.run_seconds();
  s.mark_finished();  // idempotent
  EXPECT_EQ(s.total_seconds(), total);
  EXPECT_EQ(s.run_seconds(), run);

  EXPECT_GE(total, 0.0);
  EXPECT_GE(run, 0.0);
  EXPECT_GE(total + 1e-12, s.queue_wait_seconds());
  EXPECT_GE(total + 1e-12, run);
}

// ---- conservation under concurrency -------------------------------------

// J scopes, T threads round-robined across them. Every unit of work is
// charged twice — once to the thread's ambient scope, once to the shared
// global registry — exactly like io_recorder charges its own totals and the
// ambient scope.
// Conservation: the per-scope sums must equal the registry deltas EXACTLY.
TEST(MetricScope, ConcurrentAttributionConservesAgainstSharedRegistry) {
  constexpr std::size_t kJobs = 4;
  constexpr std::size_t kThreadsPerJob = 2;
  constexpr std::uint64_t kItersPerThread = 20000;

  metrics_registry global;
  auto& g_edges = global.get_counter("test.edges");
  auto& g_bytes = global.get_counter("test.io_bytes");

  std::vector<std::unique_ptr<metric_scope>> scopes;
  for (std::size_t j = 0; j < kJobs; ++j) {
    scopes.push_back(std::make_unique<metric_scope>(
        j, "job-" + std::to_string(j), kThreadsPerJob));
  }

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kJobs * kThreadsPerJob; ++t) {
    threads.emplace_back([&, t] {
      metric_scope* sc = scopes[t % kJobs].get();
      const std::size_t shard = t / kJobs;
      metric_scope::attribution attr(sc, shard);
      for (std::uint64_t i = 0; i < kItersPerThread; ++i) {
        metric_scope::count_edges(3);
        g_edges.add(3);
        if ((i & 7) == 0) {
          metric_scope::count_io(512);
          g_bytes.add(512);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t sum_edges = 0;
  std::uint64_t sum_bytes = 0;
  std::uint64_t sum_ops = 0;
  for (const auto& sc : scopes) {
    sum_edges += sc->total(hot::edge_inspections);
    sum_bytes += sc->total(hot::io_bytes);
    sum_ops += sc->total(hot::io_ops);
  }
  EXPECT_EQ(sum_edges, g_edges.total());
  EXPECT_EQ(sum_bytes, g_bytes.total());
  const std::uint64_t expect_ops =
      kJobs * kThreadsPerJob * ((kItersPerThread + 7) / 8);
  EXPECT_EQ(sum_ops, expect_ops);
  EXPECT_EQ(sum_edges, kJobs * kThreadsPerJob * kItersPerThread * 3);

  // No cross-talk: with round-robin assignment every scope carried an equal
  // share.
  for (const auto& sc : scopes) {
    EXPECT_EQ(sc->total(hot::edge_inspections),
              kThreadsPerJob * kItersPerThread * 3);
  }
}

}  // namespace
}  // namespace asyncgt::telemetry
