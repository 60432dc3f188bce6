// stats_dumper — the --stats-dump interval scraper. Covered here:
//
//   * per-interval deltas advance a remembered baseline;
//   * the reset hazard (ISSUE 6 satellite): metrics_registry::reset()
//     landing between two takes must yield the post-reset total as the
//     interval's delta — never a negative value, never a near-2^64
//     underflow;
//   * idle silence: render()/dump() emit nothing when no counter moved and
//     no gauge changed, so a quiet traversal doesn't spam the console;
//   * gauges report on change (including change-to-zero), not every tick.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics_registry.hpp"
#include "telemetry/stats_dump.hpp"

namespace asyncgt::telemetry {
namespace {

const stats_dumper::delta_entry* find(
    const std::vector<stats_dumper::delta_entry>& v, const std::string& name) {
  for (const auto& d : v) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

TEST(StatsDump, DeltasAdvanceTheBaseline) {
  metrics_registry reg;
  auto& c = reg.get_counter("q.visits");
  stats_dumper dump(&reg);

  c.add(5);
  const auto v_d1 = dump.take_interval();
  const auto* d1 = find(v_d1, "q.visits");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->delta, 5u);
  EXPECT_EQ(d1->total, 5u);
  EXPECT_TRUE(d1->changed);

  c.add(3);
  const auto v_d2 = dump.take_interval();
  const auto* d2 = find(v_d2, "q.visits");
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(d2->delta, 3u);
  EXPECT_EQ(d2->total, 8u);

  // Nothing moved: delta 0, flagged unchanged.
  const auto v_d3 = dump.take_interval();
  const auto* d3 = find(v_d3, "q.visits");
  ASSERT_NE(d3, nullptr);
  EXPECT_EQ(d3->delta, 0u);
  EXPECT_FALSE(d3->changed);
}

// ---- the reset hazard (regression) --------------------------------------

TEST(StatsDump, ResetBetweenTakesNeverUnderflows) {
  metrics_registry reg;
  auto& c = reg.get_counter("q.visits");
  stats_dumper dump(&reg);

  c.add(1000);
  dump.take_interval();  // baseline now remembers total=1000

  // A reset lands mid-interval (e.g. a bench phase boundary calling
  // reset_counters() while the background sampler keeps scraping), then a
  // little more work arrives.
  reg.reset();
  c.add(7);

  const auto v_d = dump.take_interval();
  const auto* d = find(v_d, "q.visits");
  ASSERT_NE(d, nullptr);
  // Naive cur - prev would be 7 - 1000 == 2^64 - 993. The dumper must
  // report the post-reset total instead and resynchronize.
  EXPECT_EQ(d->delta, 7u);
  EXPECT_EQ(d->total, 7u);
  EXPECT_LT(d->delta, 1u << 20) << "underflowed delta leaked through";

  // The baseline resynchronized: the next interval is plain again.
  c.add(2);
  const auto v_d2 = dump.take_interval();
  const auto* d2 = find(v_d2, "q.visits");
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(d2->delta, 2u);
}

TEST(StatsDump, ResetToExactlyZeroReportsNothingNotGarbage) {
  metrics_registry reg;
  auto& c = reg.get_counter("q.visits");
  stats_dumper dump(&reg);
  c.add(50);
  dump.take_interval();
  reg.reset();  // no further work before the next take
  const auto v_d = dump.take_interval();
  const auto* d = find(v_d, "q.visits");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->delta, 0u);
  EXPECT_FALSE(d->changed);
}

TEST(StatsDump, HistogramsClampLikeCounters) {
  metrics_registry reg;
  auto& h = reg.get_histogram("job.total_us");
  stats_dumper dump(&reg);
  h.record(100);
  h.record(200);
  dump.take_interval();
  reg.reset();
  h.record(5);
  const auto v_d = dump.take_interval();
  const auto* d = find(v_d, "job.total_us");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->delta, 1u);
}

// ---- idle silence -------------------------------------------------------

TEST(StatsDump, IdleTicksRenderNothing) {
  metrics_registry reg;
  auto& c = reg.get_counter("q.visits");
  auto& g = reg.get_gauge("pool.threads");
  g.set(4);
  c.add(10);
  stats_dumper dump(&reg);

  // First take: both entries are news.
  EXPECT_NE(dump.render().find("q.visits"), std::string::npos);

  // Nothing moved since: a silent interval, and dump() writes no header.
  EXPECT_EQ(dump.render(), "");
  std::ostringstream os;
  dump.dump(os, 1.0);
  EXPECT_EQ(os.str(), "");
  EXPECT_EQ(dump.dumps(), 0u);

  // A counter increment wakes the next tick up again.
  c.add(1);
  std::ostringstream os2;
  dump.dump(os2, 2.0);
  EXPECT_NE(os2.str().find("-- stats @2.00s --"), std::string::npos);
  EXPECT_NE(os2.str().find("q.visits"), std::string::npos);
  // The unchanged gauge stays out of the changed-only table.
  EXPECT_EQ(os2.str().find("pool.threads"), std::string::npos);
  EXPECT_EQ(dump.dumps(), 1u);
}

TEST(StatsDump, GaugesReportOnChangeIncludingToZero) {
  metrics_registry reg;
  auto& g = reg.get_gauge("queue.pending");
  g.set(9);
  stats_dumper dump(&reg);
  const auto v_d1 = dump.take_interval();
  const auto* d1 = find(v_d1, "queue.pending");
  ASSERT_NE(d1, nullptr);
  EXPECT_TRUE(d1->changed);  // first sighting counts as news
  EXPECT_EQ(d1->value, 9);

  g.set(0);  // drained — a change worth printing even though the value is 0
  const auto v_d2 = dump.take_interval();
  const auto* d2 = find(v_d2, "queue.pending");
  ASSERT_NE(d2, nullptr);
  EXPECT_TRUE(d2->changed);
  EXPECT_EQ(d2->value, 0);

  const auto v_d3 = dump.take_interval();
  const auto* d3 = find(v_d3, "queue.pending");
  ASSERT_NE(d3, nullptr);
  EXPECT_FALSE(d3->changed);
}

// Regression: the header allows the sampler thread and a foreground caller
// to share one dumper, so two take_interval() must not interleave their
// scrape and baseline update — the staler snapshot overwriting prev_ last
// used to re-report increments the other take had already consumed. With
// takes serialized, delta conservation is exact: across every take, each
// increment is reported exactly once.
TEST(StatsDump, ConcurrentTakesNeverDoubleCountDeltas) {
  metrics_registry reg;
  auto& c = reg.get_counter("q.visits");
  stats_dumper dump(&reg);

  constexpr std::uint64_t kIncrements = 20000;
  std::atomic<bool> done{false};
  std::thread incrementer([&] {
    for (std::uint64_t i = 0; i < kIncrements; ++i) c.add(1);
    done.store(true);
  });

  std::atomic<std::uint64_t> reported{0};
  auto taker = [&] {
    while (!done.load()) {
      for (const auto& d : dump.take_interval()) {
        if (d.name == "q.visits") reported.fetch_add(d.delta);
      }
    }
  };
  std::thread t1(taker);
  std::thread t2(taker);
  incrementer.join();
  t1.join();
  t2.join();

  // Collect whatever the racing takes left behind.
  for (const auto& d : dump.take_interval()) {
    if (d.name == "q.visits") reported.fetch_add(d.delta);
  }
  EXPECT_EQ(reported.load(), kIncrements)
      << "interleaved takes re-reported (or lost) increments";
}

TEST(StatsDump, NullRegistryIsInert) {
  stats_dumper dump(nullptr);
  EXPECT_TRUE(dump.take_interval().empty());
  EXPECT_EQ(dump.render(), "");
}

}  // namespace
}  // namespace asyncgt::telemetry
