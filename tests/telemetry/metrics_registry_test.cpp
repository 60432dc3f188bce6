#include "telemetry/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics_json.hpp"

namespace asyncgt::telemetry {
namespace {

TEST(MetricsRegistry, CounterAggregatesAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  metrics_registry reg;
  auto& c = reg.get_counter("test.visits");

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.total(), kThreads * kPerThread);
}

TEST(MetricsRegistry, GetReturnsSameInstanceAndScrapeSeesIt) {
  metrics_registry reg;
  auto& a = reg.get_counter("queue.visits");
  auto& b = reg.get_counter("queue.visits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);

  const auto snap = reg.scrape();
  EXPECT_EQ(snap.value_of("queue.visits"), 7u);
  const auto* e = snap.find("queue.visits");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, metric_kind::counter);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  metrics_registry reg;
  reg.get_counter("m");
  EXPECT_THROW(reg.get_gauge("m"), std::logic_error);
  EXPECT_THROW(reg.get_histogram("m"), std::logic_error);
}

TEST(MetricsRegistry, GaugeRecordsMax) {
  metrics_registry reg;
  auto& g = reg.get_gauge("depth");
  g.record_max(5);
  g.record_max(3);
  g.record_max(9);
  EXPECT_EQ(g.get(), 9);
  g.set(-2);
  EXPECT_EQ(g.get(), -2);
  g.add(7);
  EXPECT_EQ(g.get(), 5);
}

TEST(MetricsRegistry, GaugeRecordMaxIsThreadSafe) {
  metrics_registry reg;
  auto& g = reg.get_gauge("max");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 10'000; ++i) g.record_max(t * 10'000 + i);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(g.get(), 3 * 10'000 + 9'999);
}

TEST(MetricsRegistry, HistogramBucketsByLog2) {
  metrics_registry reg;
  auto& h = reg.get_histogram("lat");
  // Bucket i covers [2^i, 2^(i+1)); bucket 0 also absorbs the value 0.
  h.record(0);     // bucket 0
  h.record(1);     // bucket 0
  h.record(2);     // bucket 1
  h.record(3);     // bucket 1
  h.record(1024);  // bucket 10

  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[10], 1u);
  EXPECT_EQ(histogram::bucket_of(0), 0u);
  EXPECT_EQ(histogram::bucket_of(1), 0u);
  EXPECT_EQ(histogram::bucket_of(2), 1u);
  EXPECT_EQ(histogram::bucket_of(1023), 9u);
  EXPECT_EQ(histogram::bucket_of(1024), 10u);
}

TEST(MetricsRegistry, HistogramAggregatesAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  metrics_registry reg;
  auto& h = reg.get_histogram("lat");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < 10'000; ++i) h.record(i % 64);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.total(), kThreads * 10'000);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
}

TEST(MetricsRegistry, ResetClearsValues) {
  metrics_registry reg;
  reg.get_counter("c").add(5);
  reg.get_gauge("g").set(5);
  reg.get_histogram("h").record(5);
  reg.reset();
  const auto snap = reg.scrape();
  EXPECT_EQ(snap.value_of("c"), 0u);
  EXPECT_EQ(snap.find("g")->value, 0);
  EXPECT_EQ(snap.find("h")->total, 0u);
  EXPECT_EQ(snap.find("h")->min, 0u);
  EXPECT_EQ(snap.find("h")->max, 0u);
}

// A log2 bucket alone would put one sample of 16,720,000 at the middle of
// [2^23, 2^24), i.e. report p50 = 12,582,912. The exact min/max bound the
// interpolation, so a one-valued series reports its value at every
// percentile.
TEST(MetricsRegistry, OneSampleHistogramExportsExactPercentiles) {
  metrics_registry reg;
  reg.get_histogram("lat").record(16'720'000);
  const json_value doc = to_json(reg.scrape());
  const json_value* h = doc.find("lat");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"min", "p50", "p95", "p99", "max"}) {
    const json_value* v = h->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->as_double(), 16'720'000.0) << key;
  }
}

TEST(MetricsRegistry, ExportedPercentilesStayInsideTheRecordedRange) {
  metrics_registry reg;
  auto& h = reg.get_histogram("lat");
  for (std::uint64_t v : {3u, 1000u, 1001u, 1500u, 70'000u}) h.record(v);
  const json_value doc = to_json(reg.scrape());
  const json_value& e = *doc.find("lat");
  const double p50 = e.find("p50")->as_double();
  const double p95 = e.find("p95")->as_double();
  const double p99 = e.find("p99")->as_double();
  EXPECT_EQ(e.find("min")->as_double(), 3.0);
  EXPECT_EQ(e.find("max")->as_double(), 70'000.0);
  EXPECT_LE(3.0, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 70'000.0);
}

}  // namespace
}  // namespace asyncgt::telemetry
