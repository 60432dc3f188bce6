#include "telemetry/trace_writer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics_registry.hpp"

namespace asyncgt::telemetry {
namespace {

// Counts events of phase `ph` in a parsed Chrome trace document.
std::size_t count_phase(const json_value& doc, const std::string& ph) {
  std::size_t n = 0;
  for (const auto& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == ph) ++n;
  }
  return n;
}

TEST(TraceWriter, EmitsParseableChromeTraceJson) {
  trace_writer tw("test-proc");
  trace_stream& s = tw.stream(1, "worker-0");
  s.complete("visit", 10, 5);
  s.complete("visit", 20, 7, "vertex", 42);
  s.instant("wake", 30);
  s.counter("depth", 40, 3.0);

  const json_value doc = json_value::parse(tw.to_json_string());
  const json_value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Process + thread metadata, then the four data events.
  EXPECT_GE(count_phase(doc, "M"), 2u);
  EXPECT_EQ(count_phase(doc, "X"), 2u);
  EXPECT_EQ(count_phase(doc, "i"), 1u);
  EXPECT_EQ(count_phase(doc, "C"), 1u);

  for (const auto& e : events->as_array()) {
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (e.find("ph")->as_string() == "X") {
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
    }
  }
}

TEST(TraceWriter, SpanArgsAndCounterValuesSurviveSerialization) {
  trace_writer tw;
  trace_stream& s = tw.stream(1);
  s.complete("visit", 0, 3, "vertex", 42);
  s.counter("depth", 5, 2.5);

  const json_value doc = json_value::parse(tw.to_json_string());
  bool saw_arg = false, saw_counter = false;
  for (const auto& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "X") {
      const json_value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("vertex")->as_int(), 42);
      saw_arg = true;
    }
    if (e.find("ph")->as_string() == "C") {
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_double(), 2.5);
      saw_counter = true;
    }
  }
  EXPECT_TRUE(saw_arg);
  EXPECT_TRUE(saw_counter);
}

TEST(TraceWriter, StreamIsStablePerTid) {
  trace_writer tw;
  trace_stream& a = tw.stream(3, "w");
  trace_stream& b = tw.stream(3);
  EXPECT_EQ(&a, &b);
  trace_stream& c = tw.stream(4);
  EXPECT_NE(&a, &c);
}

TEST(TraceWriter, ScopedSpanRecordsAndNullIsNoop) {
  trace_writer tw;
  trace_stream& s = tw.stream(1);
  {
    scoped_span span(&s, "work");
    span.set_arg("vertex", 7);
  }
  { scoped_span span(nullptr, "ignored"); }
  EXPECT_EQ(s.size(), 1u);
}

TEST(TraceWriter, PhaseTimerRecordsSpanAndCounter) {
  trace_writer tw;
  metrics_registry reg;
  { phase_timer ph(&tw, "load", &reg); }
  { phase_timer ph(nullptr, "no-writer", &reg); }   // metrics only
  { phase_timer ph(nullptr, "no-sinks", nullptr); }  // full no-op

  const json_value doc = json_value::parse(tw.to_json_string());
  EXPECT_EQ(count_phase(doc, "X"), 1u);
  const auto snap = reg.scrape();
  EXPECT_NE(snap.find("phase.load.us"), nullptr);
  EXPECT_NE(snap.find("phase.no-writer.us"), nullptr);
  EXPECT_EQ(snap.find("phase.no-sinks.us"), nullptr);
}

TEST(TraceWriter, WriteFileProducesLoadableDocument) {
  const auto path =
      std::filesystem::temp_directory_path() / "asyncgt_trace_test.json";
  {
    trace_writer tw;
    tw.stream(1, "w").complete("visit", 0, 1);
    tw.write_file(path.string());
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json_value doc = json_value::parse(buf.str());
  EXPECT_GE(doc.find("traceEvents")->as_array().size(), 2u);
  std::filesystem::remove(path);
}

TEST(TraceWriter, WriteFileThrowsOnBadPath) {
  trace_writer tw;
  EXPECT_THROW(tw.write_file("/nonexistent-dir/x/y/trace.json"),
               std::runtime_error);
}

// Regression: one job's abort path flushes the writer while other jobs'
// gangs are still appending to their own single-writer streams (the
// service engine shares one trace_writer across concurrent jobs). The
// serialization walk must snapshot each stream under its per-stream mutex
// — before that, it iterated events_ vectors racing their reallocation.
// Run under TSan by the tsan preset; the final parse also proves a
// mid-append flush still produces a loadable document.
TEST(TraceWriter, FlushIsSafeWhileOtherStreamsAppend) {
  const auto path =
      std::filesystem::temp_directory_path() / "asyncgt_trace_flushrace.json";
  trace_writer tw("flush-race");
  tw.set_flush_path(path.string());

  constexpr int kWriters = 4;
  constexpr std::uint64_t kEventsPerWriter = 2000;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&tw, &writers_left, t] {
      trace_stream& s =
          tw.stream(100 + static_cast<std::uint32_t>(t), "gang-worker");
      for (std::uint64_t i = 0; i < kEventsPerWriter; ++i) {
        s.complete("visit", i, 1, "vertex", i);
        if (i % 64 == 0) s.instant("wake", i);
      }
      writers_left.fetch_sub(1);
    });
  }
  // The "cancelled job": flush repeatedly while the other gangs trace.
  std::size_t flushes = 0;
  while (writers_left.load() > 0) {
    EXPECT_TRUE(tw.flush());
    ++flushes;
  }
  for (auto& th : writers) th.join();
  EXPECT_GE(flushes, 1u);

  EXPECT_TRUE(tw.flush());  // quiescent flush sees every event
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json_value doc = json_value::parse(buf.str());
  std::size_t completes = 0;
  for (const auto& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "X") ++completes;
  }
  EXPECT_EQ(completes, kWriters * kEventsPerWriter);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace asyncgt::telemetry
