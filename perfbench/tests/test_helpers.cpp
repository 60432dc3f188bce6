// Tests of the benchmark's own helpers: the timing Graph adaptor forwards
// exactly, the exact-percentile helpers are right at small counts, and
// self times never go negative.
//
//   cmake -S perfbench -B build-perfbench -DAGTBENCH_TESTS=ON
//   cmake --build build-perfbench -j4 --target agtbench_tests
//   (cd build-perfbench && ctest --output-on-failure)
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "agtbench/sample_stats.hpp"
#include "agtbench/span_log.hpp"
#include "agtbench/timed_graph.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "core/hybrid_traversal.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/graph_io.hpp"
#include "sem/device_presets.hpp"
#include "sem/sem_config.hpp"

namespace {

using namespace asyncgt;
using agtbench::adjacency_meter;
using agtbench::timed_graph;

csr32 small_graph() {
  csr32 g = add_weights(rmat_graph_undirected<vertex32>(rmat_a(10, 7)),
                        weight_scheme::uniform, 8);
  g.ensure_reverse();
  return g;
}

traversal_options four_lanes() {
  traversal_options o;
  o.queue.num_threads = 4;
  return o;
}

/// Runs BFS, SSSP, CC and hybrid BFS over `plain` and over `timed`, which
/// wraps it, and expects identical labels.
template <typename G, typename T>
void expect_same_labels(const G& plain, const T& timed,
                        const traversal_options& opt) {
  engine& eng = engine::process_default();
  const vertex32 src = 1;
  EXPECT_EQ(eng.submit_bfs(plain, src, opt).get().level,
            eng.submit_bfs(timed, src, opt).get().level);
  EXPECT_EQ(eng.submit_sssp(plain, src, opt).get().dist,
            eng.submit_sssp(timed, src, opt).get().dist);
  EXPECT_EQ(eng.submit_cc(plain, opt).get().component,
            eng.submit_cc(timed, opt).get().component);
  EXPECT_EQ(hybrid_bfs(plain, src, opt).level,
            hybrid_bfs(timed, src, opt).level);
}

TEST(TimedGraph, ForwardsExactlyInMemory) {
  const csr32 g = small_graph();
  for (const std::uint32_t every : {1u, 16u}) {
    const adjacency_meter out(every);
    const adjacency_meter in(every);
    expect_same_labels(g, timed_graph<csr32>(g, out, in), four_lanes());
    EXPECT_GT(out.totals().calls, 0u);
    EXPECT_GT(in.totals().calls, 0u);  // hybrid's bottom-up sweeps
  }
}

TEST(TimedGraph, ForwardsExactlyOnSem) {
  const csr32 g = small_graph();
  const std::string path = "agtbench_test_graph.agt";
  write_graph_with_reverse(path, g);
  {
    sem::ssd_model dev(sem::intel_params(0.01));
    const auto bundle = sem::sem_config(path)
                            .with_device(&dev)
                            .with_cache_fraction(0.25)
                            .with_reverse(true)
                            .open<vertex32>();
    const adjacency_meter out(1);
    const adjacency_meter in(1);
    traversal_options opt = four_lanes();
    opt.queue.flush_batch = 1;
    opt.queue.secondary_vertex_sort = true;
    expect_same_labels(*bundle.graph,
                       timed_graph<sem::sem_csr32>(*bundle.graph, out, in),
                       opt);
    EXPECT_GT(out.totals().call_s, 0.0);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(reverse_path_for(path));
}

TEST(TimedGraph, CountsAreExactUnderSampling) {
  const csr32 g = small_graph();
  const adjacency_meter out(7);
  const adjacency_meter in(7);
  const timed_graph<csr32> tg(g, out, in);
  std::uint64_t edges = 0;
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    std::uint64_t seen = 0;
    tg.for_each_out_edge(v, [&](vertex32, weight_t) { ++seen; });
    EXPECT_EQ(seen, g.out_degree(v));
    edges += seen;
  }
  const agtbench::adjacency_totals t = out.totals();
  EXPECT_EQ(t.calls, g.num_vertices());
  EXPECT_EQ(t.edges, edges);
  EXPECT_EQ(t.edges, g.num_edges());
  EXPECT_EQ(t.sampled_calls, g.num_vertices() / 7);
  EXPECT_GE(t.fetch_self_s(), 0.0);
  EXPECT_LE(t.callback_s, t.call_s);
}

void spin_ns(std::int64_t ns) {
  const std::int64_t until = agtbench::now_ns() + ns;
  while (agtbench::now_ns() < until) {
  }
}

TEST(TimedGraph, SplitsFetchFromCallbacksAtTheFirstEdge) {
  // Every call spends 200 us before its first edge and 50 us in each of
  // its 4 callbacks; one call in two is sampled and scaled back up.
  const adjacency_meter m(2);
  for (int call = 0; call < 40; ++call) {
    m.measure<vertex32>(
        [](auto&& cb) {
          spin_ns(200'000);
          for (vertex32 v = 0; v < 4; ++v) cb(v, weight_t{1});
        },
        [](vertex32, weight_t) { spin_ns(50'000); });
  }
  const agtbench::adjacency_totals t = m.totals();
  EXPECT_EQ(t.calls, 40u);
  EXPECT_EQ(t.edges, 160u);
  EXPECT_EQ(t.sampled_calls, 20u);
  // Busy waits give lower bounds that hold under any load.
  EXPECT_GE(t.fetch_self_s(), 0.9 * 40 * 200e-6);
  EXPECT_GE(t.callback_s, 0.9 * 160 * 50e-6);
  EXPECT_LE(t.callback_s, t.call_s);
}

TEST(SampleStats, ExactQuantilesAtSmallCounts) {
  EXPECT_DOUBLE_EQ(agtbench::median({16.72e6}), 16.72e6);
  EXPECT_DOUBLE_EQ(agtbench::quantile({16.72e6}, 0.99), 16.72e6);
  EXPECT_DOUBLE_EQ(agtbench::median({3.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(agtbench::median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(agtbench::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(agtbench::quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(agtbench::quantile({4.0, 1.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(agtbench::quantile({4.0, 1.0}, 1.0), 4.0);
  EXPECT_THROW(agtbench::median({}), std::invalid_argument);
  EXPECT_THROW(agtbench::quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(SampleStats, SupportedTailNeedsTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_FALSE(agtbench::supported_tail(v).valid);  // 10 samples: no tail
  v.push_back(11);
  agtbench::tail_point t = agtbench::supported_tail(v);
  ASSERT_TRUE(t.valid);  // 11 samples: the minimum, 10 beyond it
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_DOUBLE_EQ(t.percentile, 0.0);
  for (int i = 12; i <= 101; ++i) v.push_back(i);
  t = agtbench::supported_tail(v);  // 101 samples: p90 = 91, 10 beyond
  ASSERT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.value, 91.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(agtbench::quantile(v, t.percentile / 100.0), t.value);
  t = agtbench::supported_tail({2.0, 1.0}, 1);
  ASSERT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
}

TEST(SpanLog, SelfTimeNeverNegative) {
  agtbench::span_log log;
  const std::uint64_t g = log.new_group();
  const std::uint64_t q = log.add("query", 0, g, 100, 200);
  // Overlapping children, one sticking out past the parent: coverage is
  // their clipped union, so self time is 100 - 100 = 0, not negative.
  log.add("a", q, g, 90, 160);
  log.add("b", q, g, 150, 260);
  EXPECT_DOUBLE_EQ(log.self_seconds(q), 0.0);
  const std::uint64_t r = log.add("query", 0, g, 0, 100);
  log.add("a", r, g, 10, 30);
  log.add("b", r, g, 20, 40);
  EXPECT_NEAR(log.self_seconds(r), 70e-9, 1e-15);
  // Lane sums: children laid end to end; a child sum larger than its
  // parent clips, leaving zero self time.
  const std::uint64_t lanes = log.add_sum("lanes", r, g, 2.0);
  const std::uint64_t adj = log.add_sum("adjacency", lanes, g, 1.5);
  log.add_sum("push", adj, g, 1.0);
  log.add_sum("scan", adj, g, 1.0);
  EXPECT_NEAR(log.self_seconds(lanes), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(log.self_seconds(adj), 0.0);
  // Lane sums do not eat into the interval parent's self time.
  EXPECT_NEAR(log.self_seconds(r), 70e-9, 1e-15);
}

TEST(SpanLog, CoveredUnionClipsAndMerges) {
  EXPECT_EQ(agtbench::covered_ns(0, 10, {}), 0);
  EXPECT_EQ(agtbench::covered_ns(0, 10, {{2, 4}, {3, 6}, {8, 20}}), 6);
  EXPECT_EQ(agtbench::covered_ns(0, 10, {{-5, 50}}), 10);
  EXPECT_EQ(agtbench::covered_ns(0, 10, {{12, 15}, {5, 5}}), 0);
}

}  // namespace
