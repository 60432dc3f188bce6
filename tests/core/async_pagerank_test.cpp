#include "core/async_pagerank.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/power_iteration.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/webgen.hpp"
#include "graph/builder.hpp"

// Tolerance guidance: push-based PageRank does O(1/(tol*(1-alpha))) flushes
// in the worst case, so tests run at the practical 1e-6..1e-8 range and
// assert errors against the analytic bound tol*N/(1-alpha), not machine
// epsilon. The synchronous power-iteration reference is cheap at any
// precision, so it is always run much tighter than the async result.
namespace asyncgt {
namespace {

traversal_options threads(std::size_t n) {
  traversal_options cfg;
  cfg.queue.num_threads = n;
  return cfg;
}

pagerank_options tol(double tolerance) {
  pagerank_options opt;
  opt.tolerance = tolerance;
  return opt;
}

double l1_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

TEST(AsyncPagerank, InvalidOptionsRejected) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  pagerank_options bad;
  bad.alpha = 1.5;
  EXPECT_THROW(async_pagerank(g, bad), std::invalid_argument);
  bad = pagerank_options{};
  bad.tolerance = 0;
  EXPECT_THROW(async_pagerank(g, bad), std::invalid_argument);
}

TEST(AsyncPagerank, TwoVertexCycleIsUniform) {
  // Symmetric 2-cycle: both vertices must have equal rank summing to ~1.
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}, {1, 0, 1}});
  const auto r = async_pagerank(g, tol(1e-8), threads(2));
  EXPECT_NEAR(r.rank[0], r.rank[1], 1e-6);
  EXPECT_NEAR(r.total_rank(), 1.0, 1e-5);
}

TEST(AsyncPagerank, SinkReceivesMoreThanSource) {
  // 0 -> 1: vertex 1 accumulates vertex 0's pushed mass.
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  const auto r = async_pagerank(g, tol(1e-8), threads(1));
  EXPECT_GT(r.rank[1], r.rank[0]);
}

TEST(AsyncPagerank, HubOfStarDominates) {
  const csr32 g = star_graph<vertex32>(64);  // symmetric star
  const auto r = async_pagerank(g, tol(1e-6), threads(4));
  EXPECT_EQ(r.top_vertex(), 0u);
  for (vertex32 v = 1; v < 64; ++v) EXPECT_GT(r.rank[0], r.rank[v]);
  // Leaves are symmetric up to the tolerance-level truncation.
  for (vertex32 v = 2; v < 64; ++v) EXPECT_NEAR(r.rank[v], r.rank[1], 1e-4);
}

TEST(AsyncPagerank, MatchesPowerIterationOnRmat) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto ref = power_iteration_pagerank(g, 0.85, 1e-12);
  const double tolerance = 1e-5;
  // Analytic L1 bound: tolerance * N / (1 - alpha).
  const double bound =
      tolerance * static_cast<double>(g.num_vertices()) / 0.15;
  for (const std::size_t t : {1u, 8u, 32u}) {
    const auto r = async_pagerank(g, tol(tolerance), threads(t));
    EXPECT_LT(l1_diff(r.rank, ref.rank), bound) << "threads=" << t;
  }
}

TEST(AsyncPagerank, MatchesPowerIterationOnWebGraph) {
  webgen_params p;
  p.num_hosts = 40;
  const csr32 g = webgen_graph<vertex32>(p);
  const auto ref = power_iteration_pagerank(g, 0.85, 1e-12);
  const double tolerance = 1e-5;
  const double bound =
      tolerance * static_cast<double>(g.num_vertices()) / 0.15;
  const auto r = async_pagerank(g, tol(tolerance), threads(16));
  EXPECT_LT(l1_diff(r.rank, ref.rank), bound);
}

TEST(AsyncPagerank, ToleranceControlsError) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const auto ref = power_iteration_pagerank(g, 0.85, 1e-13);
  const double err_loose =
      l1_diff(async_pagerank(g, tol(1e-4), threads(4)).rank, ref.rank);
  const double err_tight =
      l1_diff(async_pagerank(g, tol(1e-6), threads(4)).rank, ref.rank);
  EXPECT_LT(err_tight, err_loose);
  EXPECT_LT(err_loose, 1e-4 * static_cast<double>(g.num_vertices()) / 0.15);
}

TEST(AsyncPagerank, DanglingMassIsDroppedConsistently) {
  // 0 -> 1, 1 has no out-edges: total rank < 1 under the drop convention,
  // and async agrees with the synchronous baseline.
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  const auto async_r = async_pagerank(g, tol(1e-8), threads(2));
  const auto sync_r = power_iteration_pagerank(g);
  EXPECT_LT(async_r.total_rank(), 1.0);
  EXPECT_NEAR(async_r.total_rank(), sync_r.total_rank(), 1e-6);
  EXPECT_NEAR(async_r.rank[0], sync_r.rank[0], 1e-6);
  EXPECT_NEAR(async_r.rank[1], sync_r.rank[1], 1e-6);
}

TEST(AsyncPagerank, RanksArePositive) {
  const csr32 g = rmat_graph<vertex32>(rmat_b(8));
  const auto r = async_pagerank(g, tol(1e-5), threads(8));
  for (const double x : r.rank) EXPECT_GT(x, 0.0);
}

TEST(AsyncPagerank, EmptyGraph) {
  const csr32 g = build_csr<vertex32>(0, {});
  const auto r = async_pagerank(g, {}, threads(2));
  EXPECT_TRUE(r.rank.empty());
}

TEST(AsyncPagerank, FlushesAtLeastOncePerVertex) {
  // The per-vertex seed (1-alpha)/N exceeds the tolerance, so every vertex
  // flushes at least once and earns positive rank.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const auto r = async_pagerank(g, tol(1e-6), threads(4));
  EXPECT_GE(r.flushes, g.num_vertices());
}

TEST(AsyncPagerank, TighterToleranceDoesMoreWork) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const auto loose = async_pagerank(g, tol(1e-4), threads(4));
  const auto tight = async_pagerank(g, tol(1e-6), threads(4));
  EXPECT_GT(tight.flushes, loose.flushes);
}

}  // namespace
}  // namespace asyncgt
