#include "core/graph_metrics.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/multi_source_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

traversal_options threads(std::size_t n) {
  traversal_options cfg;
  cfg.queue.num_threads = n;
  return cfg;
}

TEST(MultiSourceBfs, SingleSourceMatchesBfs) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const auto single = serial_bfs(g, vertex32{0});
  const auto multi = async_multi_source_bfs(g, {0}, threads(4));
  EXPECT_EQ(multi.level, single.level);
}

TEST(MultiSourceBfs, NearestSourceWins) {
  // Chain 0-1-2-3-4-5-6 (undirected), sources {0, 6}.
  const csr32 g = chain_graph<vertex32>(7, /*undirected=*/true);
  const auto r = async_multi_source_bfs(g, {0, 6}, threads(2));
  EXPECT_EQ(r.level, (std::vector<dist_t>{0, 1, 2, 3, 2, 1, 0}));
}

TEST(MultiSourceBfs, ParentForestRootsAtSources) {
  const csr32 g = chain_graph<vertex32>(7, true);
  const auto r = async_multi_source_bfs(g, {0, 6}, threads(2));
  EXPECT_EQ(r.parent[0], 0u);
  EXPECT_EQ(r.parent[6], 6u);
  EXPECT_EQ(r.parent[1], 0u);
  EXPECT_EQ(r.parent[5], 6u);
}

TEST(MultiSourceBfs, EmptySourcesRejected) {
  const csr32 g = chain_graph<vertex32>(3, true);
  EXPECT_THROW(async_multi_source_bfs(g, {}, threads(1)),
               std::invalid_argument);
  EXPECT_THROW(async_multi_source_bfs(g, {9}, threads(1)), std::out_of_range);
}

TEST(MultiSourceBfs, AllVerticesAsSourcesGivesZeros) {
  const csr32 g = grid_graph<vertex32>(4, 4);
  std::vector<vertex32> all(16);
  std::iota(all.begin(), all.end(), 0u);
  const auto r = async_multi_source_bfs(g, all, threads(4));
  for (const auto l : r.level) EXPECT_EQ(l, 0u);
}

TEST(Eccentricity, GridCorner) {
  const csr32 g = grid_graph<vertex32>(5, 4);
  EXPECT_EQ(eccentricity(g, vertex32{0}, threads(2)), 4u + 3u);
}

TEST(EstimateDiameter, ExactOnPath) {
  // Double sweep is exact on trees; a path of 50 has diameter 49.
  const csr32 g = chain_graph<vertex32>(50, true);
  const auto est = estimate_diameter(g, 1, 3, threads(2));
  EXPECT_EQ(est.lower_bound, 49u);
  EXPECT_EQ(est.sweeps, 2u);
}

TEST(EstimateDiameter, LowerBoundsGridDiameter) {
  const csr32 g = grid_graph<vertex32>(10, 10);
  const auto est = estimate_diameter(g, 3, 7, threads(2));
  EXPECT_LE(est.lower_bound, 18u);  // true diameter
  EXPECT_GE(est.lower_bound, 9u);   // sweep finds at least a corner-ish path
}

TEST(EstimateDiameter, SmallWorldIsSmall) {
  // The paper's "small diameter" property on scale-free graphs.
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(10));
  const auto est = estimate_diameter(g, 2, 5, threads(8));
  EXPECT_LE(est.lower_bound, 12u);
  EXPECT_GE(est.lower_bound, 2u);
}

TEST(EstimateDiameter, EmptyGraph) {
  const csr32 g = build_csr<vertex32>(0, {});
  EXPECT_EQ(estimate_diameter(g).lower_bound, 0u);
}

TEST(AveragePathLength, PathGraphKnownValue) {
  // On an undirected path of 3 (0-1-2) from any source the mean finite
  // distance is within [1, 1.5]; sampled estimate must land there.
  const csr32 g = chain_graph<vertex32>(3, true);
  const double apl = average_path_length_sampled(g, 8, 3, threads(2));
  EXPECT_GE(apl, 1.0);
  EXPECT_LE(apl, 1.5);
}

TEST(AveragePathLength, ScaleFreeShorterThanGrid) {
  const csr32 sf = rmat_graph_undirected<vertex32>(rmat_a(9));
  const csr32 gr = grid_graph<vertex32>(23, 23);  // ~same vertex count
  const double apl_sf = average_path_length_sampled(sf, 3, 1, threads(4));
  const double apl_gr = average_path_length_sampled(gr, 3, 1, threads(4));
  EXPECT_LT(apl_sf, apl_gr);
}

}  // namespace
}  // namespace asyncgt
