// Randomized cross-validation: many random graphs, every algorithm, every
// implementation — all answers must agree and pass the first-principles
// validators. This is the property-based safety net over the whole stack;
// seeds are fixed so failures reproduce.
#include <gtest/gtest.h>

#include <random>

#include "asyncgt.hpp"
#include "baselines/bsp_bfs.hpp"
#include "baselines/bsp_cc.hpp"
#include "baselines/delta_stepping.hpp"
#include "baselines/dobfs.hpp"
#include "baselines/levelsync_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_kcore.hpp"
#include "baselines/serial_sssp.hpp"
#include "baselines/syncprop_cc.hpp"
#include "gen/random_graphs.hpp"

namespace asyncgt {
namespace {

// Random graph drawn from a random family with random size/density.
csr32 random_graph(std::mt19937& rng, bool undirected) {
  const std::uint64_t n = 2 + rng() % 400;
  const int family = static_cast<int>(rng() % 3);
  std::vector<edge<vertex32>> edges;
  const std::uint64_t m = rng() % (4 * n + 1);
  switch (family) {
    case 0:  // uniform random
      for (std::uint64_t i = 0; i < m; ++i) {
        edges.push_back({static_cast<vertex32>(rng() % n),
                         static_cast<vertex32>(rng() % n), 1});
      }
      break;
    case 1:  // hub-heavy: half the edges touch vertex 0
      for (std::uint64_t i = 0; i < m; ++i) {
        const auto a = (i % 2 == 0) ? vertex32{0}
                                    : static_cast<vertex32>(rng() % n);
        edges.push_back({a, static_cast<vertex32>(rng() % n), 1});
      }
      break;
    default:  // layered chains with shortcuts
      for (std::uint64_t v = 0; v + 1 < n; ++v) {
        if (rng() % 4 != 0) {
          edges.push_back({static_cast<vertex32>(v),
                           static_cast<vertex32>(v + 1), 1});
        }
      }
      for (std::uint64_t i = 0; i < m / 4; ++i) {
        edges.push_back({static_cast<vertex32>(rng() % n),
                         static_cast<vertex32>(rng() % n), 1});
      }
      break;
  }
  build_options opt;
  opt.symmetrize = undirected;
  return build_csr<vertex32>(n, std::move(edges), opt);
}

csr32 with_random_weights(const csr32& g, std::mt19937& rng) {
  return add_weights(g,
                     rng() % 2 == 0 ? weight_scheme::uniform
                                    : weight_scheme::log_uniform,
                     rng());
}

traversal_options random_cfg(std::mt19937& rng) {
  traversal_options cfg;
  cfg.queue.num_threads = 1 + rng() % 24;
  cfg.queue.secondary_vertex_sort = (rng() % 2 == 0);
  return cfg;
}

class RandomFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomFuzz, AllBfsImplementationsAgree) {
  std::mt19937 rng(1000u + static_cast<unsigned>(GetParam()));
  const csr32 g = random_graph(rng, /*undirected=*/false);
  const auto start = static_cast<vertex32>(rng() % g.num_vertices());
  const auto ref = serial_bfs(g, start);
  EXPECT_EQ(async_bfs(g, start, random_cfg(rng)).level, ref.level);
  EXPECT_EQ(levelsync_bfs(g, start, 1 + rng() % 8).level, ref.level);
  EXPECT_EQ(bsp_bfs(g, start, 1 + rng() % 8).level, ref.level);
  EXPECT_TRUE(validate_distances(g, start, ref.level, true).ok);
}

TEST_P(RandomFuzz, AllSsspImplementationsAgree) {
  std::mt19937 rng(2000u + static_cast<unsigned>(GetParam()));
  const csr32 g = with_random_weights(random_graph(rng, false), rng);
  const auto start = static_cast<vertex32>(rng() % g.num_vertices());
  const auto ref = dijkstra_sssp(g, start);
  const auto r = async_sssp(g, start, random_cfg(rng));
  EXPECT_EQ(r.dist, ref.dist);
  EXPECT_EQ(delta_stepping_sssp(g, start, 1 + rng() % 5000).dist, ref.dist);
  EXPECT_TRUE(validate_distances(g, start, r.dist).ok);
  EXPECT_TRUE(validate_parents(g, start, r.dist, r.parent).ok);
}

TEST_P(RandomFuzz, AllCcImplementationsAgree) {
  std::mt19937 rng(3000u + static_cast<unsigned>(GetParam()));
  const csr32 g = random_graph(rng, /*undirected=*/true);
  const auto ref = serial_cc(g);
  EXPECT_EQ(async_cc(g, random_cfg(rng)).component, ref.component);
  EXPECT_EQ(syncprop_cc(g, 1 + rng() % 8).component, ref.component);
  EXPECT_EQ(bsp_cc(g, 1 + rng() % 8).component, ref.component);
  EXPECT_TRUE(validate_components(g, ref.component).ok);
}

TEST_P(RandomFuzz, KcoreAndDobfsAgreeOnUndirected) {
  std::mt19937 rng(4000u + static_cast<unsigned>(GetParam()));
  const csr32 g = random_graph(rng, /*undirected=*/true);
  EXPECT_EQ(async_kcore(g, random_cfg(rng)).core, serial_kcore(g));
  const auto start = static_cast<vertex32>(rng() % g.num_vertices());
  EXPECT_EQ(dobfs(g, start).level, serial_bfs(g, start).level);
}

TEST_P(RandomFuzz, BfsEqualsUnitWeightSssp) {
  std::mt19937 rng(5000u + static_cast<unsigned>(GetParam()));
  const csr32 g = random_graph(rng, false);
  const auto start = static_cast<vertex32>(rng() % g.num_vertices());
  EXPECT_EQ(async_bfs(g, start, random_cfg(rng)).level,
            async_sssp(g, start, random_cfg(rng)).dist);
}

INSTANTIATE_TEST_SUITE_P(Trials, RandomFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace asyncgt
