#include "core/async_kcore.hpp"

#include <gtest/gtest.h>

#include "baselines/serial_kcore.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/webgen.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

traversal_options threads(std::size_t n) {
  traversal_options cfg;
  cfg.queue.num_threads = n;
  return cfg;
}

csr32 clique(vertex32 k) {
  std::vector<edge<vertex32>> edges;
  for (vertex32 u = 0; u < k; ++u) {
    for (vertex32 v = u + 1; v < k; ++v) edges.push_back({u, v, 1});
  }
  build_options opt;
  opt.symmetrize = true;
  return build_csr<vertex32>(k, std::move(edges), opt);
}

TEST(SerialKcore, CliqueIsKMinusOneCore) {
  const auto core = serial_kcore(clique(6));
  for (const auto c : core) EXPECT_EQ(c, 5u);
}

TEST(SerialKcore, StarIsOneCore) {
  const auto core = serial_kcore(star_graph<vertex32>(10));
  for (const auto c : core) EXPECT_EQ(c, 1u);
}

TEST(SerialKcore, GridInteriorIsTwoCore) {
  const auto core = serial_kcore(grid_graph<vertex32>(8, 8));
  for (const auto c : core) EXPECT_EQ(c, 2u);  // whole grid peels at 2
}

TEST(SerialKcore, ChainEndsAreOneCore) {
  const auto core = serial_kcore(chain_graph<vertex32>(10, true));
  for (const auto c : core) EXPECT_EQ(c, 1u);
}

TEST(SerialKcore, CliquePlusTailMixedCoreness) {
  // 4-clique {0,1,2,3} with pendant 4 attached to 0.
  std::vector<edge<vertex32>> edges;
  for (vertex32 u = 0; u < 4; ++u) {
    for (vertex32 v = u + 1; v < 4; ++v) edges.push_back({u, v, 1});
  }
  edges.push_back({0, 4, 1});
  build_options opt;
  opt.symmetrize = true;
  const csr32 g = build_csr<vertex32>(5, std::move(edges), opt);
  const auto core = serial_kcore(g);
  EXPECT_EQ(core[0], 3u);
  EXPECT_EQ(core[1], 3u);
  EXPECT_EQ(core[2], 3u);
  EXPECT_EQ(core[3], 3u);
  EXPECT_EQ(core[4], 1u);
}

TEST(AsyncKcore, MatchesSerialOnStructuredGraphs) {
  for (const auto& g :
       {clique(7), star_graph<vertex32>(50), grid_graph<vertex32>(12, 9),
        chain_graph<vertex32>(64, true)}) {
    const auto ref = serial_kcore(g);
    const auto r = async_kcore(g, threads(8));
    EXPECT_EQ(r.core, ref);
  }
}

class KcoreSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, std::size_t>> {
};

TEST_P(KcoreSweep, MatchesSerialPeelingOnRmat) {
  const auto [scale, use_b, nthreads] = GetParam();
  const csr32 g =
      rmat_graph_undirected<vertex32>(use_b ? rmat_b(scale) : rmat_a(scale));
  const auto ref = serial_kcore(g);
  const auto r = async_kcore(g, threads(nthreads));
  ASSERT_EQ(r.core.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(r.core[v], ref[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rmat, KcoreSweep,
    ::testing::Combine(::testing::Values(8u, 10u), ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{32})));

TEST(AsyncKcore, WebGraphMatchesSerial) {
  webgen_params p;
  p.num_hosts = 60;
  const csr32 g = webgen_graph<vertex32>(p);
  EXPECT_EQ(async_kcore(g, threads(16)).core, serial_kcore(g));
}

TEST(AsyncKcore, MaxCoreReported) {
  const auto r = async_kcore(clique(5), threads(2));
  EXPECT_EQ(r.max_core(), 4u);
}

TEST(AsyncKcore, IsolatedVerticesAreZeroCore) {
  const csr32 g = build_csr<vertex32>(3, {});
  const auto r = async_kcore(g, threads(2));
  for (const auto c : r.core) EXPECT_EQ(c, 0u);
}

TEST(AsyncKcore, DeterministicResultAcrossRuns) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_b(9));
  const auto first = async_kcore(g, threads(16));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(async_kcore(g, threads(16)).core, first.core);
  }
}

}  // namespace
}  // namespace asyncgt
