// Storage-equivalence battery: for every graph family and every algorithm,
// the semi-external execution must produce bit-identical results to the
// in-memory execution — the property that lets the paper (and this library)
// treat storage as a swap-in backend rather than a different algorithm.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "asyncgt.hpp"
#include "gen/random_graphs.hpp"

namespace asyncgt {
namespace {

struct family_case {
  std::string name;
  csr32 graph;
  bool undirected;
};

std::vector<family_case> make_families() {
  std::vector<family_case> out;
  out.push_back({"rmat_a", rmat_graph<vertex32>(rmat_a(8)), false});
  out.push_back(
      {"rmat_b_und", rmat_graph_undirected<vertex32>(rmat_b(8)), true});
  out.push_back({"erdos_renyi",
                 erdos_renyi_graph<vertex32>(400, 2400, 3), true});
  out.push_back({"barabasi_albert",
                 barabasi_albert_graph<vertex32>(400, 4, 5), true});
  out.push_back({"grid", grid_graph<vertex32>(20, 20), true});
  webgen_params wp;
  wp.num_hosts = 30;
  out.push_back({"web", webgen_graph<vertex32>(wp), true});
  return out;
}

class SemEquivalence : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_eq_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
    fam_ = make_families()[static_cast<std::size_t>(GetParam())];
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  sem::sem_csr32 open_sem(const csr32& g, const std::string& tag) {
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    return sem::sem_csr32(p);
  }

  traversal_options cfg() const {
    traversal_options c;
    c.queue.num_threads = 16;
    c.queue.secondary_vertex_sort = true;
    return c;
  }

  std::filesystem::path dir_;
  family_case fam_;
};

TEST_P(SemEquivalence, Bfs) {
  auto sg = open_sem(fam_.graph, "bfs");
  EXPECT_EQ(async_bfs(sg, vertex32{0}, cfg()).level,
            async_bfs(fam_.graph, vertex32{0}, cfg()).level)
      << fam_.name;
}

TEST_P(SemEquivalence, Sssp) {
  const csr32 weighted =
      add_weights(fam_.graph, weight_scheme::log_uniform, 9);
  auto sg = open_sem(weighted, "sssp");
  EXPECT_EQ(async_sssp(sg, vertex32{0}, cfg()).dist,
            async_sssp(weighted, vertex32{0}, cfg()).dist)
      << fam_.name;
}

TEST_P(SemEquivalence, Cc) {
  if (!fam_.undirected) GTEST_SKIP() << "CC requires symmetric graphs";
  auto sg = open_sem(fam_.graph, "cc");
  EXPECT_EQ(async_cc(sg, cfg()).component,
            async_cc(fam_.graph, cfg()).component)
      << fam_.name;
}

TEST_P(SemEquivalence, Kcore) {
  if (!fam_.undirected) GTEST_SKIP() << "k-core requires symmetric graphs";
  auto sg = open_sem(fam_.graph, "kcore");
  EXPECT_EQ(async_kcore(sg, cfg()).core, async_kcore(fam_.graph, cfg()).core)
      << fam_.name;
}

TEST_P(SemEquivalence, PagerankWithinTolerance) {
  pagerank_options popt;
  popt.tolerance = 1e-5;
  auto sg = open_sem(fam_.graph, "pr");
  const auto im = async_pagerank(fam_.graph, popt, cfg());
  const auto sem_r = async_pagerank(sg, popt, cfg());
  // PageRank is order-dependent within the tolerance envelope; both runs
  // must agree to the analytic bound.
  const double bound = popt.tolerance *
                       static_cast<double>(fam_.graph.num_vertices()) / 0.15 *
                       2.0;
  double l1 = 0;
  for (std::size_t v = 0; v < im.rank.size(); ++v) {
    l1 += std::abs(im.rank[v] - sem_r.rank[v]);
  }
  EXPECT_LT(l1, bound) << fam_.name;
}

TEST_P(SemEquivalence, DiameterEstimateAgrees) {
  auto sg = open_sem(fam_.graph, "diam");
  EXPECT_EQ(estimate_diameter(sg, 1, 3, cfg()).lower_bound,
            estimate_diameter(fam_.graph, 1, 3, cfg()).lower_bound)
      << fam_.name;
}

INSTANTIATE_TEST_SUITE_P(Families, SemEquivalence, ::testing::Range(0, 6));

}  // namespace
}  // namespace asyncgt
