#include "sem/sem_csr.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "sem/edge_file.hpp"

namespace asyncgt::sem {
namespace {

class SemCsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_sem_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_temp(const csr32& g, const std::string& name) {
    const std::string p = (dir_ / name).string();
    write_graph(p, g);
    return p;
  }

  std::filesystem::path dir_;
};

TEST_F(SemCsrTest, MirrorsInMemoryAdjacency) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  sem_csr32 sg(write_temp(g, "g.agt"));
  ASSERT_EQ(sg.num_vertices(), g.num_vertices());
  ASSERT_EQ(sg.num_edges(), g.num_edges());
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sg.out_degree(v), g.out_degree(v));
    std::vector<vertex32> sem_nb;
    sg.for_each_out_edge(v, [&](vertex32 t, weight_t) {
      sem_nb.push_back(t);
    });
    const auto im_nb = g.neighbors(v);
    ASSERT_EQ(sem_nb.size(), im_nb.size());
    for (std::size_t i = 0; i < im_nb.size(); ++i) {
      EXPECT_EQ(sem_nb[i], im_nb[i]);
    }
  }
}

TEST_F(SemCsrTest, WeightedAdjacencyRoundTrips) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(7)), weight_scheme::uniform, 3);
  sem_csr32 sg(write_temp(g, "w.agt"));
  ASSERT_TRUE(sg.is_weighted());
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    std::vector<weight_t> sem_w, im_w;
    sg.for_each_out_edge(v, [&](vertex32, weight_t w) {
      sem_w.push_back(w);
    });
    g.for_each_out_edge(v, [&](vertex32, weight_t w) { im_w.push_back(w); });
    EXPECT_EQ(sem_w, im_w);
  }
}

TEST_F(SemCsrTest, IdWidthMismatchRejected) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  const std::string p = write_temp(g, "m.agt");
  EXPECT_THROW(sem_csr64{p}, std::runtime_error);
}

TEST_F(SemCsrTest, MemoryIsVertexIndexOnly) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  sem_csr32 sg(write_temp(g, "mem.agt"));
  EXPECT_EQ(sg.memory_bytes(), (g.num_vertices() + 1) * sizeof(std::uint64_t));
  EXPECT_GT(sg.device_bytes(), sg.memory_bytes());
}

TEST_F(SemCsrTest, ChargesDeviceForReads) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  ssd_params p;
  p.read_latency_us = 1.0;
  p.channels = 4;
  ssd_model dev(p);
  sem_csr32 sg(write_temp(g, "d.agt"), &dev);
  std::uint64_t edges_seen = 0;
  for (vertex32 v = 0; v < sg.num_vertices(); ++v) {
    sg.for_each_out_edge(v, [&](vertex32, weight_t) { ++edges_seen; });
  }
  EXPECT_EQ(edges_seen, g.num_edges());
  // One read per non-empty adjacency list on an unweighted graph.
  std::uint64_t nonempty = 0;
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    nonempty += (g.out_degree(v) > 0);
  }
  EXPECT_EQ(dev.counters().reads, nonempty);
}

TEST_F(SemCsrTest, AsyncBfsOverSemMatchesSerialInMemory) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  sem_csr32 sg(write_temp(g, "bfs.agt"));
  traversal_options cfg;
  cfg.queue.num_threads = 16;
  cfg.queue.secondary_vertex_sort = true;  // the paper's SEM configuration
  const auto sem_r = async_bfs(sg, vertex32{0}, cfg);
  const auto ref = serial_bfs(g, vertex32{0});
  EXPECT_EQ(sem_r.level, ref.level);
}

TEST_F(SemCsrTest, AsyncSsspOverSemMatchesDijkstra) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(8)), weight_scheme::uniform, 7);
  sem_csr32 sg(write_temp(g, "sssp.agt"));
  traversal_options cfg;
  cfg.queue.num_threads = 16;
  cfg.queue.secondary_vertex_sort = true;
  const auto sem_r = async_sssp(sg, vertex32{0}, cfg);
  EXPECT_EQ(sem_r.dist, dijkstra_sssp(g, vertex32{0}).dist);
}

TEST_F(SemCsrTest, AsyncCcOverSemMatchesSerial) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(8));
  sem_csr32 sg(write_temp(g, "cc.agt"));
  traversal_options cfg;
  cfg.queue.num_threads = 16;
  cfg.queue.secondary_vertex_sort = true;
  const auto sem_r = async_cc(sg, cfg);
  EXPECT_EQ(sem_r.component, serial_cc(g).component);
}

TEST_F(SemCsrTest, TraversalWithSimulatedDeviceStillCorrect) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  ssd_params p;
  p.read_latency_us = 20.0;
  p.channels = 8;
  ssd_model dev(p);
  sem_csr32 sg(write_temp(g, "dev.agt"), &dev);
  traversal_options cfg;
  cfg.queue.num_threads = 32;  // oversubscription hides the simulated latency
  const auto sem_r = async_bfs(sg, vertex32{0}, cfg);
  EXPECT_EQ(sem_r.level, serial_bfs(g, vertex32{0}).level);
  EXPECT_GT(dev.counters().reads, 0u);
}

TEST_F(SemCsrTest, OpenReverseServesInEdges) {
  csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const std::string p = (dir_ / "rev.agt").string();
  write_graph_with_reverse(p, g);
  sem_csr32 sg(p);
  EXPECT_FALSE(sg.has_reverse());
  sg.open_reverse();
  ASSERT_TRUE(sg.has_reverse());
  g.ensure_reverse();
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(sg.in_degree(v), g.in_degree(v));
    std::vector<vertex32> sem_in;
    sg.for_each_in_edge(v, [&](vertex32 s, weight_t) {
      sem_in.push_back(s);
    });
    const auto im_in = g.in_neighbors(v);
    ASSERT_EQ(sem_in.size(), im_in.size());
    for (std::size_t i = 0; i < im_in.size(); ++i) {
      EXPECT_EQ(sem_in[i], im_in[i]);
    }
  }
}

TEST_F(SemCsrTest, OpenReverseIdempotent) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  const std::string p = (dir_ / "ri.agt").string();
  write_graph_with_reverse(p, g);
  sem_csr32 sg(p);
  sg.open_reverse();
  const std::uint64_t bytes = sg.memory_bytes();
  sg.open_reverse();
  EXPECT_EQ(sg.memory_bytes(), bytes);
}

TEST_F(SemCsrTest, OpenReverseWithoutFileThrows) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  sem_csr32 sg(write_temp(g, "norev.agt"));
  EXPECT_THROW(sg.open_reverse(), std::runtime_error);
}

TEST_F(SemCsrTest, ReverseDoublesResidentMemory) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  const std::string p = (dir_ / "rm.agt").string();
  write_graph_with_reverse(p, g);
  sem_csr32 sg(p);
  const std::uint64_t fwd = sg.memory_bytes();
  sg.open_reverse();
  // Both directions keep only their (n+1)-entry vertex index resident.
  EXPECT_EQ(sg.memory_bytes(), 2 * fwd);
}

TEST(EdgeFile, MissingFileThrows) {
  EXPECT_THROW(edge_file("/nonexistent/path/file.bin"), std::runtime_error);
}

TEST_F(SemCsrTest, EdgeFileReadAtExactBytes) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  const std::string p = write_temp(g, "raw.agt");
  edge_file f(p);
  EXPECT_TRUE(f.is_open());
  EXPECT_EQ(f.size(), std::filesystem::file_size(p));
  agt_header h{};
  f.read_at(0, &h, sizeof(h));
  EXPECT_EQ(h.magic, agt_magic);
  EXPECT_EQ(h.num_vertices, g.num_vertices());
}

TEST_F(SemCsrTest, EdgeFileReadPastEndThrows) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  edge_file f(write_temp(g, "eof.agt"));
  char buf[16];
  EXPECT_THROW(f.read_at(f.size() - 4, buf, sizeof(buf)), std::runtime_error);
}

TEST_F(SemCsrTest, EdgeFileMoveSemantics) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  edge_file a(write_temp(g, "mv.agt"));
  const std::uint64_t size = a.size();
  edge_file b(std::move(a));
  EXPECT_FALSE(a.is_open());
  EXPECT_TRUE(b.is_open());
  EXPECT_EQ(b.size(), size);
  edge_file c;
  c = std::move(b);
  EXPECT_TRUE(c.is_open());
}

}  // namespace
}  // namespace asyncgt::sem
