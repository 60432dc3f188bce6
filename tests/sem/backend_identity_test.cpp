// Backend-identity properties (`ctest -L backend`; docs/io_backends.md):
// whatever transport moves the bytes, the traversal must not be able to
// tell. Every compiled io_backend is held to bit-identical labels and visit
// counts against the sync baseline — across batch depths, across the
// weighted dual-stream (targets + weights) enqueue path, and under injected
// transient faults. The one permitted divergence is the failure mode: a
// merged batch that hits a permanently bad range must abort the traversal
// with the failing byte range in the message, exactly as sync would.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "asyncgt.hpp"
#include "sem/io_backend.hpp"

namespace asyncgt {
namespace {

class BackendIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_bid_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_tmp(const csr32& g, const std::string& tag) {
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    return p;
  }

  traversal_options cfg() const {
    traversal_options c;
    c.queue.num_threads = 8;
    c.queue.flush_batch = 1;
    c.queue.secondary_vertex_sort = true;
    return c;
  }

  static sem::io_retry_policy fast_retry(std::uint32_t max_retries) {
    sem::io_retry_policy p;
    p.max_retries = max_retries;
    p.backoff_initial_us = 1;
    p.backoff_max_us = 10;
    return p;
  }

  /// Open the on-disk graph through a specific backend, optionally under
  /// fault injection.
  sem::sem_csr32 open(const std::string& path, sem::io_backend_kind kind,
                      std::uint32_t batch,
                      sem::fault_injector* inj = nullptr) {
    sem::sem_csr32 sg(path);
    if (inj != nullptr) {
      sg.set_retry_policy(fast_retry(4));
      sg.set_fault_injector(inj);
    }
    sem::io_backend_config bcfg;
    bcfg.kind = kind;
    bcfg.batch = batch;
    sg.set_io_backend(bcfg);
    return sg;
  }

  /// Every compiled backend that can actually run on this host.
  static std::vector<sem::io_backend_kind> runnable() {
    std::vector<sem::io_backend_kind> out;
    for (const auto kind : sem::compiled_io_backends()) {
      if (sem::io_backend_available(kind)) out.push_back(kind);
    }
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(BackendIdentity, BfsLabelsAndVisitCountsMatchSyncAcrossBatches) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "bfs");
  auto ref_g = open(path, sem::io_backend_kind::sync, 8);
  const auto ref = async_bfs(ref_g, vertex32{0}, cfg());
  for (const auto kind : runnable()) {
    for (const std::uint32_t batch : {1u, 2u, 8u, 64u}) {
      auto sg = open(path, kind, batch);
      const auto got = async_bfs(sg, vertex32{0}, cfg());
      EXPECT_EQ(got.level, ref.level)
          << sem::to_string(kind) << " batch=" << batch;
      EXPECT_EQ(got.visited_count(), ref.visited_count())
          << sem::to_string(kind) << " batch=" << batch;
    }
  }
}

TEST_F(BackendIdentity, WeightedDualStreamSsspMatchesSync) {
  // SSSP reads two interleaved byte streams per vertex (targets + weights)
  // through the staged enqueue path — the case the per-stream readahead
  // windows exist for.
  const csr32 g = add_weights(rmat_graph<vertex32>(rmat_a(8, 5)),
                              weight_scheme::log_uniform, 5);
  const std::string path = write_tmp(g, "sssp");
  auto ref_g = open(path, sem::io_backend_kind::sync, 8);
  const auto ref = async_sssp(ref_g, vertex32{0}, cfg());
  for (const auto kind : runnable()) {
    for (const std::uint32_t batch : {2u, 16u}) {
      auto sg = open(path, kind, batch);
      EXPECT_EQ(async_sssp(sg, vertex32{0}, cfg()).dist, ref.dist)
          << sem::to_string(kind) << " batch=" << batch;
    }
  }
}

TEST_F(BackendIdentity, CcMatchesSync) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(8, 9));
  const std::string path = write_tmp(g, "cc");
  auto ref_g = open(path, sem::io_backend_kind::sync, 8);
  const auto ref = async_cc(ref_g, cfg());
  for (const auto kind : runnable()) {
    auto sg = open(path, kind, 8);
    EXPECT_EQ(async_cc(sg, cfg()).component, ref.component)
        << sem::to_string(kind);
  }
}

TEST_F(BackendIdentity, TransientFaultsAreInvisibleOnEveryBackend) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "faulted");
  auto clean_g = open(path, sem::io_backend_kind::sync, 8);
  const auto ref = async_bfs(clean_g, vertex32{0}, cfg());
  for (const auto kind : runnable()) {
    sem::fault_config fc;
    fc.p_eio = 0.1;  // one transient EIO per ~10 merged ranges
    fc.fail_attempts = 1;
    fc.seed = 13;
    sem::fault_injector inj(fc);
    auto sg = open(path, kind, 8, &inj);
    const auto got = async_bfs(sg, vertex32{0}, cfg());
    EXPECT_EQ(got.level, ref.level) << sem::to_string(kind);
    EXPECT_EQ(got.visited_count(), ref.visited_count())
        << sem::to_string(kind);
    EXPECT_GT(inj.counters().errors, 0u) << sem::to_string(kind);
  }
}

TEST_F(BackendIdentity, TornBatchAbortsWithTheFailingByteRange) {
  // A permanently bad sector range under a merged batch: the split retries
  // exhaust the budget and the traversal must abort, carrying the bad
  // slice's own [offset, length) — not the merged batch's — so the operator
  // can map the abort to a disk region.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "torn");
  sem::fault_config fc;
  fc.bad_begin = 0;  // every adjacency read sits on the bad range
  fc.bad_end = std::filesystem::file_size(path);
  sem::fault_injector inj(fc);
  auto sg = open(path, sem::io_backend_kind::coalescing, 8, &inj);
  try {
    async_bfs(sg, vertex32{0}, cfg());
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    ASSERT_NE(e.cause(), nullptr);
    try {
      std::rethrow_exception(e.cause());
    } catch (const sem::io_error& io) {
      EXPECT_GT(io.bytes(), 0u);
      EXPECT_LT(io.offset(), fc.bad_end);
      // The abort message embeds the failing request geometry end-to-end.
      const std::string what = e.what();
      EXPECT_NE(what.find("offset " + std::to_string(io.offset())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("+" + std::to_string(io.bytes()) + ")"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_GE(sg.backend().counters().split_batches, 1u);
}

TEST_F(BackendIdentity, MoveRebindsTheBackendToTheMovedFile) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "moved");
  auto ref_g = open(path, sem::io_backend_kind::sync, 8);
  const auto ref = async_bfs(ref_g, vertex32{0}, cfg());
  auto a = open(path, sem::io_backend_kind::coalescing, 4);
  sem::sem_csr32 b(std::move(a));
  EXPECT_EQ(b.backend().kind(), sem::io_backend_kind::coalescing);
  EXPECT_EQ(async_bfs(b, vertex32{0}, cfg()).level, ref.level);
}

}  // namespace
}  // namespace asyncgt
