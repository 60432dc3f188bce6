// Satellite of the batched-delivery refactor: the mailbox flush batch is a
// pure performance knob. flush_batch=1 reproduces the seed's per-push
// delivery; every algorithm result must be bit-identical to the batched
// default (the label-correcting traversals converge to the same fixed point
// regardless of delivery order — paper §III-B's correctness argument does
// not depend on when parcels ship, only that they all arrive).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"

namespace asyncgt {
namespace {

traversal_options cfg_with(std::size_t threads, std::size_t batch) {
  traversal_options cfg;
  cfg.queue.num_threads = threads;
  cfg.queue.flush_batch = batch;
  return cfg;
}

TEST(BatchAblation, BfsLevelsIdenticalAcrossFlushBatch) {
  for (const bool use_b : {false, true}) {
    const rmat_params p = use_b ? rmat_b(10) : rmat_a(10);
    const csr32 g = rmat_graph<vertex32>(p);
    const auto ref = serial_bfs(g, vertex32{0});
    for (const std::size_t batch : {1u, 64u}) {
      const auto r = async_bfs(g, vertex32{0}, cfg_with(8, batch));
      ASSERT_EQ(r.level, ref.level) << "batch=" << batch << " rmat_b=" << use_b;
      // Parents may differ between runs but must always form a valid tight
      // tree against the (identical) levels.
      EXPECT_TRUE(validate_parents(g, vertex32{0}, r.level, r.parent, true).ok)
          << "batch=" << batch;
    }
  }
}

TEST(BatchAblation, CcLabelsIdenticalAcrossFlushBatch) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(10));
  const auto base = async_cc(g, cfg_with(8, 1));
  const auto batched = async_cc(g, cfg_with(8, 64));
  // CC labels every vertex with the minimum vertex id in its component —
  // a unique fixed point, so the full label vectors must match exactly.
  EXPECT_EQ(base.component, batched.component);
  EXPECT_EQ(base.num_components(), batched.num_components());
}

TEST(BatchAblation, SsspDistancesIdenticalAcrossFlushBatch) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(10)), weight_scheme::uniform, 7);
  const auto base = async_sssp(g, vertex32{0}, cfg_with(8, 1));
  const auto batched = async_sssp(g, vertex32{0}, cfg_with(8, 64));
  EXPECT_EQ(base.dist, batched.dist);
  EXPECT_TRUE(validate_distances(g, vertex32{0}, batched.dist, false).ok);
}

TEST(BatchAblation, OversubscribedBatchedRunStaysCorrect) {
  // The paper's oversubscription regime (many more threads than cores) with
  // batching on: frequent idle/flush cycles must not lose or duplicate work.
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto ref = serial_bfs(g, vertex32{0});
  const auto r = async_bfs(g, vertex32{0}, cfg_with(64, 64));
  EXPECT_EQ(r.level, ref.level);
}

}  // namespace
}  // namespace asyncgt
