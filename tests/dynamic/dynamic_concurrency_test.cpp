// Concurrency battery for the delta overlay (wired into the tsan preset —
// tools/tsan_check.sh): one shared overlay takes delta batches from a
// writer thread while reader threads pin views and iterate / run full
// traversals over them. The contract under test: a view pinned at epoch e
// serves exactly epoch e's edge set no matter how many batches land after
// the pin — readers never block writers beyond the sharded patch-index
// lock, and never see a half-applied batch (each reader cross-checks its
// iterated edge count against the count its view pinned at creation).
#include "graph/delta_overlay.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"

namespace asyncgt {
namespace {

traversal_options small_cfg() {
  traversal_options o;
  o.queue.num_threads = 2;
  return o;
}

TEST(DynamicConcurrency, ConcurrentApplyAndPinnedIterationAreConsistent) {
  auto base = rmat_graph<vertex32>(rmat_a(7, 5));
  base.ensure_reverse();
  delta_overlay<csr_graph<vertex32>> ov(base);
  const auto n = static_cast<vertex32>(base.num_vertices());

  const auto stream = generate_update_stream(
      base, {.seed = 7, .num_batches = 24, .batch_size = 32,
             .delete_fraction = 0.4});

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> views_checked{0};

  std::thread writer([&] {
    for (const auto& b : stream) ov.apply(b);
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      do {
        auto view = ov.snapshot();
        // Full forward sweep: the iterated edge count must equal the count
        // pinned at view creation — a torn batch or a patch from a later
        // epoch would break the equality.
        std::uint64_t count = 0;
        std::uint64_t degree_sum = 0;
        for (vertex32 v = 0; v < n; ++v) {
          degree_sum += view.out_degree(v);
          view.for_each_out_edge(v, [&](vertex32, weight_t) { ++count; });
        }
        EXPECT_EQ(count, view.num_edges());
        EXPECT_EQ(degree_sum, view.num_edges());
        // Reverse spot-checks on random vertices (sharded in-map path).
        for (int i = 0; i < 32; ++i) {
          const auto v = static_cast<vertex32>(rng() % n);
          std::uint64_t in = 0;
          view.for_each_in_edge(v, [&](vertex32, weight_t) { ++in; });
          EXPECT_EQ(in, view.in_degree(v));
        }
        views_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(views_checked.load(), 0u);

  // Sequential replay over a fresh overlay must agree with the final state
  // reached under concurrency.
  delta_overlay<csr_graph<vertex32>> replay(base);
  for (const auto& b : stream) replay.apply(b);
  EXPECT_EQ(replay.epoch(), ov.epoch());
  EXPECT_EQ(replay.num_edges(), ov.num_edges());
  auto a = ov.snapshot();
  auto b = replay.snapshot();
  for (vertex32 v = 0; v < n; ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
  }
}

TEST(DynamicConcurrency, InFlightQueriesAcrossConcurrentDeltas) {
  auto base = rmat_graph_undirected<vertex32>(rmat_a(7, 9));
  base.ensure_reverse();
  delta_overlay<csr_graph<vertex32>> ov(base);

  const auto stream = generate_update_stream(
      base, {.seed = 9, .num_batches = 12, .batch_size = 24,
             .delete_fraction = 0.3, .symmetric = true});

  engine eng;
  // Interleave: submit a full traversal over the current pin, apply the
  // next batch while it runs, then repair the delivered labels and check
  // them against a recompute over the new pin. The async jobs run over
  // views whose overlay is mutating underneath — the jobs must neither
  // race (tsan) nor observe the new epochs (labels match their own pin).
  auto prior = eng.submit_cc(ov.snapshot(), small_cfg()).get();
  for (const auto& batch : stream) {
    auto old_view = ov.snapshot();
    auto in_flight = eng.submit_cc(old_view, small_cfg());
    ov.apply(batch);  // lands while in_flight runs over the old pin
    auto old_result = in_flight.get();
    EXPECT_EQ(old_result.component.size(), base.num_vertices());

    auto new_view = ov.snapshot();
    incremental_extra ex;
    auto repaired = eng.submit_incremental_cc(new_view, batch,
                                              std::move(prior), &ex,
                                              small_cfg())
                        .get();
    auto full = eng.submit_cc(new_view, small_cfg()).get();
    ASSERT_EQ(repaired.component, full.component);
    EXPECT_LE(ex.reseeded_vertices, ex.affected);
    prior = std::move(repaired);
  }
}

}  // namespace
}  // namespace asyncgt
