// sem_config — the one-declaration SEM construction surface
// (docs/hot_blocks.md). Covered here:
//
//   * the default open(): a bare graph, no cache/heat/pressure/advisor/
//     prefetcher, and wire_queue leaving the queue config untouched;
//   * seed-compatible cache sizing (fraction of file_bytes/block + 1, floor
//     of one block) and the explicit with_cache_blocks override;
//   * which configs build the pressure tracker (hot ordering OR the
//     pressure policy) and the advisor (hot ordering only);
//   * wire_queue installing queue_order::hot + the bundle's advisor;
//   * the prefetch lane gating: batching backend AND a cache, never sync;
//   * with_reverse materializing a separate reverse cache/heat pair;
//   * from_flags, the one SEM flag parser, checked against the bundle it
//     opens (backend, retries, hot machinery, cache size, reverse view) and
//     its validation of --cache-policy / --hot-threshold;
//   * unknown policy / backend names throwing at open().
#include "sem/sem_config.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "service/traversal_options.hpp"
#include "util/options.hpp"

namespace asyncgt::sem {
namespace {

class SemConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_semcfg_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    g_ = rmat_graph<vertex32>(rmat_a(8));
    path_ = (dir_ / "g.agt").string();
    write_graph(path_, g_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  csr32 g_;
  std::string path_;
  std::filesystem::path dir_;
};

TEST_F(SemConfigTest, DefaultOpenIsBareGraph) {
  const auto bundle = sem_config(path_).open<vertex32>();
  ASSERT_NE(bundle.graph, nullptr);
  EXPECT_EQ(bundle.graph->num_vertices(), g_.num_vertices());
  EXPECT_EQ(bundle.cache, nullptr);
  EXPECT_EQ(bundle.heat, nullptr);
  EXPECT_EQ(bundle.pressure, nullptr);
  EXPECT_EQ(bundle.advisor, nullptr);
  EXPECT_EQ(bundle.prefetch, nullptr);
  EXPECT_EQ(bundle.reverse_cache, nullptr);

  visitor_queue_config q;
  const queue_order before = q.order;
  bundle.wire_queue(q);
  EXPECT_EQ(q.order, before);
  EXPECT_EQ(q.advisor, nullptr);
}

TEST_F(SemConfigTest, CacheFractionSizesSeedCompatibly) {
  ssd_model dev{ssd_params{}};
  const std::uint64_t bs = dev.params().block_bytes;
  const std::uint64_t file_blocks = std::filesystem::file_size(path_) / bs + 1;

  const auto half = sem_config(path_)
                        .with_device(&dev)
                        .with_cache_fraction(0.5)
                        .open<vertex32>();
  ASSERT_NE(half.cache, nullptr);
  EXPECT_EQ(half.cache->capacity(),
            static_cast<std::uint64_t>(0.5 * static_cast<double>(file_blocks)));
  EXPECT_STREQ(half.cache->policy_name(), "lru");

  // A tiny positive fraction floors to one block, never zero.
  const auto tiny = sem_config(path_)
                        .with_device(&dev)
                        .with_cache_fraction(1e-9)
                        .open<vertex32>();
  ASSERT_NE(tiny.cache, nullptr);
  EXPECT_EQ(tiny.cache->capacity(), 1u);

  // An explicit block count overrides the fraction.
  const auto fixed = sem_config(path_)
                         .with_device(&dev)
                         .with_cache_fraction(0.5)
                         .with_cache_blocks(3)
                         .open<vertex32>();
  ASSERT_NE(fixed.cache, nullptr);
  EXPECT_EQ(fixed.cache->capacity(), 3u);
}

TEST_F(SemConfigTest, PressureBuiltForHotOrderingOrPressurePolicy) {
  // The pressure policy needs the tracker even without hot ordering.
  const auto policy_only = sem_config(path_)
                               .with_cache_fraction(0.5)
                               .with_cache_policy("pressure")
                               .open<vertex32>();
  ASSERT_NE(policy_only.pressure, nullptr);
  ASSERT_NE(policy_only.cache, nullptr);
  EXPECT_STREQ(policy_only.cache->policy_name(), "pressure");
  EXPECT_EQ(policy_only.advisor, nullptr);  // no hot ordering requested

  // Hot ordering needs the tracker even with the plain LRU policy, and is
  // the only thing that builds an advisor.
  const auto hot = sem_config(path_).with_hot_ordering(true, 7).open<vertex32>();
  ASSERT_NE(hot.pressure, nullptr);
  ASSERT_NE(hot.advisor, nullptr);
  EXPECT_EQ(hot.advisor->hot_threshold(), 7u);
}

TEST_F(SemConfigTest, WireQueueInstallsHotOrderAndAdvisor) {
  const auto bundle = sem_config(path_).with_hot_ordering().open<vertex32>();
  traversal_options o;
  bundle.wire_queue(o.queue);
  EXPECT_EQ(o.queue.order, queue_order::hot);
  EXPECT_EQ(o.queue.advisor, bundle.advisor.get());

  // The wired config drives a correct traversal end to end.
  o.queue.num_threads = 4;
  const auto r = async_bfs(*bundle.graph, vertex32{0}, o);
  EXPECT_EQ(r.level, serial_bfs(g_, vertex32{0}).level);
  EXPECT_EQ(bundle.pressure->total_increments(),
            bundle.pressure->total_decrements());
  EXPECT_EQ(bundle.pressure->total_pending(), 0u);
}

TEST_F(SemConfigTest, PrefetchLaneRequiresBatchingBackendAndCache) {
  // Sync backend: the readahead request is ignored (no async lane).
  const auto sync = sem_config(path_)
                        .with_cache_fraction(0.5)
                        .with_prefetch_hot(true)
                        .open<vertex32>();
  EXPECT_EQ(sync.prefetch, nullptr);

  // No cache: nowhere to install readahead results.
  const auto nocache = sem_config(path_)
                           .with_io_backend("coalescing")
                           .with_prefetch_hot(true)
                           .open<vertex32>();
  EXPECT_EQ(nocache.prefetch, nullptr);

  // Batching backend + cache: the lane exists.
  const auto lane = sem_config(path_)
                        .with_cache_fraction(0.5)
                        .with_io_backend("coalescing")
                        .with_prefetch_hot(true)
                        .open<vertex32>();
  EXPECT_NE(lane.prefetch, nullptr);
}

TEST_F(SemConfigTest, ReverseViewGetsItsOwnCacheAndHeat) {
  const std::string p = (dir_ / "rev.agt").string();
  csr32 g = rmat_graph<vertex32>(rmat_a(7));
  write_graph_with_reverse(p, g);
  const auto bundle = sem_config(p)
                          .with_cache_fraction(0.5)
                          .with_heat()
                          .with_reverse()
                          .open<vertex32>();
  ASSERT_TRUE(bundle.graph->has_reverse());
  EXPECT_NE(bundle.reverse_cache, nullptr);
  EXPECT_NE(bundle.reverse_heat, nullptr);
  EXPECT_NE(bundle.reverse_cache.get(), bundle.cache.get());
  // The reverse byte space stays plain LRU regardless of the main policy.
  EXPECT_STREQ(bundle.reverse_cache->policy_name(), "lru");
}

/// Parses argv the way agt_tool and the benches do.
options flags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return options(static_cast<int>(args.size()), args.data());
}

TEST_F(SemConfigTest, FromFlagsOpensWhatTheFlagsSay) {
  const std::uint64_t file_blocks =
      std::filesystem::file_size(path_) / default_block_bytes + 1;
  const auto bundle =
      sem_config::from_flags(
          flags({"--io-backend=coalescing", "--io-batch=16",
                 "--io-retries=7", "--io-backoff-us=10",
                 "--cache-policy=pressure", "--cache-fraction=0.5",
                 "--prefetch-hot", "--hot-threshold=2", "--ordering=hot"}),
          path_)
          .open<vertex32>();
  EXPECT_EQ(bundle.graph->backend_config().kind, io_backend_kind::coalescing);
  EXPECT_EQ(bundle.graph->backend_config().batch, 16u);
  EXPECT_EQ(bundle.graph->retry_policy().max_retries, 7u);
  EXPECT_EQ(bundle.graph->retry_policy().backoff_initial_us, 10u);
  ASSERT_NE(bundle.cache, nullptr);
  EXPECT_EQ(bundle.cache->capacity(),
            static_cast<std::uint64_t>(0.5 * static_cast<double>(file_blocks)));
  EXPECT_STREQ(bundle.cache->policy_name(), "pressure");
  EXPECT_NE(bundle.pressure, nullptr);
  ASSERT_NE(bundle.advisor, nullptr);
  EXPECT_EQ(bundle.advisor->hot_threshold(), 2u);
  EXPECT_NE(bundle.prefetch, nullptr);
  EXPECT_FALSE(bundle.graph->has_reverse());
}

TEST_F(SemConfigTest, FromFlagsDefaultsOpenABareSyncGraph) {
  const std::uint64_t file_blocks =
      std::filesystem::file_size(path_) / default_block_bytes + 1;
  // Without --cache-fraction the caller's default sizes the cache.
  const auto bundle =
      sem_config::from_flags(flags({}), path_, 0.25).open<vertex32>();
  EXPECT_EQ(bundle.graph->backend_config().kind, io_backend_kind::sync);
  EXPECT_EQ(bundle.graph->backend_config().batch, 8u);
  EXPECT_EQ(bundle.graph->retry_policy().max_retries, 4u);
  EXPECT_EQ(bundle.graph->retry_policy().backoff_initial_us, 50u);
  ASSERT_NE(bundle.cache, nullptr);
  EXPECT_EQ(bundle.cache->capacity(), static_cast<std::uint64_t>(
                                          0.25 * static_cast<double>(
                                                     file_blocks)));
  EXPECT_STREQ(bundle.cache->policy_name(), "lru");
  EXPECT_EQ(bundle.pressure, nullptr);
  EXPECT_EQ(bundle.advisor, nullptr);
  EXPECT_EQ(bundle.prefetch, nullptr);

  // The default default is no cache at all.
  EXPECT_EQ(sem_config::from_flags(flags({}), path_).open<vertex32>().cache,
            nullptr);
  // --ordering other than hot builds no hot machinery.
  EXPECT_EQ(sem_config::from_flags(flags({"--ordering=fifo"}), path_)
                .open<vertex32>()
                .pressure,
            nullptr);
}

TEST_F(SemConfigTest, FromFlagsHybridOpensTheReverseView) {
  const std::string p = (dir_ / "rev.agt").string();
  write_graph_with_reverse(p, rmat_graph<vertex32>(rmat_a(7)));
  const auto bundle =
      sem_config::from_flags(flags({"--hybrid"}), p).open<vertex32>();
  EXPECT_TRUE(bundle.graph->has_reverse());
}

TEST_F(SemConfigTest, FromFlagsRejectsBadValues) {
  EXPECT_THROW(sem_config::from_flags(flags({"--cache-policy=mru"}), path_),
               std::invalid_argument);
  EXPECT_THROW(sem_config::from_flags(flags({"--hot-threshold=0"}), path_),
               std::invalid_argument);
}

TEST_F(SemConfigTest, UnknownNamesThrowAtOpen) {
  EXPECT_THROW(sem_config(path_)
                   .with_cache_fraction(0.5)
                   .with_cache_policy("mru")
                   .open<vertex32>(),
               std::invalid_argument);
  EXPECT_THROW(sem_config(path_).with_io_backend("floppy").open<vertex32>(),
               std::invalid_argument);
  EXPECT_THROW(sem_config((dir_ / "missing.agt").string()).open<vertex32>(),
               std::filesystem::filesystem_error);
}

}  // namespace
}  // namespace asyncgt::sem
