// traversal_options is the one per-job configuration surface: callers set
// the queue knobs through its `queue` member, and from_flags is the single
// source of truth for the per-job CLI knobs agt_tool and the bench harnesses
// share (threads / flush-batch / ordering / hybrid / deadline / priority,
// with SEM-mode defaults). The SEM storage flags are sem_config's
// (sem_config_test).
#include <gtest/gtest.h>

#include <cstddef>

#include "service/traversal_options.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/options.hpp"

namespace asyncgt {
namespace {

TEST(TraversalOptions, BuildersChain) {
  telemetry::metrics_registry reg;
  const traversal_options o =
      traversal_options{}.with_threads(9).with_flush_batch(2).with_metrics(
          &reg);
  EXPECT_EQ(o.queue.num_threads, 9u);
  EXPECT_EQ(o.queue.flush_batch, 2u);
  EXPECT_EQ(o.metrics, &reg);
  // Valid once the engine pins its pool, as it does for every job.
  service::worker_pool pool(1);
  visitor_queue_config pinned = o.queue;
  pinned.pool = &pool;
  EXPECT_NO_THROW(pinned.validate());
}

TEST(TraversalOptions, FromFlagsImDefaults) {
  const char* argv[] = {"prog"};
  const options opt(1, argv);
  const traversal_options o = traversal_options::from_flags(opt);
  EXPECT_EQ(o.queue.num_threads, 16u);
  EXPECT_EQ(o.queue.flush_batch, 64u);
  EXPECT_FALSE(o.queue.secondary_vertex_sort);
  EXPECT_EQ(o.queue.order, queue_order::priority);
  EXPECT_FALSE(o.hybrid);
  EXPECT_EQ(o.deadline_ms, 0u);
}

TEST(TraversalOptions, FromFlagsSemDefaults) {
  // SEM mode: per-push delivery (batching delay fragments the semi-sorted
  // visit order the block cache depends on) and the secondary vertex sort.
  const char* argv[] = {"prog"};
  const options opt(1, argv);
  const traversal_options o = traversal_options::from_flags(opt, true);
  EXPECT_EQ(o.queue.flush_batch, 1u);
  EXPECT_TRUE(o.queue.secondary_vertex_sort);
  EXPECT_EQ(o.queue.num_threads, 16u);
}

TEST(TraversalOptions, FromFlagsParsesEveryKnob) {
  // The SEM storage flags ride along on the same command line; this parser
  // leaves them to sem_config::from_flags.
  const char* argv[] = {"prog",           "--threads=7",
                        "--flush-batch=3", "--ordering=fifo",
                        "--hybrid",       "--deadline-ms=250",
                        "--priority=high", "--io-retries=9",
                        "--cache-policy=pressure"};
  const options opt(9, argv);
  const traversal_options o = traversal_options::from_flags(opt);
  EXPECT_EQ(o.queue.num_threads, 7u);
  EXPECT_EQ(o.queue.flush_batch, 3u);
  EXPECT_EQ(o.queue.order, queue_order::fifo);
  EXPECT_TRUE(o.hybrid);
  EXPECT_EQ(o.deadline_ms, 250u);
  EXPECT_EQ(o.priority, 1);

  // Explicit flags beat the SEM-mode flush-batch default too.
  const traversal_options sem = traversal_options::from_flags(opt, true);
  EXPECT_EQ(sem.queue.flush_batch, 3u);
  EXPECT_TRUE(sem.queue.secondary_vertex_sort);
}

}  // namespace
}  // namespace asyncgt
