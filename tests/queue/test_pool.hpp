// Support for the queue-layer tests, which drive a visitor_queue directly
// instead of through an engine: every run executes as a gang on a worker
// pool (visitor_queue_config::pool is required), so they borrow this one,
// and the blocking helpers wait for the asynchronous runs.
#pragma once

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "queue/queue_config.hpp"
#include "queue/queue_stats.hpp"
#include "service/worker_pool.hpp"

namespace asyncgt {

inline service::worker_pool& queue_test_pool() {
  static service::worker_pool pool;
  return pool;
}

/// A default config of `threads` lanes pinned to the test pool.
inline visitor_queue_config pooled_config(std::size_t threads) {
  visitor_queue_config cfg;
  cfg.num_threads = threads;
  cfg.pool = &queue_test_pool();
  return cfg;
}

/// Starts a run through `start(done)` and blocks for its stats, rethrowing
/// the run's traversal_aborted.
template <typename Start>
queue_run_stats wait_for_run(Start start) {
  // Shared: the pool thread may still be inside set_value when the waiter
  // wakes and returns.
  auto result = std::make_shared<std::promise<queue_run_stats>>();
  auto ready = result->get_future();
  start([result](queue_run_stats stats, std::exception_ptr error) {
    if (error != nullptr) {
      result->set_exception(std::move(error));
    } else {
      result->set_value(std::move(stats));
    }
  });
  return ready.get();
}

template <typename Queue, typename State>
queue_run_stats run_blocking(Queue& q, State& state) {
  return wait_for_run([&](auto done) { q.run_async(state, std::move(done)); });
}

template <typename Queue, typename State, typename MakeVisitor>
queue_run_stats run_seeded_blocking(Queue& q, State& state, std::uint64_t n,
                                    MakeVisitor make) {
  return wait_for_run([&](auto done) {
    q.run_seeded_async(state, n, std::move(make), std::move(done));
  });
}

}  // namespace asyncgt
