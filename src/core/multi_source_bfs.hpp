// Multi-source asynchronous BFS: distance to the *nearest* of a set of
// sources — the landmark/seed-set primitive used for distance sketches,
// closeness approximations, and the double-sweep diameter estimate in
// graph_metrics.hpp.
//
// Implementation: exactly the paper's BFS visitor, seeded from every source
// at level 0; label correction resolves overlaps so each vertex ends with
// min over sources of the hop distance, and parent links form a forest
// rooted at the sources. The seeds are pushed externally (one termination
// reservation each) before run(); everything after that flows through the
// engine's batched per-worker delivery.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/async_bfs.hpp"

namespace asyncgt {

/// Session API: submits a multi-source BFS job to this engine; the seeds
/// are pushed on the submitting thread (prepare phase), everything after
/// flows through the job's pooled workers.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_multi_source_bfs(
    const Graph& g, const std::vector<typename Graph::vertex_id>& sources,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (sources.empty()) {
    throw std::invalid_argument("multi_source_bfs: need at least one source");
  }
  for (const V s : sources) {
    if (s >= g.num_vertices()) {
      throw std::out_of_range("multi_source_bfs: source out of range");
    }
  }
  return submit_traversal<bfs_visitor<V>>(
      opts, bfs_state<Graph>(g, resolve_threads(opts)),
      // Safe by-reference capture: prepare runs synchronously inside submit.
      [&sources](auto& q, bfs_state<Graph>&) {
        for (const V s : sources) q.push(bfs_visitor<V>{s, s, 0});
      },
      [](bfs_state<Graph>& s, queue_run_stats stats) {
        return take_bfs_result(s, std::move(stats), "msbfs");
      },
      "msbfs");
}

/// One-shot compatibility wrapper over the process-local engine.
template <typename Graph>
bfs_result<typename Graph::vertex_id> async_multi_source_bfs(
    const Graph& g, const std::vector<typename Graph::vertex_id>& sources,
    traversal_options opts = {}) {
  return engine::process_default()
      .submit_multi_source_bfs(g, sources, std::move(opts))
      .get();
}

}  // namespace asyncgt
