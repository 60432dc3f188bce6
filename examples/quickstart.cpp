// Quickstart: generate a small scale-free graph, run the three asynchronous
// traversals, and print a summary.
//
//   ./quickstart [--scale=14] [--threads=8]
#include <cstdio>

#include "asyncgt.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 14));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 8));

  // 1. Generate an RMAT-A graph (the paper's moderately-skewed synthetic
  //    workload): 2^scale vertices, average out-degree 16.
  const rmat_params params = rmat_a(scale);
  const csr32 directed = rmat_graph<vertex32>(params);
  const csr32 undirected = rmat_graph_undirected<vertex32>(params);
  std::printf("graph: %llu vertices, %llu directed edges\n",
              static_cast<unsigned long long>(directed.num_vertices()),
              static_cast<unsigned long long>(directed.num_edges()));

  traversal_options cfg;
  cfg.queue.num_threads = threads;

  // 2. Asynchronous BFS from vertex 0.
  const auto bfs = async_bfs(directed, vertex32{0}, cfg);
  std::printf("BFS : reached %llu vertices, %llu levels, %.3fs\n",
              static_cast<unsigned long long>(bfs.visited_count()),
              static_cast<unsigned long long>(bfs.max_level()),
              bfs.stats.elapsed_seconds);

  // 3. Asynchronous SSSP over uniform random weights.
  const csr32 weighted = add_weights(directed, weight_scheme::uniform, 1);
  const auto sssp = async_sssp(weighted, vertex32{0}, cfg);
  std::printf("SSSP: reached %llu vertices, %llu relaxations, %.3fs\n",
              static_cast<unsigned long long>(sssp.visited_count()),
              static_cast<unsigned long long>(sssp.updates),
              sssp.stats.elapsed_seconds);

  // 4. Asynchronous Connected Components on the undirected version.
  const auto cc = async_cc(undirected, cfg);
  std::printf("CC  : %llu components, largest %llu vertices, %.3fs\n",
              static_cast<unsigned long long>(cc.num_components()),
              static_cast<unsigned long long>(cc.largest_component_size()),
              cc.stats.elapsed_seconds);

  // 5. Everything above is independently checkable.
  const auto v1 = validate_distances(directed, vertex32{0}, bfs.level, true);
  const auto v2 = validate_distances(weighted, vertex32{0}, sssp.dist);
  const auto v3 = validate_components(undirected, cc.component);
  std::printf("validation: bfs=%s sssp=%s cc=%s\n", v1.ok ? "ok" : "FAIL",
              v2.ok ? "ok" : "FAIL", v3.ok ? "ok" : "FAIL");
  return (v1.ok && v2.ok && v3.ok) ? 0 : 1;
}
