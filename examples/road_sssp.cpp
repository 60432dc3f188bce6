// Example: shortest paths on a road-network-like grid.
//
// Scale-free graphs (the paper's focus) have tiny diameters; road networks
// are the opposite regime — large diameter, low degree, limited path
// parallelism. This example runs the asynchronous SSSP on a weighted grid,
// compares it against serial Dijkstra, extracts an actual route via the
// parent array, and prints the traversal statistics that show how graph
// structure limits available parallelism (paper §III-B1).
//
//   ./road_sssp [--width=256] [--height=256] [--threads=16]
#include <cstdio>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_sssp.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);
  const auto width = static_cast<std::uint64_t>(opt.get_int("width", 256));
  const auto height = static_cast<std::uint64_t>(opt.get_int("height", 256));

  // Grid with log-uniform weights: most roads short, some long highways.
  const csr32 g = add_weights(grid_graph<vertex32>(width, height),
                              weight_scheme::log_uniform, 5);
  std::printf("road grid: %llux%llu (%llu intersections, %llu road "
              "segments)\n",
              static_cast<unsigned long long>(width),
              static_cast<unsigned long long>(height),
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges() / 2));

  traversal_options cfg;
  cfg.queue.num_threads = static_cast<std::size_t>(opt.get_int("threads", 16));
  const vertex32 src = 0;  // top-left corner
  const auto dst = static_cast<vertex32>(width * height - 1);  // bottom-right

  const auto r = async_sssp(g, src, cfg);
  std::printf("async SSSP: %.3fs, %llu label corrections, max queue %llu\n",
              r.stats.elapsed_seconds,
              static_cast<unsigned long long>(r.updates),
              static_cast<unsigned long long>(r.stats.max_queue_length));

  const auto ref = dijkstra_sssp(g, src);
  std::printf("serial Dijkstra: agrees=%s\n",
              r.dist == ref.dist ? "yes" : "NO");

  // Reconstruct the route corner-to-corner from the parent array.
  std::vector<vertex32> route;
  for (vertex32 v = dst; v != src; v = r.parent[v]) {
    route.push_back(v);
    if (route.size() > g.num_vertices()) {
      std::printf("parent array is cyclic!\n");
      return 1;
    }
  }
  route.push_back(src);
  std::printf("route %u -> %u: cost %llu, %zu hops\n", src, dst,
              static_cast<unsigned long long>(r.dist[dst]), route.size() - 1);
  // Print the first few waypoints as (x, y) coordinates.
  std::printf("waypoints: ");
  const std::size_t show = std::min<std::size_t>(route.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    const vertex32 v = route[route.size() - 1 - i];
    std::printf("(%llu,%llu) ", static_cast<unsigned long long>(v % width),
                static_cast<unsigned long long>(v / width));
  }
  std::printf("...\n");

  const auto val = validate_distances(g, src, r.dist);
  std::printf("validation: %s\n", val.ok ? "ok" : val.error.c_str());
  return (r.dist == ref.dist && val.ok) ? 0 : 1;
}
