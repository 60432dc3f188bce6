// Example: connected-component analysis of a synthetic web crawl.
//
// Mirrors the paper's real-graph CC experiments (ClueWeb09, sk-2005, ...):
// generate a web-like graph with host/community structure, find its
// connected components asynchronously, and report the component-size
// distribution — the giant component plus the long tail of isolated hosts.
//
//   ./webgraph_components [--hosts=500] [--threads=16]
//                         [--isolated-fraction=0.15]
#include <algorithm>
#include <cstdio>
#include <map>

#include "asyncgt.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);

  webgen_params params;
  params.num_hosts = static_cast<std::uint64_t>(opt.get_int("hosts", 500));
  params.isolated_host_fraction = opt.get_double("isolated-fraction", 0.15);
  params.seed = static_cast<std::uint64_t>(opt.get_int("seed", 7));

  std::printf("generating web graph: %llu hosts...\n",
              static_cast<unsigned long long>(params.num_hosts));
  const csr32 g = webgen_graph<vertex32>(params);
  std::printf("graph: %llu pages, %llu links (symmetric CSR)\n",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()));

  traversal_options cfg;
  cfg.queue.num_threads = static_cast<std::size_t>(opt.get_int("threads", 16));
  const auto cc = async_cc(g, cfg);
  std::printf("connected components: %llu (%.3fs, %llu label corrections)\n",
              static_cast<unsigned long long>(cc.num_components()),
              cc.stats.elapsed_seconds,
              static_cast<unsigned long long>(cc.updates));

  // Component size distribution (log2 histogram, like crawl reports).
  std::map<vertex32, std::uint64_t> sizes;
  for (const vertex32 c : cc.component) ++sizes[c];
  log2_histogram hist;
  std::uint64_t largest = 0;
  for (const auto& [root, size] : sizes) {
    hist.add(size);
    largest = std::max(largest, size);
  }
  std::printf("\ncomponent size distribution (size range: count):\n%s",
              hist.to_string().c_str());
  std::printf("\ngiant component: %llu pages (%.1f%% of graph)\n",
              static_cast<unsigned long long>(largest),
              100.0 * static_cast<double>(largest) /
                  static_cast<double>(g.num_vertices()));

  const auto v = validate_components(g, cc.component);
  if (!v.ok) {
    std::printf("VALIDATION FAILED: %s\n", v.error.c_str());
    return 1;
  }
  std::printf("validation: ok\n");
  return 0;
}
