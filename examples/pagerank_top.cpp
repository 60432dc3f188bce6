// Example: asynchronous PageRank + k-core on a synthetic web graph.
//
// Shows the two extension algorithms built on the same visitor-queue
// machinery as the paper's traversals: rank the pages of a generated web
// crawl, cross-check against synchronous power iteration, and report the
// top pages with their coreness (hub pages should be both high-rank and
// high-core).
//
//   ./pagerank_top [--hosts=300] [--threads=16] [--top=10] [--alpha=0.85]
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/power_iteration.hpp"
#include "baselines/serial_kcore.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);

  webgen_params params;
  params.num_hosts = static_cast<std::uint64_t>(opt.get_int("hosts", 150));
  params.seed = static_cast<std::uint64_t>(opt.get_int("seed", 9));
  const csr32 g = webgen_graph<vertex32>(params);
  std::printf("web graph: %llu pages, %llu links\n",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()));

  traversal_options cfg;
  cfg.queue.num_threads = static_cast<std::size_t>(opt.get_int("threads", 16));

  pagerank_options pr_opt;
  pr_opt.alpha = opt.get_double("alpha", 0.85);
  pr_opt.tolerance = opt.get_double("tolerance", 1e-6);
  const auto pr = async_pagerank(g, pr_opt, cfg);
  std::printf("async PageRank: %.3fs, %llu flushes, total rank %.6f\n",
              pr.stats.elapsed_seconds,
              static_cast<unsigned long long>(pr.flushes), pr.total_rank());

  // Cross-check against the synchronous baseline.
  const auto ref = power_iteration_pagerank(g, pr_opt.alpha, 1e-12);
  double l1 = 0;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    l1 += std::abs(pr.rank[v] - ref.rank[v]);
  }
  std::printf("power iteration: %llu iterations, L1 difference %.2e\n",
              static_cast<unsigned long long>(ref.iterations), l1);

  const auto kc = async_kcore(g, cfg);
  std::printf("async k-core: max coreness %u, %.3fs\n", kc.max_core(),
              kc.stats.elapsed_seconds);

  // Top pages by rank.
  std::vector<vertex32> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  const auto top = static_cast<std::size_t>(opt.get_int("top", 10));
  std::partial_sort(order.begin(),
                    order.begin() + std::min(top, order.size()), order.end(),
                    [&](vertex32 a, vertex32 b) {
                      return pr.rank[a] > pr.rank[b];
                    });
  text_table table;
  table.header({"page", "rank", "degree", "coreness"});
  for (std::size_t i = 0; i < std::min(top, order.size()); ++i) {
    const vertex32 v = order[i];
    table.row({std::to_string(v), std::to_string(pr.rank[v]),
               fmt_count(g.out_degree(v)), std::to_string(kc.core[v])});
  }
  std::printf("\ntop pages by PageRank:\n%s", table.render().c_str());

  const double bound = pr_opt.tolerance *
                        static_cast<double>(g.num_vertices()) /
                        (1.0 - pr_opt.alpha);
  return l1 < bound ? 0 : 1;
}
