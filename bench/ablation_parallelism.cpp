// Ablation: graph-structure-dependent parallelism (paper §III-B1, Fig. 2).
//
// "If the graph has multiple shortest-path pathways that can be
// independently traversed, the algorithm will have the opportunity to
// proceed in parallel. However, without the independent pathways, the
// algorithm will traverse the graph in a serialized manner." Figure 2 shows
// the adversarial case: a directed chain.
//
// The available parallelism is visible machine-independently in the queue
// statistics: on a chain at most one visitor is ever in flight (max queue
// length ~1, one wakeup handoff per vertex), while on an RMAT graph the
// queues hold large frontiers. This harness traverses both and reports the
// "parallel slack" the structure exposes.
//
//   ./ablation_parallelism [--scale=13] [--chain=8192] [--threads=16]
#include <string>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 13));
  const auto chain_n = static_cast<std::uint64_t>(opt.get_int("chain", 8192));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 16));

  banner("Graph-structure parallelism ablation (chain vs scale-free)",
         "paper Figure 2 / section III-B1");

  bench_report rep(opt, "ablation_parallelism");

  struct workload {
    std::string name;
    csr32 graph;
    vertex32 start;
  };
  const workload workloads[] = {
      {"chain (Fig. 2 worst case)", chain_graph<vertex32>(chain_n), 0},
      {"grid " + std::to_string(1u << (scale / 2)) + "^2",
       grid_graph<vertex32>(1u << (scale / 2), 1u << (scale / 2)), 0},
      {rmat_label("a", scale), rmat_graph<vertex32>(rmat_a(scale)), 0},
      {rmat_label("b", scale), rmat_graph<vertex32>(rmat_b(scale)), 0},
  };

  text_table table;
  table.header({"graph", "time (s)", "levels", "max queue len",
                "wakeups/vertex", "avail. parallelism"});

  std::uint64_t chain_slack = 0, rmat_slack = 0;
  bool ok = true;
  for (const auto& w : workloads) {
    traversal_options cfg;
    cfg.queue.num_threads = threads;
    bfs_result<vertex32> r;
    const double secs =
        time_seconds([&] { r = async_bfs(w.graph, w.start, cfg); });
    // Available parallelism ~ reached vertices / levels (mean frontier).
    const double levels = static_cast<double>(std::max<dist_t>(
        r.max_level(), 1));
    const double slack = static_cast<double>(r.visited_count()) / levels;
    if (w.name.find("chain") != std::string::npos) {
      chain_slack = r.stats.max_queue_length;
    }
    if (w.name.find("RMAT-A") != std::string::npos) {
      rmat_slack = r.stats.max_queue_length;
    }
    table.row({w.name, fmt_seconds(secs), fmt_count(r.max_level()),
               fmt_count(r.stats.max_queue_length),
               fmt_ratio(static_cast<double>(r.stats.wakeups) /
                         static_cast<double>(r.visited_count())),
               fmt_count(static_cast<std::uint64_t>(slack))});
  }
  std::printf("%s\n", table.render().c_str());

  ok &= shape_check(chain_slack <= 2,
                    "chain exposes no parallelism: at most one visitor "
                    "queued at any time (traversal fully serialized)");
  ok &= shape_check(rmat_slack > 50 * std::max<std::uint64_t>(chain_slack, 1),
                    "scale-free graph exposes orders of magnitude more "
                    "queued work than the chain (paper: 'a significant "
                    "amount of path parallelism exists in these real-world "
                    "graphs')");
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}