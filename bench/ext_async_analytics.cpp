// Extension bench: asynchronous PageRank and k-core versus their
// synchronous baselines (not a paper table — the paper frames its
// traversals as "building blocks to many graph analysis algorithms"; this
// harness measures the generalization of the visitor queue to two such
// blocks, with the same work/synchronization accounting as Tables I-III).
//
//   ./ext_async_analytics [--scale=11] [--threads=1,16] [--tolerance=1e-6]
#include <cmath>
#include <string>

#include "baselines/power_iteration.hpp"
#include "baselines/serial_kcore.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_kcore.hpp"
#include "core/async_pagerank.hpp"
#include "gen/webgen.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 11));
  const auto threads = opt.get_int_list("threads", {1, 16});
  const double tolerance = opt.get_double("tolerance", 1e-6);

  banner("Extension: asynchronous PageRank and k-core on the visitor queue",
         "generalization of the paper's framework (not a paper table)");

  bench_report rep(opt, "ext_async_analytics");

  bool ok = true;
  text_table table;
  table.header({"graph", "algorithm", "threads", "time (s)", "work",
                "error / agreement"});

  for (const std::string preset : {std::string("a"), std::string("b")}) {
    const csr32 g = rmat_graph_undirected<vertex32>(rmat_preset(preset, scale));

    // --- PageRank ---
    power_iteration_result pi;
    const double t_pi = time_seconds(
        [&] { pi = power_iteration_pagerank(g, 0.85, tolerance / 10); });
    table.row({rmat_label(preset, scale), "power-iteration (sync)", "1",
               fmt_seconds(t_pi),
               fmt_count(pi.iterations * g.num_edges()) + " edge ops",
               std::to_string(pi.iterations) + " barrier rounds"});

    for (const auto t : threads) {
      traversal_options cfg;
      cfg.queue.num_threads = static_cast<std::size_t>(t);
      pagerank_options popt;
      popt.tolerance = tolerance;
      pagerank_result<vertex32> pr;
      const double secs =
          time_seconds([&] { pr = async_pagerank(g, popt, cfg); });
      double l1 = 0;
      for (std::size_t v = 0; v < g.num_vertices(); ++v) {
        l1 += std::fabs(pr.rank[v] - pi.rank[v]);
      }
      table.row({rmat_label(preset, scale), "async residual-push",
                 std::to_string(t), fmt_seconds(secs),
                 fmt_count(pr.flushes) + " flushes",
                 "L1 vs sync = " + std::to_string(l1)});
      const double bound =
          tolerance * static_cast<double>(g.num_vertices()) / 0.15;
      ok &= shape_check(l1 < bound,
                        rmat_label(preset, scale) + " t=" + std::to_string(t) +
                            ": async PageRank converges to the synchronous "
                            "fixed point (within tol*N/(1-a))");
    }
    table.rule();

    // --- k-core ---
    std::vector<std::uint32_t> peel;
    const double t_peel = time_seconds([&] { peel = serial_kcore(g); });
    table.row({rmat_label(preset, scale), "bucket peeling (serial)", "1",
               fmt_seconds(t_peel), fmt_count(g.num_edges()) + " edge ops",
               "exact"});
    for (const auto t : threads) {
      traversal_options cfg;
      cfg.queue.num_threads = static_cast<std::size_t>(t);
      kcore_result<vertex32> kc;
      const double secs = time_seconds([&] { kc = async_kcore(g, cfg); });
      const bool agree = (kc.core == peel);
      table.row({rmat_label(preset, scale), "async h-index",
                 std::to_string(t), fmt_seconds(secs),
                 fmt_count(kc.updates) + " bound updates",
                 agree ? "exact match" : "MISMATCH"});
      ok &= shape_check(agree, rmat_label(preset, scale) + " t=" +
                                   std::to_string(t) +
                                   ": async k-core equals serial peeling");
    }
    table.rule();
  }

  std::printf("%s\n", table.render().c_str());
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}