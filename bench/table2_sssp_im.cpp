// Table II: "Performance comparison of In-Memory Single Source Shortest
// Path (SSSP)".
//
// Reproduces the paper's grid: {RMAT-A, RMAT-B} x {UW, LUW} weight schemes,
// comparing the serial Dijkstra baseline (BGL stand-in) against the
// asynchronous SSSP at 1 / mid / oversubscribed thread counts, plus the
// delta-stepping comparator. The paper reports speedups of 12-31x over BGL
// on 16 cores; on arbitrary hardware the shape checks assert the
// machine-independent content: identical distances everywhere, label-
// correction overhead bounded, and the prioritized queue doing less work
// than unordered (LIFO) processing.
//
//   ./table2_sssp_im [--scales=13,14] [--threads=1,16,512]
#include <string>
#include <vector>

#include "baselines/delta_stepping.hpp"
#include "baselines/serial_sssp.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_sssp.hpp"
#include "core/validate.hpp"
#include "gen/weights.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

vertex32 pick_start(const csr32& g) {
  vertex32 best = 0;
  for (vertex32 v = 1; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

std::string scheme_name(weight_scheme s) {
  return s == weight_scheme::uniform ? "UW" : "LUW";
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scales = opt.get_int_list("scales", {13, 14});
  const auto threads = opt.get_int_list("threads", {1, 16, 512});

  banner("In-Memory Single Source Shortest Path", "paper Table II");

  bench_report rep(opt, "table2_sssp_im");

  text_table table;
  {
    std::vector<std::string> hdr{"graph", "weights", "# verts",
                                 "dijkstra (s)", "delta-step (s)"};
    for (const auto t : threads) {
      hdr.push_back("async" + std::to_string(t) + " (s)");
    }
    hdr.push_back("updates/vertex");
    hdr.push_back("fifo work vs prio");
    table.header(std::move(hdr));
  }

  bool ok = true;
  for (const std::string preset : {std::string("a"), std::string("b")}) {
    for (const weight_scheme scheme :
         {weight_scheme::uniform, weight_scheme::log_uniform}) {
      for (const auto scale : scales) {
        const csr32 g = add_weights(
            rmat_graph<vertex32>(
                rmat_preset(preset, static_cast<unsigned>(scale))),
            scheme, 1234);
        const vertex32 start = pick_start(g);

        sssp_result<vertex32> dij;
        const double t_dij =
            time_seconds([&] { dij = dijkstra_sssp(g, start); });

        sssp_result<vertex32> ds;
        const double t_ds = time_seconds([&] {
          ds = delta_stepping_sssp(g, start,
                                   std::max<dist_t>(1, g.num_vertices() / 8));
        });

        std::vector<double> t_async;
        std::vector<sssp_result<vertex32>> async_runs;
        for (const auto t : threads) {
          traversal_options cfg;
          cfg.queue.num_threads = static_cast<std::size_t>(t);
          sssp_result<vertex32> r;
          t_async.push_back(
              time_seconds([&] { r = async_sssp(g, start, cfg); }));
          async_runs.push_back(std::move(r));
        }
        // Overhead metrics are taken from the mid thread count (threads ~
        // cores, the configuration the paper's discussion describes).
        const sssp_result<vertex32>& async_r =
            async_runs[async_runs.size() / 2];

        // Ordering ablation inline: FIFO with one thread = Bellman-Ford-like
        // round-robin correction. (LIFO is measured only in
        // ablation_priority at small scale — stack-order correction on
        // weighted graphs can do exponentially more work.)
        traversal_options fifo_cfg;
        fifo_cfg.queue.num_threads = 1;
        fifo_cfg.queue.order = queue_order::fifo;
        const auto fifo_r = async_sssp(g, start, fifo_cfg);
        traversal_options prio_cfg;
        prio_cfg.queue.num_threads = 1;
        const auto prio_r = async_sssp(g, start, prio_cfg);

        const double updates_per_vertex =
            static_cast<double>(async_r.updates) /
            static_cast<double>(async_r.visited_count());

        std::vector<std::string> row{
            rmat_label(preset, static_cast<unsigned>(scale)),
            scheme_name(scheme), fmt_count(g.num_vertices()),
            fmt_seconds(t_dij), fmt_seconds(t_ds)};
        for (const double t : t_async) row.push_back(fmt_seconds(t));
        row.push_back(fmt_ratio(updates_per_vertex));
        row.push_back(fmt_ratio(
            static_cast<double>(fifo_r.stats.visits) /
            static_cast<double>(std::max<std::uint64_t>(
                prio_r.stats.visits, 1))));
        table.row(std::move(row));

        const std::string label =
            rmat_label(preset, static_cast<unsigned>(scale)) + "/" +
            scheme_name(scheme);
        bool async_all_match = true;
        for (const auto& r : async_runs) {
          async_all_match &= (r.dist == dij.dist);
        }
        if (!async_all_match || ds.dist != dij.dist ||
            fifo_r.dist != dij.dist) {
          ok &= shape_check(false,
                            label + ": all SSSP variants agree with Dijkstra");
        }
        ok &= validate_distances(g, start, async_r.dist).ok;
        ok &= shape_check(updates_per_vertex < 4.0,
                          label + ": async label-correction overhead stays "
                                  "bounded (multiple corrections per vertex "
                                  "are expected but rare)");
        ok &= shape_check(prio_r.stats.visits <= fifo_r.stats.visits,
                          label + ": prioritized ordering does no more work "
                                  "than round-robin (FIFO) correction");
      }
    }
  }

  std::printf("%s\n", table.render().c_str());
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}