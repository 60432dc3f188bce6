// Table III: "Performance comparison of In-Memory Connected Components
// (CC)".
//
// Reproduces the paper's grid: undirected RMAT-A / RMAT-B graphs plus the
// synthetic web graphs standing in for the paper's five crawls (ClueWeb09,
// it-2004, sk-2005, uk-union, webbase-2001), comparing the serial baseline
// (BGL stand-in), synchronous label propagation (MTGL stand-in), BSP
// min-label propagation (PBGL stand-in), and the asynchronous CC at several
// thread counts. The "# CCs" column mirrors the paper's. The paper reports
// async CC 2x faster than MTGL on synthetic and 4-13x on web graphs; shape
// checks here assert the machine-independent content: identical component
// labellings, correct giant-component structure in the web stand-ins, and
// async's zero barriers versus per-iteration barriers in the synchronous
// propagation.
//
//   ./table3_cc_im [--scales=13,14] [--threads=1,16,512] [--web-hosts=400]
#include <string>
#include <vector>

#include "baselines/bsp_cc.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/syncprop_cc.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_cc.hpp"
#include "core/validate.hpp"
#include "gen/webgen.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

struct workload {
  std::string name;
  csr32 graph;
  bool is_web = false;
};

std::vector<workload> make_workloads(const std::vector<std::int64_t>& scales,
                                     std::uint64_t web_hosts) {
  std::vector<workload> out;
  for (const std::string preset : {std::string("a"), std::string("b")}) {
    for (const auto scale : scales) {
      out.push_back({rmat_label(preset, static_cast<unsigned>(scale)) + " und",
                     rmat_graph_undirected<vertex32>(
                         rmat_preset(preset, static_cast<unsigned>(scale))),
                     false});
    }
  }
  // Web stand-ins with different isolation levels — mirroring the paper's
  // spread from sk-2005 (126 CCs) to ClueWeb09 (3.1M CCs).
  webgen_params dense;
  dense.num_hosts = web_hosts;
  dense.isolated_host_fraction = 0.02;
  dense.seed = 11;
  out.push_back({"web-dense (sk-2005-like)", webgen_graph<vertex32>(dense),
                 true});
  webgen_params sparse;
  sparse.num_hosts = web_hosts;
  sparse.isolated_host_fraction = 0.35;
  sparse.seed = 12;
  out.push_back({"web-fragmented (ClueWeb-like)",
                 webgen_graph<vertex32>(sparse), true});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scales = opt.get_int_list("scales", {13, 14});
  const auto threads = opt.get_int_list("threads", {1, 16, 512});
  const auto web_hosts =
      static_cast<std::uint64_t>(opt.get_int("web-hosts", 400));
  const std::size_t bsp_ranks =
      static_cast<std::size_t>(opt.get_int("bsp-ranks", 16));

  banner("In-Memory Connected Components", "paper Table III");

  bench_report rep(opt, "table3_cc_im");

  text_table table;
  {
    std::vector<std::string> hdr{"graph",      "# verts", "# edges",
                                 "# CCs",      "serial (s)", "syncprop (s)",
                                 "iterations", "bsp (s)"};
    for (const auto t : threads) {
      hdr.push_back("async" + std::to_string(t) + " (s)");
    }
    hdr.push_back("updates/vertex");
    table.header(std::move(hdr));
  }

  bool ok = true;
  std::uint64_t dense_ccs = 0, fragmented_ccs = 0;

  for (auto& w : make_workloads(scales, web_hosts)) {
    const csr32& g = w.graph;

    cc_result<vertex32> serial_r;
    const double t_serial = time_seconds([&] { serial_r = serial_cc(g); });

    syncprop_result_extra sp_extra;
    cc_result<vertex32> sp_r;
    const double t_sp =
        time_seconds([&] { sp_r = syncprop_cc(g, 16, &sp_extra); });

    bsp_stats bsp_extra;
    cc_result<vertex32> bsp_r;
    const double t_bsp =
        time_seconds([&] { bsp_r = bsp_cc(g, bsp_ranks, &bsp_extra); });

    std::vector<double> t_async;
    std::vector<cc_result<vertex32>> async_runs;
    for (const auto t : threads) {
      traversal_options cfg;
      cfg.queue.num_threads = static_cast<std::size_t>(t);
      cc_result<vertex32> r;
      t_async.push_back(time_seconds([&] { r = async_cc(g, cfg); }));
      async_runs.push_back(std::move(r));
    }
    // Overhead metrics from the mid thread count (threads ~ cores).
    const cc_result<vertex32>& async_r = async_runs[async_runs.size() / 2];

    const double updates_per_vertex =
        static_cast<double>(async_r.updates) /
        static_cast<double>(g.num_vertices());

    std::vector<std::string> row{w.name, fmt_count(g.num_vertices()),
                                 fmt_count(g.num_edges()),
                                 fmt_count(serial_r.num_components()),
                                 fmt_seconds(t_serial), fmt_seconds(t_sp),
                                 fmt_count(sp_extra.iterations),
                                 fmt_seconds(t_bsp)};
    for (const double t : t_async) row.push_back(fmt_seconds(t));
    row.push_back(fmt_ratio(updates_per_vertex));
    table.row(std::move(row));

    if (w.name.find("dense") != std::string::npos) {
      dense_ccs = serial_r.num_components();
    }
    if (w.name.find("fragmented") != std::string::npos) {
      fragmented_ccs = serial_r.num_components();
    }

    bool async_all_match = true;
    for (const auto& r : async_runs) {
      async_all_match &= (r.component == serial_r.component);
    }
    if (!async_all_match || sp_r.component != serial_r.component ||
        bsp_r.component != serial_r.component) {
      ok &= shape_check(false, w.name + ": all CC variants agree");
    }
    ok &= validate_components(g, async_r.component).ok;
    ok &= shape_check(updates_per_vertex < 4.0,
                      w.name + ": async CC label corrections per vertex "
                               "stay bounded");
    if (w.is_web) {
      ok &= shape_check(
          serial_r.largest_component_size() > g.num_vertices() / 2,
          w.name + ": giant component holds most of the web graph");
    }
  }

  std::printf("%s\n", table.render().c_str());

  ok &= shape_check(fragmented_ccs > 5 * std::max<std::uint64_t>(dense_ccs, 1),
                    "fragmented web graph has far more components than the "
                    "dense one (paper: ClueWeb09 3.1M CCs vs sk-2005 126)");
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}