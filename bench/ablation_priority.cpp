// Ablation: why *prioritized* visitor queues (paper §III-A/III-B).
//
// The asynchronous label-correcting traversal is correct under any pop
// order, but the number of corrective re-visits depends on how close the
// pop order is to Dijkstra's. This harness runs SSSP under priority / FIFO
// ordering (and LIFO on a deliberately small graph — stack-order correction
// on weighted graphs does multiplicatively more work, which is itself the
// point) and reports total visits (work) and wasted visits (visits that did
// not improve a label). The paper's design choice is justified if priority
// ordering does the least work.
//
//   ./ablation_priority [--scale=13] [--lifo-scale=9] [--threads=1,16]
#include <string>
#include <vector>

#include "baselines/serial_sssp.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_sssp.hpp"
#include "gen/weights.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

struct order_run {
  std::string name;
  double seconds = 0;
  std::uint64_t visits = 0;
  std::uint64_t wasted = 0;
  bool correct = false;
};

order_run run_order(const csr32& g, const sssp_result<vertex32>& ref,
                    queue_order order, std::size_t threads,
                    const char* name) {
  traversal_options cfg;
  cfg.queue.num_threads = threads;
  cfg.queue.order = order;
  order_run out;
  out.name = name;
  sssp_result<vertex32> r;
  out.seconds = time_seconds([&] { r = async_sssp(g, vertex32{0}, cfg); });
  out.visits = r.stats.visits;
  out.wasted = r.stats.visits - r.updates;
  out.correct = (r.dist == ref.dist);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 13));
  const auto lifo_scale = static_cast<unsigned>(opt.get_int("lifo-scale", 9));
  const auto threads = opt.get_int_list("threads", {1, 16});

  banner("Visitor-queue ordering ablation (priority vs FIFO vs LIFO)",
         "design choice behind paper Algorithms 1-4");

  bench_report rep(opt, "ablation_priority");

  text_table table;
  table.header({"graph", "threads", "order", "time (s)", "visits",
                "wasted visits"});

  bool ok = true;
  for (const std::string preset : {std::string("a"), std::string("b")}) {
    const csr32 g = add_weights(
        rmat_graph<vertex32>(rmat_preset(preset, scale)),
        weight_scheme::uniform, 77);
    const auto ref = dijkstra_sssp(g, vertex32{0});

    for (const auto t : threads) {
      const order_run prio = run_order(g, ref, queue_order::priority,
                                       static_cast<std::size_t>(t),
                                       "priority");
      const order_run fifo = run_order(g, ref, queue_order::fifo,
                                       static_cast<std::size_t>(t), "fifo");
      for (const auto& r : {prio, fifo}) {
        if (!r.correct) ok &= shape_check(false, "ordering correctness");
        table.row({rmat_label(preset, scale), std::to_string(t), r.name,
                   fmt_seconds(r.seconds), fmt_count(r.visits),
                   fmt_count(r.wasted)});
      }
      table.rule();
      ok &= shape_check(
          prio.visits <= fifo.visits,
          rmat_label(preset, scale) + " t=" + std::to_string(t) +
              ": priority ordering does no more label-correction work than "
              "FIFO");
    }
  }

  // LIFO on a small graph: demonstrates how badly unprioritized stack-order
  // correction degrades (this is why the paper's queues are priority queues;
  // at larger scales LIFO work grows multiplicatively, hence the small
  // dedicated instance).
  {
    const csr32 g = add_weights(rmat_graph<vertex32>(rmat_a(lifo_scale)),
                                weight_scheme::uniform, 77);
    const auto ref = dijkstra_sssp(g, vertex32{0});
    const order_run prio =
        run_order(g, ref, queue_order::priority, 1, "priority");
    const order_run lifo = run_order(g, ref, queue_order::lifo, 1, "lifo");
    for (const auto& r : {prio, lifo}) {
      if (!r.correct) ok &= shape_check(false, "LIFO correctness");
      table.row({rmat_label("a", lifo_scale), "1", r.name,
                 fmt_seconds(r.seconds), fmt_count(r.visits),
                 fmt_count(r.wasted)});
    }
    ok &= shape_check(lifo.visits > 2 * prio.visits,
                      "LIFO (stack) ordering wastes multiples of the "
                      "prioritized work even on a small graph");
  }

  std::printf("%s\n", table.render().c_str());
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}