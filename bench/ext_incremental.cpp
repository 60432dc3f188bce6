// Incremental recompute over the delta overlay (docs/dynamic_graphs.md) —
// the speedup claim behind the dynamic-graph extension, measured and GATED.
//
// The overlay's promise is that a small edge-delta should cost a small
// repair, not a full traversal. This bench applies a single insert-only
// batch sized at a fraction of the base edge count (default 1%) and runs
// each repair driver (incremental BFS / SSSP / CC) against a full
// recompute over the SAME pinned view:
//
//   1. Bit-identical labels. The repaired arrays must equal the full
//      recompute's, element for element — the repair is only interesting
//      if it is exact.
//   2. The visit gate. repair_visits must stay under --gate (default 0.2)
//      times the full recompute's visits for EVERY algorithm, and the
//      process exits non-zero on a breach — so a regression in the repair
//      planner fails CI, not just a dashboard.
//   3. Accounting sanity. reseeded <= affected <= n per algorithm
//      (tools/check_bench_json.py re-checks this from the JSON artifact,
//      and tools/compare_bench_json.py threshold-watches repair_visits
//      across runs).
//
// The batch is symmetric (CC's repair precondition) and insert-only, which
// also exercises the documented no-reverse-needed path: the base graph
// carries no reverse view, and none of the three submissions may demand
// one. The JSON report's "incremental" section carries the batch shape and
// a per-algorithm {affected, reseeded, repair_visits, full_visits,
// visit_ratio} block.
//
//   ./ext_incremental [--scale=15] [--threads=8] [--fraction=0.01]
//                     [--gate=0.2] [--seed=42] [--json=F] [--trace=F]
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/incremental.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "gen/weights.hpp"
#include "graph/delta_overlay.hpp"
#include "service/engine.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

/// One repair-vs-recompute row: labels equal, visit counts, elapsed times.
struct algo_row {
  std::string name;
  bool labels_equal = false;
  incremental_extra extra;
  std::uint64_t full_visits = 0;
  double repair_seconds = 0.0;
  double full_seconds = 0.0;

  double visit_ratio() const {
    return full_visits == 0
               ? 0.0
               : static_cast<double>(extra.repair_visits) /
                     static_cast<double>(full_visits);
  }
};

json_value to_json(const algo_row& r) {
  json_value out = bench::to_json(r.extra);
  out.set("full_visits", r.full_visits);
  out.set("visit_ratio", r.visit_ratio());
  out.set("labels_equal", r.labels_equal);
  out.set("repair_seconds", r.repair_seconds);
  out.set("full_seconds", r.full_seconds);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 15));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  const double fraction = opt.get_double("fraction", 0.01);
  const double gate = opt.get_double("gate", 0.2);
  traversal_options topt = traversal_options::from_flags(opt, true);
  if (!opt.has("threads")) topt.queue.num_threads = 8;

  banner("Incremental repair vs full recompute over the delta overlay",
         "dynamic-graph extension (docs/dynamic_graphs.md)");

  bench_report rep(opt, "ext_incremental");
  rep.attach(topt);

  // Symmetric weighted base: one graph serves all three algorithms (CC
  // needs the symmetry; SSSP the weights; BFS ignores them). Deliberately
  // NO reverse view — an insert-only delta must repair without one.
  //
  // Weights sit in a narrow band ([7, 8], and inserts draw from the same
  // band below): with low relative weight variance a random long-range
  // insert rarely shortens any path, so the delta's true label impact is
  // sparse — the regime the incremental claim is about. Wide-variance
  // weights (the UW scheme's [1, n)) make a 1% insert batch legitimately
  // rewrite most SSSP distances (measured: >99% of labels change), where
  // NO repair strategy can be cheap — that is a different experiment.
  const csr32 uw = add_weights(
      rmat_graph_undirected<vertex32>(rmat_a(scale, seed)),
      weight_scheme::uniform, seed + 1);
  std::vector<std::uint64_t> off(uw.offsets().begin(), uw.offsets().end());
  std::vector<vertex32> tgt(uw.targets().begin(), uw.targets().end());
  std::vector<weight_t> wts(uw.weights().begin(), uw.weights().end());
  for (auto& w : wts) w = 7 + (w - 1) % 2;
  const csr32 base(std::move(off), std::move(tgt), std::move(wts));
  delta_overlay<csr32> ov(base);

  // One insert-only symmetric batch at --fraction of the base edge count.
  // Each symmetric op emits two directed inserts, so the op count halves.
  const auto ops = static_cast<std::size_t>(std::max<double>(
      1.0, fraction * static_cast<double>(base.num_edges()) / 2.0));
  const auto stream = generate_update_stream(
      base, {.seed = seed, .num_batches = 1,
             .batch_size = ops, .delete_fraction = 0.0, .symmetric = true,
             .min_weight = 7, .max_weight = 8});
  const delta_batch<vertex32>& batch = stream.front();

  engine eng({.pool_threads = topt.queue.num_threads, .defaults = topt});

  // Priors over the pristine epoch-0 pin; then the batch lands and every
  // driver repairs its prior against epoch 1.
  auto view0 = ov.snapshot();
  auto prior_bfs = eng.submit_bfs(view0, vertex32{0}, topt).get();
  auto prior_sssp = eng.submit_sssp(view0, vertex32{0}, topt).get();
  auto prior_cc = eng.submit_cc(view0, topt).get();

  ov.apply(batch);
  auto view = ov.snapshot();

  std::vector<algo_row> rows;

  {
    algo_row r{.name = "bfs"};
    wall_timer t;
    auto repaired =
        eng.submit_incremental_bfs(view, batch, std::move(prior_bfs),
                                   &r.extra, topt)
            .get();
    r.repair_seconds = t.elapsed_seconds();
    wall_timer tf;
    auto full_job = eng.submit_bfs(view, vertex32{0}, topt);
    const auto full = full_job.get();
    r.full_seconds = tf.elapsed_seconds();
    r.full_visits = full_job.stats().visits;
    r.labels_equal = repaired.level == full.level;
    rows.push_back(std::move(r));
  }
  {
    algo_row r{.name = "sssp"};
    wall_timer t;
    auto repaired =
        eng.submit_incremental_sssp(view, batch, std::move(prior_sssp),
                                    &r.extra, topt)
            .get();
    r.repair_seconds = t.elapsed_seconds();
    wall_timer tf;
    auto full_job = eng.submit_sssp(view, vertex32{0}, topt);
    const auto full = full_job.get();
    r.full_seconds = tf.elapsed_seconds();
    r.full_visits = full_job.stats().visits;
    r.labels_equal = repaired.dist == full.dist;
    rows.push_back(std::move(r));
  }
  {
    algo_row r{.name = "cc"};
    wall_timer t;
    auto repaired =
        eng.submit_incremental_cc(view, batch, std::move(prior_cc),
                                  &r.extra, topt)
            .get();
    r.repair_seconds = t.elapsed_seconds();
    wall_timer tf;
    auto full_job = eng.submit_cc(view, topt);
    const auto full = full_job.get();
    r.full_seconds = tf.elapsed_seconds();
    r.full_visits = full_job.stats().visits;
    r.labels_equal = repaired.component == full.component;
    rows.push_back(std::move(r));
  }

  bool ok = true;
  text_table table;
  table.header({"algo", "affected", "reseeded", "repair visits",
                "full visits", "ratio", "repair sec", "full sec"});
  for (const auto& r : rows) {
    table.row({r.name, fmt_count(r.extra.affected),
               fmt_count(r.extra.reseeded_vertices),
               fmt_count(r.extra.repair_visits), fmt_count(r.full_visits),
               fmt_ratio(r.visit_ratio()), fmt_seconds(r.repair_seconds),
               fmt_seconds(r.full_seconds)});
    ok &= shape_check(r.labels_equal,
                      r.name + ": repaired labels bit-identical to full "
                              "recompute");
    ok &= shape_check(r.extra.reseeded_vertices <= r.extra.affected &&
                          r.extra.affected <= base.num_vertices(),
                      r.name + ": reseeded <= affected <= n");
    ok &= shape_check(r.full_visits > 0, r.name + ": recompute visited");
    // THE gate: a small delta must cost a small repair.
    ok &= shape_check(
        static_cast<double>(r.extra.repair_visits) <
            gate * static_cast<double>(r.full_visits),
        r.name + ": repair_visits < " + std::to_string(gate) +
            " * full_visits (" + std::to_string(r.extra.repair_visits) +
            " vs " + std::to_string(r.full_visits) + ")");
  }
  std::printf("%s\n", table.render().c_str());

  if (rep.json_enabled()) {
    json_value& s = rep.section("incremental");
    s.set("n", static_cast<std::uint64_t>(base.num_vertices()));
    s.set("base_edges", base.num_edges());
    s.set("delta_inserts",
          static_cast<std::uint64_t>(batch.inserts.size()));
    s.set("delta_deletes",
          static_cast<std::uint64_t>(batch.deletes.size()));
    s.set("epoch", ov.epoch());
    s.set("gate", gate);
    json_value algos = json_value::object();
    for (const auto& r : rows) algos.set(r.name, to_json(r));
    s.set("algos", std::move(algos));
    rep.section("overlay") = [&] {
      const auto c = ov.counters();
      json_value o = json_value::object();
      o.set("live_inserts", c.live_inserts);
      o.set("live_deletes", c.live_deletes);
      o.set("patched_pairs", c.patched_pairs);
      o.set("overlay_bytes", ov.overlay_bytes());
      return o;
    }();
    rep.section("result").set("ok", ok);
  }
  rep.add_table(table);
  rep.finish();
  return ok ? 0 : 1;
}
