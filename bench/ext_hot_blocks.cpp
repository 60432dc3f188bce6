// Extension: hot-block-aware SEM scheduling acceptance
// (docs/hot_blocks.md).
//
// The paper's semi-sorted visit order gives SEM traversals their locality;
// this harness measures what the live pending-visitor signal buys on top of
// it. It runs the same semi-external BFS and CC twice over a cache sized
// well below the graph (default 10% of the file's blocks):
//
//   baseline  static semi-sort: priority ordering + LRU cache (the seed
//             configuration of table4/table5);
//   hot       --ordering=hot + --cache-policy=pressure: visitors whose
//             block is cache-resident pop first (cold-block visitors wait
//             while their backlog accumulates), and eviction avoids blocks
//             with queued work.
//
// and asserts the three claims the machinery is built on:
//
//   1. identity: hot scheduling changes I/O traffic, never labels — every
//      mode must match the serial baseline bit-for-bit;
//   2. efficiency: bytes read from the device per completed visit shrink
//      by >= --min-gain (default 1.5x) under hot scheduling;
//   3. conservation: after a clean run the pressure tracker drains to zero
//      (every enqueued visitor was completed exactly once).
//
// A third advisory row adds --prefetch-hot on the coalescing backend: the
// readahead lane must issue, and wasted prefetches are reported (they
// charge the device honestly, so this row's bytes/visit may exceed the hot
// row's).
//
//   ./ext_hot_blocks [--scale=14] [--threads=64] [--time-scale=0.02]
//                    [--cache-fraction=0.10] [--hot-threshold=4]
//                    [--min-gain=1.5] [--json F]
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "graph/graph_io.hpp"
#include "sem/device_presets.hpp"
#include "sem/sem_config.hpp"
#include "sem/sem_csr.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;
using telemetry::json_value;

namespace {

struct mode_result {
  double seconds = 0.0;
  std::uint64_t read_bytes = 0;
  std::uint64_t visits = 0;
  std::uint64_t hot_pops = 0;
  bool labels_ok = false;
  sem::cache_counters cache;
  // Pressure totals (zero-initialized when the mode builds no tracker).
  std::uint64_t pressure_increments = 0;
  std::uint64_t pressure_decrements = 0;
  std::uint64_t pressure_pending = 0;
  sem::prefetcher::counters prefetch;
  bool has_prefetch = false;

  double bytes_per_visit() const {
    return visits == 0 ? 0.0
                       : static_cast<double>(read_bytes) /
                             static_cast<double>(visits);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 14));
  traversal_options topt = traversal_options::from_flags(opt, true);
  if (!opt.has("threads")) topt.queue.num_threads = 64;
  const double time_scale = opt.get_double("time-scale", 0.02);
  const double min_gain = opt.get_double("min-gain", 1.5);

  banner("Hot-Block-Aware SEM Scheduling",
         "extension over paper §IV (docs/hot_blocks.md)");
  bench_report rep(opt, "ext_hot_blocks");

  const csr32 g = rmat_graph<vertex32>(rmat_a(scale, 42));
  vertex32 start = 0;
  for (vertex32 v = 1; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(start)) start = v;
  }
  const auto tmp =
      std::filesystem::temp_directory_path() / "asyncgt_ext_hot_blocks";
  std::filesystem::create_directories(tmp);
  const std::string path = (tmp / "graph.agt").string();
  write_graph(path, g);
  // Acceptance runs the cache well under the file size (default 0.10) —
  // the signal only matters when residency is scarce.
  const sem::sem_config flags = sem::sem_config::from_flags(opt, path, 0.10);

  const bfs_result<vertex32> ref_bfs = serial_bfs(g, start);
  const cc_result<vertex32> ref_cc = serial_cc(g);
  const auto params = sem::device_preset_by_name(
      opt.get_string("device", "intel"), time_scale);

  // One run of `algo` ("bfs" | "cc") under one scheduling mode. Everything
  // except the ordering / cache-policy / prefetch triple is held constant.
  const auto run_mode = [&](const std::string& algo, bool hot,
                            const std::string& policy, bool prefetch,
                            const std::string& backend) {
    sem::ssd_model dev(params);
    sem::sem_config scfg = flags;
    scfg.with_device(&dev)
        .with_cache_policy(policy)
        .with_io_backend(backend, flags.io_batch())
        .with_hot_ordering(hot, flags.hot_threshold())
        .with_prefetch_hot(prefetch);
    auto bundle = scfg.open<vertex32>();
    traversal_options cfg = topt;
    bundle.wire_queue(cfg.queue);
    mode_result r;
    if (algo == "bfs") {
      bfs_result<vertex32> out;
      r.seconds = time_seconds(
          [&] { out = async_bfs(*bundle.graph, start, cfg); });
      r.labels_ok = out.level == ref_bfs.level;
      r.visits = out.work().visits;
      r.hot_pops = out.stats.hot_pops;
    } else {
      cc_result<vertex32> out;
      r.seconds =
          time_seconds([&] { out = async_cc(*bundle.graph, cfg); });
      r.labels_ok = out.component == ref_cc.component;
      r.visits = out.work().visits;
      r.hot_pops = out.stats.hot_pops;
    }
    if (bundle.prefetch != nullptr) {
      bundle.prefetch->drain();
      r.prefetch = bundle.prefetch->stats();
      r.has_prefetch = true;
    }
    r.read_bytes = dev.counters().read_bytes;
    if (bundle.cache != nullptr) r.cache = bundle.cache->counters();
    if (bundle.pressure != nullptr) {
      r.pressure_increments = bundle.pressure->total_increments();
      r.pressure_decrements = bundle.pressure->total_decrements();
      r.pressure_pending = bundle.pressure->total_pending();
    }
    return r;
  };

  text_table table;
  table.header({"algo", "mode", "time (s)", "MiB read", "visits",
                "bytes/visit", "cache hit", "rejects", "hot pops",
                "labels"});

  bool ok = true;
  json_value modes = json_value::array();
  const auto add_row = [&](const std::string& algo, const std::string& name,
                           const mode_result& r) {
    table.row({algo, name, fmt_seconds(r.seconds),
               fmt_count(r.read_bytes >> 20), fmt_count(r.visits),
               fmt_count(static_cast<std::uint64_t>(r.bytes_per_visit())),
               fmt_ratio(r.cache.hit_rate()),
               fmt_count(r.cache.policy_rejects), fmt_count(r.hot_pops),
               r.labels_ok ? "ok" : "DIFF"});
    if (rep.json_enabled()) {
      json_value m = json_value::object();
      m.set("algo", algo);
      m.set("mode", name);
      m.set("seconds", r.seconds);
      m.set("read_bytes", r.read_bytes);
      m.set("visits", r.visits);
      m.set("bytes_per_visit", r.bytes_per_visit());
      m.set("hot_pops", r.hot_pops);
      m.set("labels_ok", r.labels_ok);
      m.set("cache", bench::to_json(r.cache));
      if (r.pressure_increments != 0 || r.pressure_decrements != 0) {
        json_value p = json_value::object();
        p.set("increments", r.pressure_increments);
        p.set("decrements", r.pressure_decrements);
        p.set("pending", r.pressure_pending);
        m.set("pressure", std::move(p));
      }
      if (r.has_prefetch) {
        m.set("prefetch", bench::to_json(r.prefetch, r.cache));
      }
      modes.push(std::move(m));
    }
  };

  double gains[2] = {0.0, 0.0};
  const char* algos[2] = {"bfs", "cc"};
  for (int a = 0; a < 2; ++a) {
    const std::string algo = algos[a];
    const mode_result base = run_mode(algo, false, "lru", false, "sync");
    const mode_result hot = run_mode(algo, true, "pressure", false, "sync");
    add_row(algo, "baseline", base);
    add_row(algo, "hot", hot);

    ok &= shape_check(base.labels_ok,
                      algo + " baseline labels match the serial reference");
    ok &= shape_check(hot.labels_ok,
                      algo + " hot-mode labels match the serial reference "
                             "(scheduling is I/O-only)");
    ok &= shape_check(hot.hot_pops > 0,
                      algo + " hot ordering actually popped from the hot "
                             "band");
    ok &= shape_check(
        hot.pressure_increments == hot.pressure_decrements &&
            hot.pressure_pending == 0,
        algo + " pressure drains to zero after a clean run (" +
            std::to_string(hot.pressure_increments) + " enq == " +
            std::to_string(hot.pressure_decrements) + " done)");
    gains[a] = hot.bytes_per_visit() > 0.0
                   ? base.bytes_per_visit() / hot.bytes_per_visit()
                   : 0.0;
    ok &= shape_check(
        gains[a] >= min_gain,
        algo + ": hot scheduling reads >=" + fmt_ratio(min_gain) +
            " fewer bytes per completed visit (got " + fmt_ratio(gains[a]) +
            "x at cache=" + fmt_ratio(flags.cache_fraction()) + ")");
  }
  table.rule();

  // Advisory prefetch row (BFS only): the readahead lane must issue on a
  // batching backend; its bytes/visit is reported, not gated — wasted
  // prefetches charge the device on purpose.
  const mode_result pre =
      run_mode("bfs", true, "pressure", true, "coalescing");
  add_row("bfs", "hot+prefetch", pre);
  ok &= shape_check(pre.labels_ok,
                    "bfs hot+prefetch labels match the serial reference");
  shape_check(pre.has_prefetch && pre.prefetch.issued > 0,
              "prefetch lane issued readahead (advisory)");

  std::printf("%s\n", table.render().c_str());

  rep.add_table(table);
  if (rep.json_enabled()) {
    json_value& s = rep.section("hot_blocks");
    s.set("device", params.name);
    s.set("time_scale", time_scale);
    s.set("scale", static_cast<std::uint64_t>(scale));
    s.set("cache_fraction", flags.cache_fraction());
    s.set("hot_threshold",
          static_cast<std::uint64_t>(flags.hot_threshold()));
    s.set("min_gain", min_gain);
    s.set("bfs_gain", gains[0]);
    s.set("cc_gain", gains[1]);
    s.set("modes", std::move(modes));
    rep.section("result").set("ok", ok);
  }
  rep.finish();

  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  return ok ? 0 : 1;
}
