// dyn-refresh: writes beside reads on a delta overlay.
//
// Symmetrized RMAT-A scale 18 in memory with its reverse view, weights in
// [7, 8]. One client loops over the seeded mixed batches (30% deletes,
// symmetric): apply, pin a snapshot, then repair BFS, SSSP and CC labels
// with submit_incremental_*. Every kth batch, and the last one, also runs
// a full BFS over the patched head and checks every repaired label against
// a serial recompute over the same pinned view. The run ends with
// compact() + rebase() and full BFS runs over the clean base.
#include <algorithm>
#include <optional>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "bench.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "core/incremental.hpp"
#include "graph/delta_overlay.hpp"
#include "inputs.hpp"

namespace agtbench {

using namespace asyncgt;

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kCheckEvery = 2;
constexpr std::uint32_t kSampleEvery = 16;
constexpr int kCleanBfsRuns = 2;

using view_t = overlay_view<csr32>;

/// Per-batch timings of the refresh path.
struct batch_record {
  bool traced = false;
  double refresh_s = 0.0;  ///< apply start -> all three labels repaired
  double apply_s = 0.0;
  double snapshot_s = 0.0;
  double repair_s[3] = {0.0, 0.0, 0.0};  ///< bfs, sssp, cc
  std::uint64_t repair_visits[3] = {0, 0, 0};
  std::uint64_t affected = 0;
  std::uint64_t reseeded = 0;
};

double secs(std::int64_t a, std::int64_t b) { return (b - a) * 1e-9; }

}  // namespace

workload_output run_dyn_refresh(const run_config& cfg, op_tally& ops,
                                span_log& log) {
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 4);
  const double engine_s = start_engine();
  timed_load loaded = load_graph(graph_path(cfg.input_dir), kSetupReps, true);
  const std::vector<delta_batch<vertex32>> stream =
      read_stream(stream_path(cfg.input_dir));
  const csr32& base = loaded.graph;
  workload_output out;
  out.inputs_json = fingerprint_json(
      base.num_vertices(), base.num_edges(), graph_checksum(base),
      file_checksum(stream_path(cfg.input_dir)), stream.size());

  std::vector<double> serial_bfs_s;
  std::vector<double> dijkstra_s;
  std::vector<double> serial_cc_s;
  cc_result<vertex32> base_cc;
  serial_cc_s.push_back(seconds_of([&] { base_cc = serial_cc(base); }));
  const vertex32 src = giant_sources(base_cc.component, 1, rng).at(0);

  // `clean` outlives the overlay that is rebased onto it.
  csr32 clean;
  delta_overlay<csr32> ov(base);
  traversal_options opt;
  opt.queue.num_threads = 4;
  engine& eng = engine::process_default();

  // Warm-ups: the full epoch-0 traversals that seed the repairs.
  bfs_result<vertex32> prior_bfs;
  sssp_result<vertex32> prior_sssp;
  cc_result<vertex32> prior_cc;
  const double warmup_s = seconds_of([&] {
    const view_t view0 = ov.snapshot();
    prior_bfs = eng.submit_bfs(view0, src, opt).get();
    prior_sssp = eng.submit_sssp(view0, src, opt).get();
    prior_cc = eng.submit_cc(view0, opt).get();
  });
  const double full_visits[3] = {
      static_cast<double>(prior_bfs.stats.visits),
      static_cast<double>(prior_sssp.stats.visits),
      static_cast<double>(prior_cc.stats.visits)};
  ops.attempted.fetch_add(3);
  {
    bfs_result<vertex32> sb;
    sssp_result<vertex32> ds;
    serial_bfs_s.push_back(seconds_of([&] { sb = serial_bfs(base, src); }));
    dijkstra_s.push_back(seconds_of([&] { ds = dijkstra_sssp(base, src); }));
    if (prior_bfs.level != sb.level) ops.fail("epoch-0 bfs labels differ");
    if (prior_sssp.dist != ds.dist) ops.fail("epoch-0 sssp labels differ");
    if (prior_cc.component != base_cc.component) {
      ops.fail("epoch-0 cc labels differ");
    }
  }

  std::vector<batch_record> batches;
  record_list records;
  std::optional<bfs_result<vertex32>> last_ref_bfs;

  // Full BFS over the patched head, timed and recorded; returns its labels.
  const auto overlay_bfs = [&](const view_t& view, bool traced,
                               std::uint64_t parent, std::uint64_t group) {
    query_record rec;
    rec.kind = "overlay_bfs";
    rec.width = opt.queue.num_threads;
    rec.graph_edges = view.num_edges();
    query_times t;
    const adjacency_meter out(kSampleEvery);
    const adjacency_meter in(kSampleEvery);
    const timed_graph<view_t> tg(view, out, in);
    bfs_result<vertex32> res = run_job(rec, t, [&] {
      return traced ? eng.submit_bfs(tg, src, opt)
                    : eng.submit_bfs(view, src, opt);
    });
    if (traced) trace_query(log, ops, rec, t, &out, &in, parent, group);
    records.add(std::move(rec));
    return res;
  };

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  bool checked_last = false;
  for (std::size_t b = 0; b < stream.size() && before(deadline); ++b) {
    const delta_batch<vertex32>& batch = stream[b];
    batch_record br;
    // Traced and untraced batches alternate in whole check cycles, so both
    // passes see the same mix of plain and checked batches.
    br.traced = cfg.trace && (b / kCheckEvery) % 2 == 1;
    const std::uint64_t group = br.traced ? log.new_group() : 0;
    ops.attempted.fetch_add(1);
    checked_last = false;
    try {
      const std::int64_t ta = now_ns();
      ov.apply(batch);
      const std::int64_t tb = now_ns();
      const view_t view = ov.snapshot();
      const std::int64_t tc = now_ns();
      std::uint64_t batch_span = 0;
      if (br.traced) {
        batch_span = log.add("batch", 0, group, ta, ta);
        log.add("apply", batch_span, group, ta, tb);
        log.add("snapshot", batch_span, group, tb, tc);
      }
      // One repair job: submit, wait, record; returns the repaired labels.
      const auto repair = [&](int idx, const char* kind, auto submit) {
        incremental_extra ex;
        query_record rec;
        rec.kind = kind;
        rec.width = opt.queue.num_threads;
        rec.graph_edges = view.num_edges();
        query_times t;
        auto res = run_job(rec, t, [&] { return submit(&ex); });
        br.repair_s[idx] = rec.wall_s;
        br.repair_visits[idx] = ex.repair_visits;
        br.affected += ex.affected;
        br.reseeded += ex.reseeded_vertices;
        if (br.traced) {
          trace_query(log, ops, rec, t, nullptr, nullptr, batch_span, group);
        }
        records.add(std::move(rec));
        return res;
      };
      prior_bfs = repair(0, "repair_bfs", [&](incremental_extra* ex) {
        return eng.submit_incremental_bfs(view, batch, std::move(prior_bfs),
                                          ex, opt);
      });
      prior_sssp = repair(1, "repair_sssp", [&](incremental_extra* ex) {
        return eng.submit_incremental_sssp(view, batch, std::move(prior_sssp),
                                           ex, opt);
      });
      prior_cc = repair(2, "repair_cc", [&](incremental_extra* ex) {
        return eng.submit_incremental_cc(view, batch, std::move(prior_cc), ex,
                                         opt);
      });
      const std::int64_t td = now_ns();
      br.refresh_s = secs(ta, td);
      br.apply_s = secs(ta, tb);
      br.snapshot_s = secs(tb, tc);
      batches.push_back(br);

      const bool last = b + 1 == stream.size() || !before(deadline);
      if (b % kCheckEvery == kCheckEvery - 1 || last) {
        ops.attempted.fetch_add(1);
        const auto head = overlay_bfs(view, br.traced, batch_span, group);
        bfs_result<vertex32> sb;
        sssp_result<vertex32> ds;
        cc_result<vertex32> sc;
        serial_bfs_s.push_back(seconds_of([&] { sb = serial_bfs(view, src); }));
        dijkstra_s.push_back(
            seconds_of([&] { ds = dijkstra_sssp(view, src); }));
        serial_cc_s.push_back(seconds_of([&] { sc = serial_cc(view); }));
        if (head.level != sb.level) {
          ops.fail("overlay bfs labels differ from serial BFS");
        }
        if (prior_bfs.level != sb.level || prior_sssp.dist != ds.dist ||
            prior_cc.component != sc.component) {
          ops.fail("batch " + std::to_string(b) +
                   ": repaired labels differ from the recompute");
        }
        last_ref_bfs = std::move(sb);
        checked_last = true;
      }
      if (br.traced) log.set_end(batch_span, now_ns());
    } catch (const std::exception& e) {
      ops.fail("batch " + std::to_string(b) + " threw: " + e.what());
      break;
    }
  }
  if (!checked_last) {
    ops.fail("the last batch was not checked");
  }

  // Compaction, then full BFS over the clean base.
  const overlay_counters head_counters = ov.counters();
  const double overlay_bytes = static_cast<double>(ov.overlay_bytes());
  const double compact_s = seconds_of([&] {
    clean = ov.compact(true);
    ov.rebase(clean);
  });
  std::vector<double> clean_bfs_s;
  for (int i = 0; i < kCleanBfsRuns; ++i) {
    ops.attempted.fetch_add(1);
    bfs_result<vertex32> res;
    clean_bfs_s.push_back(
        seconds_of([&] { res = eng.submit_bfs(clean, src, opt).get(); }));
    if (!last_ref_bfs || res.level != last_ref_bfs->level) {
      ops.fail("clean-base bfs labels differ from serial BFS");
    }
  }

  const std::vector<query_record> recs = records.snapshot();
  metric_sink& m = out.metrics;
  std::vector<double> refresh;
  for (const batch_record& br : batches) {
    if (!br.traced) refresh.push_back(br.refresh_s);
  }
  const std::vector<query_record> plain = untraced(recs);
  if (!refresh.empty()) {
    m.set("refresh_ms", 1e3 * median(refresh), "ms", refresh.size(),
          "median per batch");
    const tail_point tail = supported_tail(refresh);
    if (tail.valid) {
      char note[64];
      std::snprintf(note, sizeof note, "p%.1f, 10 samples beyond",
                    tail.percentile);
      m.set("refresh_tail_ms", 1e3 * tail.value, "ms", refresh.size(), note);
    }
  }
  const auto head_bfs =
      set_median_wall(m, plain, "overlay_bfs", "overlay_bfs_s");
  if (head_bfs) m.set("bfs_s", *head_bfs, "s", 0, "= overlay_bfs_s");
  if (!plain.empty()) {
    m.set("jobs_per_s", mix_rate(plain), "1/s", plain.size(),
          "repair + overlay BFS jobs / sum over kinds of count x median wall");
  }
  m.set("setup_s", engine_s + loaded.setup_s + warmup_s, "s", kSetupReps,
        "engine start + median load+reverse over reps + epoch-0 warm-ups");
  m.set("graph.load_s", loaded.load_s, "s", kSetupReps);
  m.set("graph.reverse_s", loaded.reverse_s, "s", kSetupReps);
  m.set("baselines.serial_bfs_s", median(serial_bfs_s), "s",
        serial_bfs_s.size());
  m.set("baselines.dijkstra_s", median(dijkstra_s), "s", dijkstra_s.size());
  m.set("baselines.serial_cc_s", median(serial_cc_s), "s",
        serial_cc_s.size());
  if (head_bfs) {
    m.set("baselines.bfs_vs_serial", *head_bfs / median(serial_bfs_s),
          "ratio", 0, "overlay_bfs_s / serial BFS");
  }
  if (cfg.trace) {
    layer_metrics(m, recs, "graph");
    std::vector<const batch_record*> traced;
    for (const batch_record& br : batches) {
      if (br.traced) traced.push_back(&br);
    }
    const double nt = static_cast<double>(traced.size());
    if (!traced.empty()) {
      double apply = 0, snap = 0, rep[3] = {0, 0, 0}, vis[3] = {0, 0, 0};
      double affected = 0, reseeded = 0;
      for (const batch_record* br : traced) {
        apply += br->apply_s;
        snap += br->snapshot_s;
        for (int i = 0; i < 3; ++i) {
          rep[i] += br->repair_s[i];
          vis[i] += static_cast<double>(br->repair_visits[i]);
        }
        affected += static_cast<double>(br->affected);
        reseeded += static_cast<double>(br->reseeded);
      }
      const std::size_t n = traced.size();
      m.set("overlay.apply_ms", 1e3 * apply / nt, "ms", n, "mean per batch");
      m.set("overlay.snapshot_us", 1e6 * snap / nt, "us", n,
            "mean per batch");
      const char* names[3] = {"bfs", "sssp", "cc"};
      for (int i = 0; i < 3; ++i) {
        m.set(std::string("incremental.") + names[i] + "_repair_ms",
              1e3 * rep[i] / nt, "ms", n, "mean per batch");
        m.set(std::string("incremental.") + names[i] + "_visit_ratio",
              vis[i] / nt / full_visits[i], "ratio", n,
              "mean repair visits / epoch-0 full visits");
      }
      m.set("incremental.affected", affected / nt, "count", n,
            "bfs+sssp+cc, mean per batch");
      m.set("incremental.reseeded", reseeded / nt, "count", n,
            "bfs+sssp+cc, mean per batch");
    }
    m.set("overlay.patched_pairs",
          static_cast<double>(head_counters.patched_pairs), "count", 0,
          "at the head, before compaction");
    m.set("overlay.bytes", overlay_bytes, "B", 0,
          "at the head, before compaction");
    m.set("overlay.compact_s", compact_s, "s", 1, "compact + rebase");
    if (head_bfs) {
      m.set("overlay.read_tax_frac", *head_bfs / median(clean_bfs_s) - 1.0,
            "fraction", 0, "overlay_bfs_s / clean-base BFS - 1");
    }
    m.set("trace.overhead_frac", trace_overhead(recs), "fraction");
  }
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  out.detail_json = kinds_json(recs);
  out.sample_every = kSampleEvery;
  return out;
}

}  // namespace agtbench
