// sem-query: semi-external BFS and CC on symmetrized RMAT-A scale 18.
//
// The graph is an .agt file opened through sem_config: the intel device
// preset at time scale 1, a block cache of a quarter of the file, the sync
// I/O backend with LRU eviction, and the SEM queue defaults (flush batch 1,
// secondary vertex sort). One client runs one width-4 query at a time in
// seeded rounds of {BFS, CC}. Labels are checked against serial baselines
// run on an in-memory copy of the same file.
#include <algorithm>
#include <array>
#include <map>
#include <optional>

#include "baselines/levelsync_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "bench.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "graph/graph_io.hpp"
#include "inputs.hpp"
#include "sem/device_presets.hpp"
#include "sem/sem_config.hpp"

namespace agtbench {

using namespace asyncgt;

namespace {

constexpr int kSetupReps = 3;
// SEM adjacency calls last hundreds of microseconds; timing every one
// costs nothing measurable.
constexpr std::uint32_t kSampleEvery = 1;

struct sem_counters {
  sem::cache_counters cache;
  sem::ssd_counters device;
  sem::io_backend_counters io;
};

sem_counters read_counters(const sem::sem_bundle<vertex32>& b,
                           const sem::ssd_model& dev) {
  return {b.cache->counters(), dev.counters(), b.graph->backend().counters()};
}

}  // namespace

workload_output run_sem_query(const run_config& cfg, op_tally& ops,
                              span_log& log) {
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 3);
  const std::string path = graph_path(cfg.input_dir);

  // References on an in-memory copy of the same file (untimed).
  const csr32 mem = read_graph32(path);
  const std::string fingerprint = fingerprint_json(
      mem.num_vertices(), mem.num_edges(), graph_checksum(mem), 0, 0);
  std::vector<double> serial_cc_s;
  std::vector<double> serial_bfs_s;
  std::vector<double> levelsync_s;
  cc_result<vertex32> ref_cc;
  serial_cc_s.push_back(seconds_of([&] { ref_cc = serial_cc(mem); }));
  const std::vector<vertex32> sources = giant_sources(ref_cc.component, 2, rng);
  std::map<vertex32, bfs_result<vertex32>> ref_bfs;
  for (const vertex32 src : sources) {
    serial_bfs_s.push_back(
        seconds_of([&] { ref_bfs.emplace(src, serial_bfs(mem, src)); }));
    bfs_result<vertex32> ls;
    levelsync_s.push_back(
        seconds_of([&] { ls = levelsync_bfs(mem, src, 4); }));
    ops.attempted.fetch_add(1);
    if (ls.level != ref_bfs.at(src).level) {
      ops.fail("levelsync_bfs labels differ from serial BFS");
    }
  }

  const double engine_s = start_engine();
  sem::ssd_model dev(sem::intel_params(1.0));
  const sem::sem_config scfg = sem::sem_config(path)
                                   .with_device(&dev)
                                   .with_cache_fraction(0.25)
                                   .with_cache_policy("lru")
                                   .with_io_backend("sync");
  std::vector<double> open_s;
  // reset() destroys a bundle in its safe member order; plain assignment
  // would free the old cache before the old graph that borrows it.
  std::optional<sem::sem_bundle<vertex32>> bundle;
  for (int i = 0; i < kSetupReps; ++i) {
    bundle.reset();
    open_s.push_back(
        seconds_of([&] { bundle.emplace(scfg.open<vertex32>()); }));
  }
  const sem::sem_csr<vertex32>& g = *bundle->graph;

  traversal_options opt;
  opt.queue.num_threads = 4;
  opt.queue.flush_batch = 1;
  opt.queue.secondary_vertex_sort = true;
  engine& eng = engine::process_default();

  record_list records;
  const auto query = [&](const std::string& kind, vertex32 src, bool traced,
                         bool keep) {
    ops.attempted.fetch_add(1);
    query_record rec;
    rec.kind = kind;
    rec.width = opt.queue.num_threads;
    rec.graph_edges = g.num_edges();
    rec.sem = true;
    const adjacency_meter out(kSampleEvery);
    const adjacency_meter in(kSampleEvery);
    const timed_graph<sem::sem_csr<vertex32>> tg(g, out, in);
    query_times t;
    const sem_counters before_q = read_counters(*bundle, dev);
    bool ok = false;
    try {
      if (kind == "bfs") {
        ok = run_job(rec, t, [&] {
               return traced ? eng.submit_bfs(tg, src, opt)
                             : eng.submit_bfs(g, src, opt);
             }).level == ref_bfs.at(src).level;
      } else {
        ok = run_job(rec, t, [&] {
               return traced ? eng.submit_cc(tg, opt) : eng.submit_cc(g, opt);
             }).component == ref_cc.component;
      }
    } catch (const std::exception& e) {
      ops.fail(kind + " threw: " + e.what());
      return;
    }
    if (!ok) {
      ops.fail(kind + ": labels differ from the serial baseline");
      return;
    }
    const sem_counters after_q = read_counters(*bundle, dev);
    rec.cache_hits = after_q.cache.hits - before_q.cache.hits;
    rec.cache_misses = after_q.cache.misses - before_q.cache.misses;
    rec.cache_evictions = after_q.cache.evictions - before_q.cache.evictions;
    rec.device_reads = after_q.device.reads - before_q.device.reads;
    rec.device_read_bytes =
        after_q.device.read_bytes - before_q.device.read_bytes;
    rec.device_read_blocks =
        after_q.device.read_blocks - before_q.device.read_blocks;
    rec.device_max_inflight = after_q.device.max_inflight;
    rec.io_syscalls = after_q.io.batches - before_q.io.batches;
    rec.io_bytes = after_q.io.bytes_issued - before_q.io.bytes_issued;
    if (traced) trace_query(log, ops, rec, t, &out, &in);
    if (keep) records.add(std::move(rec));
  };

  std::array<std::string, 2> kinds = {"bfs", "cc"};
  const double warmup_s = seconds_of([&] {
    for (const auto& k : kinds) query(k, sources[0], false, false);
  });

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  // Whole rounds only, so the mix behind jobs_per_s does not depend on
  // where the deadline falls.
  bool traced_round = false;
  while (before(deadline)) {
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const auto& k : kinds) {
      query(k, sources[rng() % sources.size()], cfg.trace && traced_round,
            true);
    }
    traced_round = !traced_round;
  }

  const std::vector<query_record> recs = records.snapshot();
  const std::vector<query_record> plain = untraced(recs);
  workload_output out;
  metric_sink& m = out.metrics;
  const auto bfs = set_median_wall(m, plain, "bfs", "bfs_s");
  set_median_wall(m, plain, "cc", "cc_s");
  if (!plain.empty()) {
    m.set("jobs_per_s", mix_rate(plain), "1/s", plain.size(),
          "queries / sum over kinds of count x median wall");
  }
  m.set("setup_s", engine_s + median(open_s) + warmup_s, "s", kSetupReps,
        "engine start + median open over reps + warm-ups");
  m.set("sem.open_s", median(open_s), "s", kSetupReps);
  m.set("baselines.serial_bfs_s", median(serial_bfs_s), "s",
        serial_bfs_s.size(), "in-memory copy");
  m.set("baselines.serial_cc_s", median(serial_cc_s), "s", 1,
        "in-memory copy");
  m.set("baselines.levelsync_bfs_s", median(levelsync_s), "s",
        levelsync_s.size(), "in-memory copy");
  if (bfs) {
    m.set("baselines.bfs_vs_serial", *bfs / median(serial_bfs_s), "ratio", 0,
          "SEM bfs_s / in-memory serial BFS");
  }
  if (cfg.trace) {
    layer_metrics(m, recs, "sem");
    // Device busy time computed from the counters and the preset's
    // latencies (the simulation's numbers, not a real disk's).
    const sem::ssd_params& p = dev.params();
    double busy = 0.0;
    std::size_t n = 0;
    for (const auto& r : recs) {
      if (!r.traced) continue;
      busy += (static_cast<double>(r.device_reads) * p.read_latency_us +
               static_cast<double>(r.device_read_blocks - r.device_reads) *
                   p.seq_block_us) *
              p.time_scale * 1e-6;
      ++n;
    }
    if (n > 0) {
      m.set("sem.device_busy_s", busy / static_cast<double>(n), "s", n,
            "computed: reads x latency + extra blocks x seq time, mean per "
            "query");
    }
    m.set("trace.overhead_frac", trace_overhead(recs), "fraction");
  }
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  out.inputs_json = fingerprint;
  out.detail_json = kinds_json(recs);
  out.sample_every = kSampleEvery;
  return out;
}

}  // namespace agtbench
