// im-query and im-jobs: in-memory traversals on symmetrized RMAT-A scale 19.
//
// im-query: one client, one query at a time, each a width-4 job (or a
//   hybrid_bfs call) — BFS, SSSP, CC and hybrid BFS in seeded rounds.
// im-jobs: four closed-loop clients, each submitting width-1 BFS jobs back
//   to back, so four jobs share the pool at once.
//
// Every timed query's labels are compared with a serial baseline computed
// once per source, before timing.
#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <thread>

#include "baselines/levelsync_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "bench.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "core/hybrid_traversal.hpp"
#include "inputs.hpp"

namespace agtbench {

using namespace asyncgt;

namespace {

constexpr int kSetupReps = 3;
constexpr std::uint32_t kSampleEvery = 16;

/// Serial references, computed untimed, once per source.
struct references {
  cc_result<vertex32> cc;
  std::map<vertex32, bfs_result<vertex32>> bfs;
  std::map<vertex32, sssp_result<vertex32>> sssp;
  std::vector<double> serial_bfs_s;
  std::vector<double> dijkstra_s;
  std::vector<double> serial_cc_s;
  std::vector<double> levelsync_bfs_s;
};

references make_references(const csr32& g, std::vector<vertex32>& sources,
                           std::size_t num_sources, bool with_sssp,
                           std::mt19937_64& rng) {
  references r;
  r.serial_cc_s.push_back(seconds_of([&] { r.cc = serial_cc(g); }));
  sources = giant_sources(r.cc.component, num_sources, rng);
  for (const vertex32 s : sources) {
    r.serial_bfs_s.push_back(
        seconds_of([&] { r.bfs.emplace(s, serial_bfs(g, s)); }));
    if (with_sssp) {
      r.dijkstra_s.push_back(
          seconds_of([&] { r.sssp.emplace(s, dijkstra_sssp(g, s)); }));
    }
  }
  return r;
}

/// Runs one query of `kind` over `graph` (the plain CSR or its timed
/// adaptor), filling `rec` and `t`; returns whether the labels match the
/// serial reference.
template <typename G>
bool run_query(const std::string& kind, const G& graph, vertex32 src,
               const traversal_options& opt, const references& ref,
               query_record& rec, query_times& t) {
  engine& eng = engine::process_default();
  rec.kind = kind;
  rec.width = opt.queue.num_threads;
  rec.graph_edges = graph.num_edges();
  if (kind == "bfs") {
    return run_job(rec, t, [&] { return eng.submit_bfs(graph, src, opt); })
               .level == ref.bfs.at(src).level;
  }
  if (kind == "sssp") {
    return run_job(rec, t, [&] { return eng.submit_sssp(graph, src, opt); })
               .dist == ref.sssp.at(src).dist;
  }
  if (kind == "cc") {
    return run_job(rec, t, [&] { return eng.submit_cc(graph, opt); })
               .component == ref.cc.component;
  }
  hybrid_extra ex;
  t.submit = now_ns();
  const auto res = hybrid_bfs(graph, src, opt, &ex);
  t.submitted = t.done = now_ns();
  rec.is_job = false;
  rec.wall_s = (t.done - t.submit) * 1e-9;
  fill_queue(rec, res);
  rec.hybrid_inspections = ex.edge_inspections;
  rec.hybrid_switches = ex.direction_switches;
  return res.level == ref.bfs.at(src).level;
}

/// One operation, traced or not; failures land in `ops`.
void one_query(const std::string& kind, const csr32& g, vertex32 src,
               const traversal_options& opt, const references& ref,
               bool traced, op_tally& ops, span_log& log,
               record_list* records) {
  ops.attempted.fetch_add(1, std::memory_order_relaxed);
  query_record rec;
  query_times t;
  try {
    bool ok = false;
    if (traced) {
      const adjacency_meter out(kSampleEvery);
      const adjacency_meter in(kSampleEvery);
      ok = run_query(kind, timed_graph<csr32>(g, out, in), src, opt, ref, rec,
                     t);
      trace_query(log, ops, rec, t, &out, &in);
    } else {
      ok = run_query(kind, g, src, opt, ref, rec, t);
    }
    if (!ok) {
      ops.fail(kind + " from " + std::to_string(src) +
               ": labels differ from the serial baseline");
      return;
    }
  } catch (const std::exception& e) {
    ops.fail(kind + " threw: " + e.what());
    return;
  }
  if (records != nullptr) records->add(std::move(rec));
}

traversal_options width(std::size_t threads) {
  traversal_options o;
  o.queue.num_threads = threads;
  return o;
}

struct im_setup {
  double engine_s = 0.0;
  timed_load loaded;
  references ref;
  std::vector<vertex32> sources;
  std::string fingerprint;
};

im_setup setup_im(const run_config& cfg, std::size_t num_sources,
                  bool with_sssp, std::mt19937_64& rng) {
  im_setup s;
  s.engine_s = start_engine();
  s.loaded = load_graph(graph_path(cfg.input_dir), kSetupReps, true);
  const csr32& g = s.loaded.graph;
  s.fingerprint = fingerprint_json(g.num_vertices(), g.num_edges(),
                                   graph_checksum(g), 0, 0);
  s.ref = make_references(g, s.sources, num_sources, with_sssp, rng);
  return s;
}

/// setup_s, the graph setup times, and the serial baselines; `bfs` is the
/// workload's bfs_s, for bfs_vs_serial.
void common_metrics(metric_sink& m, const im_setup& s, double warmup_s,
                    std::optional<double> bfs) {
  m.set("setup_s", s.engine_s + s.loaded.setup_s + warmup_s, "s",
        kSetupReps, "engine start + median load+reverse over reps + warm-ups");
  m.set("graph.load_s", s.loaded.load_s, "s", kSetupReps);
  m.set("graph.reverse_s", s.loaded.reverse_s, "s", kSetupReps);
  const double serial = median(s.ref.serial_bfs_s);
  m.set("baselines.serial_bfs_s", serial, "s", s.ref.serial_bfs_s.size());
  if (!s.ref.dijkstra_s.empty()) {
    m.set("baselines.dijkstra_s", median(s.ref.dijkstra_s), "s",
          s.ref.dijkstra_s.size());
  }
  m.set("baselines.serial_cc_s", median(s.ref.serial_cc_s), "s",
        s.ref.serial_cc_s.size());
  if (!s.ref.levelsync_bfs_s.empty()) {
    m.set("baselines.levelsync_bfs_s", median(s.ref.levelsync_bfs_s), "s",
          s.ref.levelsync_bfs_s.size());
  }
  if (bfs) {
    m.set("baselines.bfs_vs_serial", *bfs / serial, "ratio", 0,
          "bfs_s / serial BFS");
  }
}

}  // namespace

workload_output run_im_query(const run_config& cfg, op_tally& ops,
                             span_log& log) {
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1);
  im_setup s = setup_im(cfg, 2, true, rng);
  const csr32& g = s.loaded.graph;
  const traversal_options opt = width(4);

  // Levelsync BFS: a baseline only, timed and checked like the others.
  for (const vertex32 src : s.sources) {
    bfs_result<vertex32> ls;
    s.ref.levelsync_bfs_s.push_back(
        seconds_of([&] { ls = levelsync_bfs(g, src, 4); }));
    ops.attempted.fetch_add(1);
    if (ls.level != s.ref.bfs.at(src).level) {
      ops.fail("levelsync_bfs labels differ from serial BFS");
    }
  }

  // A round runs BFS three times for every SSSP, CC and hybrid BFS: BFS is
  // the headline and the cheapest full query, SSSP the most expensive.
  std::array<std::string, 6> kinds = {"bfs", "bfs", "bfs",
                                      "sssp", "cc", "hybrid_bfs"};
  const double warmup_s = seconds_of([&] {
    for (const std::string k : {"bfs", "sssp", "cc", "hybrid_bfs"}) {
      one_query(k, g, s.sources[0], opt, s.ref, false, ops, log, nullptr);
    }
  });

  record_list records;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  // Whole rounds only, so the mix behind jobs_per_s does not depend on
  // where the deadline falls.
  bool traced_round = false;
  while (before(deadline)) {
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const auto& k : kinds) {
      const vertex32 src = s.sources[rng() % s.sources.size()];
      one_query(k, g, src, opt, s.ref, cfg.trace && traced_round, ops, log,
                &records);
    }
    traced_round = !traced_round;
  }

  const std::vector<query_record> recs = records.snapshot();
  const std::vector<query_record> plain = untraced(recs);
  workload_output out;
  metric_sink& m = out.metrics;
  const auto bfs = set_median_wall(m, plain, "bfs", "bfs_s");
  set_median_wall(m, plain, "sssp", "sssp_s");
  set_median_wall(m, plain, "cc", "cc_s");
  set_median_wall(m, plain, "hybrid_bfs", "hybrid_bfs_s");
  if (!plain.empty()) {
    m.set("jobs_per_s", mix_rate(plain), "1/s", plain.size(),
          "queries / sum over kinds of count x median wall");
  }
  common_metrics(m, s, warmup_s, bfs);
  if (cfg.trace) {
    layer_metrics(m, recs, "graph");
    m.set("trace.overhead_frac", trace_overhead(recs), "fraction");
  }
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  out.inputs_json = s.fingerprint;
  out.detail_json = kinds_json(recs);
  out.sample_every = kSampleEvery;
  return out;
}

workload_output run_im_jobs(const run_config& cfg, op_tally& ops,
                            span_log& log) {
  constexpr int kClients = 4;
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 2);
  const im_setup s = setup_im(cfg, 4, false, rng);
  const csr32& g = s.loaded.graph;
  const traversal_options opt = width(1);

  // Warm-up: one width-1 BFS per client, concurrently, so every pool
  // worker has run a job before timing starts.
  const auto fan_out = [&](auto&& body) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(body, c);
    for (auto& th : clients) th.join();
  };
  const double warmup_s = seconds_of([&] {
    fan_out([&](int c) {
      one_query("bfs", g, s.sources[static_cast<std::size_t>(c) %
                                    s.sources.size()],
                opt, s.ref, false, ops, log, nullptr);
    });
  });

  record_list records;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  // Each client's own rate, jobs over its own closed-loop span, so a
  // client that finishes early does not count as idle time of the others.
  std::array<double, kClients> client_rate{};
  fan_out([&](int c) {
    std::mt19937_64 crng(cfg.seed * 1000 + static_cast<std::uint64_t>(c));
    std::uint64_t jobs = 0;
    for (; before(deadline); ++jobs) {
      const vertex32 src = s.sources[crng() % s.sources.size()];
      one_query("bfs", g, src, opt, s.ref, cfg.trace && (jobs % 2 == 1), ops,
                log, &records);
    }
    client_rate[static_cast<std::size_t>(c)] =
        static_cast<double>(jobs) / ((now_ns() - start) * 1e-9);
  });

  const std::vector<query_record> recs = records.snapshot();
  const std::vector<query_record> plain = untraced(recs);
  workload_output out;
  metric_sink& m = out.metrics;
  const auto bfs = set_median_wall(m, plain, "bfs", "bfs_s");
  if (!cfg.trace) {
    double rate = 0.0;
    for (const double r : client_rate) rate += r;
    m.set("jobs_per_s", rate, "1/s", plain.size(),
          "sum over the 4 clients of jobs / own closed-loop span");
  } else if (!plain.empty()) {
    // Traced runs interleave traced jobs; the untraced ones alone give the
    // rate through their median latency across the four clients.
    m.set("jobs_per_s", kClients * mix_rate(plain), "1/s", plain.size(),
          "4 clients x untraced mix rate");
  }
  common_metrics(m, s, warmup_s, bfs);
  if (cfg.trace) {
    layer_metrics(m, recs, "graph");
    m.set("trace.overhead_frac", trace_overhead(recs), "fraction");
  }
  m.set("peak_rss_mb", peak_rss_mib(), "MiB");
  out.inputs_json = s.fingerprint;
  out.detail_json = kinds_json(recs);
  out.sample_every = kSampleEvery;
  return out;
}

}  // namespace agtbench
