#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/engine.hpp"

#ifndef AGTBENCH_BUILD_TYPE
#define AGTBENCH_BUILD_TYPE "unknown"
#endif

namespace agtbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Pick>
double mean_of(const std::vector<const query_record*>& rs, Pick pick) {
  if (rs.empty()) return 0.0;
  double s = 0.0;
  for (const query_record* r : rs) s += static_cast<double>(pick(*r));
  return s / static_cast<double>(rs.size());
}

template <typename PickNum, typename PickDen>
double ratio_of(const std::vector<const query_record*>& rs, PickNum n,
                PickDen d) {
  double a = 0.0;
  double b = 0.0;
  for (const query_record* r : rs) {
    a += static_cast<double>(n(*r));
    b += static_cast<double>(d(*r));
  }
  return b == 0.0 ? 0.0 : a / b;
}

}  // namespace

void metric_sink::set(const std::string& name, double value,
                      const std::string& unit, std::size_t samples,
                      const std::string& note) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  for (entry& e : entries_) {
    if (e.name == name) {
      e = {name, value, unit, samples, note};
      return;
    }
  }
  entries_.push_back({name, value, unit, samples, note});
}

bool metric_sink::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const entry& e) { return e.name == name; });
}

void metric_sink::print(const char* heading) const {
  std::printf("# %s\n", heading);
  for (const entry& e : entries_) {
    std::printf("  %-34s %14.6g %-9s", e.name.c_str(), e.value,
                e.unit.c_str());
    if (e.samples > 0) std::printf(" n=%zu", e.samples);
    if (!e.note.empty()) std::printf("  (%s)", e.note.c_str());
    std::printf("\n");
  }
}

std::string metric_sink::to_json() const {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const entry& e = entries_[i];
    o << (i ? "," : "") << "\"" << e.name << "\":{\"value\":" << num(e.value)
      << ",\"unit\":\"" << e.unit << "\",\"samples\":" << e.samples
      << ",\"note\":\"" << json_escape(e.note) << "\"}";
  }
  o << "}";
  return o.str();
}

void op_tally::fail(const std::string& what) {
  failed.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lk(mu);
  if (failures.size() < 8) failures.push_back(what);
}

void trace_query(span_log& log, op_tally& ops, query_record& rec,
                 const query_times& t, const adjacency_meter* out,
                 const adjacency_meter* in, std::uint64_t parent,
                 std::uint64_t group) {
  rec.traced = true;
  if (out != nullptr) rec.out = out->totals();
  if (in != nullptr) rec.in = in->totals();
  // A hybrid_bfs call is not a job: its lanes are busy for its whole wall.
  rec.lane_busy_s =
      (rec.is_job ? rec.run_s : rec.wall_s) * static_cast<double>(rec.width);
  const std::uint64_t g = group != 0 ? group : log.new_group();
  const std::uint64_t q =
      log.add("query:" + rec.kind, parent, g, t.submit, t.done);
  if (rec.is_job) {
    log.add("submit", q, g, t.submit, t.submitted);
    const std::uint64_t get = log.add("get", q, g, t.submitted, t.done);
    const auto run_ns = static_cast<std::int64_t>(rec.run_s * 1e9);
    log.add("run", get, g, std::max(t.submitted, t.done - run_ns), t.done);
  } else {
    log.add("call", q, g, t.submit, t.done);
  }
  const std::uint64_t lanes = log.add_sum("lanes", q, g, rec.lane_busy_s);
  const std::uint64_t adj =
      log.add_sum("adjacency", lanes, g, rec.out.call_s + rec.in.call_s);
  const std::uint64_t push = log.add_sum("push", adj, g, rec.out.callback_s);
  const std::uint64_t scan = log.add_sum("scan", adj, g, rec.in.callback_s);
  rec.fetch_self_s = log.self_seconds(adj);
  rec.push_s = log.self_seconds(push);
  // Engine-other is everything on the lanes the adaptor did not attribute:
  // pop, delivery, parking, termination, and the bottom-up scan callbacks.
  rec.engine_other_s = log.self_seconds(lanes) + log.self_seconds(scan);
  if (rec.out.call_s + rec.in.call_s > rec.lane_busy_s) {
    ops.attribution_violations.fetch_add(1);
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"service.submit_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.run_s", "s"},
      {"service.overhead_ms", "ms"},
      {"queue.visits_per_edge", "ratio"},
      {"queue.wasted_visit_frac", "fraction"},
      {"queue.pushes_per_flush", "ratio"},
      {"queue.wakeups", "count"},
      {"queue.max_queue_length", "count"},
      {"queue.imbalance_cv", "ratio"},
      {"queue.lane_busy_s", "s"},
      {"core.push_s", "s"},
      {"core.engine_other_s", "s"},
      {"core.hybrid.edge_inspections", "count"},
      {"core.hybrid.switches", "count"},
      {"graph.load_s", "s"},
      {"graph.reverse_s", "s"},
      {"graph.fetch_self_s", "s"},
      {"graph.edges_per_fetch", "ratio"},
      {"sem.open_s", "s"},
      {"sem.fetch_self_s", "s"},
      {"sem.cache_hit_rate", "fraction"},
      {"sem.cache_misses", "count"},
      {"sem.evictions", "count"},
      {"sem.device_reads", "count"},
      {"sem.device_bytes_per_visit", "B"},
      {"sem.device_max_inflight", "count"},
      {"sem.device_busy_s", "s"},
      {"sem.io_syscalls", "count"},
      {"sem.io_bytes_per_syscall", "B"},
      {"sem.io_retries", "count"},
      {"overlay.apply_ms", "ms"},
      {"overlay.snapshot_us", "us"},
      {"overlay.patched_pairs", "count"},
      {"overlay.bytes", "B"},
      {"overlay.compact_s", "s"},
      {"overlay.read_tax_frac", "fraction"},
      {"incremental.bfs_repair_ms", "ms"},
      {"incremental.sssp_repair_ms", "ms"},
      {"incremental.cc_repair_ms", "ms"},
      {"incremental.bfs_visit_ratio", "ratio"},
      {"incremental.sssp_visit_ratio", "ratio"},
      {"incremental.cc_visit_ratio", "ratio"},
      {"incremental.affected", "count"},
      {"incremental.reseeded", "count"},
      {"baselines.serial_bfs_s", "s"},
      {"baselines.dijkstra_s", "s"},
      {"baselines.serial_cc_s", "s"},
      {"baselines.levelsync_bfs_s", "s"},
      {"baselines.bfs_vs_serial", "ratio"},
      {"trace.overhead_frac", "fraction"},
  };
  return names;
}

void layer_metrics(metric_sink& m, const std::vector<query_record>& recs,
                   const char* fetch_layer) {
  std::vector<const query_record*> traced;
  std::vector<const query_record*> jobs;
  std::vector<const query_record*> hybrid;
  std::vector<const query_record*> sem;
  for (const query_record& r : recs) {
    if (!r.traced) continue;
    traced.push_back(&r);
    if (r.is_job) jobs.push_back(&r);
    if (r.kind == "hybrid_bfs") hybrid.push_back(&r);
    if (r.sem) sem.push_back(&r);
  }
  const std::size_t n = traced.size();
  m.set("service.submit_ms",
        1e3 * mean_of(jobs, [](auto& r) { return r.submit_s; }), "ms",
        jobs.size(), "mean per job");
  m.set("service.queue_wait_ms",
        1e3 * mean_of(jobs, [](auto& r) { return r.queue_wait_s; }), "ms",
        jobs.size(), "mean per job, job_stats");
  m.set("service.run_s", mean_of(jobs, [](auto& r) { return r.run_s; }), "s",
        jobs.size(), "mean per job, job_stats");
  m.set("service.overhead_ms",
        1e3 * mean_of(jobs, [](auto& r) { return r.wall_s - r.total_s; }),
        "ms", jobs.size(), "client wall - job total, mean per job");
  m.set("queue.visits_per_edge",
        ratio_of(traced, [](auto& r) { return r.visits; },
                 [](auto& r) { return r.graph_edges; }),
        "ratio", n);
  m.set("queue.wasted_visit_frac",
        ratio_of(traced, [](auto& r) { return r.wasted_visits; },
                 [](auto& r) { return r.visits; }),
        "fraction", n);
  m.set("queue.pushes_per_flush",
        ratio_of(traced, [](auto& r) { return r.pushes; },
                 [](auto& r) { return r.flushes; }),
        "ratio", n);
  m.set("queue.wakeups", mean_of(traced, [](auto& r) { return r.wakeups; }),
        "count", n, "mean per query");
  m.set("queue.max_queue_length",
        mean_of(traced, [](auto& r) { return r.max_queue_length; }), "count",
        n, "mean per query");
  m.set("queue.imbalance_cv",
        mean_of(traced, [](auto& r) { return r.imbalance_cv; }), "ratio", n,
        "mean per query");
  m.set("queue.lane_busy_s",
        mean_of(traced, [](auto& r) { return r.lane_busy_s; }), "s", n,
        "run x width, mean per query");
  m.set("core.push_s", mean_of(traced, [](auto& r) { return r.push_s; }), "s",
        n, "sampled edge-callback time, mean per query");
  m.set("core.engine_other_s",
        mean_of(traced, [](auto& r) { return r.engine_other_s; }), "s", n,
        "lane busy - fetch self - push, mean per query");
  m.set("core.hybrid.edge_inspections",
        mean_of(hybrid, [](auto& r) { return r.hybrid_inspections; }),
        "count", hybrid.size(), "mean per hybrid_bfs");
  m.set("core.hybrid.switches",
        mean_of(hybrid, [](auto& r) { return r.hybrid_switches; }), "count",
        hybrid.size(), "mean per hybrid_bfs");
  const double fetch_self =
      mean_of(traced, [](auto& r) { return r.fetch_self_s; });
  m.set(std::string(fetch_layer) + ".fetch_self_s", fetch_self, "s", n,
        "adjacency call - callback, mean per query");
  m.set("graph.edges_per_fetch",
        ratio_of(traced, [](auto& r) { return r.out.edges + r.in.edges; },
                 [](auto& r) { return r.out.calls + r.in.calls; }),
        "ratio", n);
  if (sem.empty()) return;
  const std::size_t ns = sem.size();
  m.set("sem.cache_hit_rate",
        ratio_of(sem, [](auto& r) { return r.cache_hits; },
                 [](auto& r) { return r.cache_hits + r.cache_misses; }),
        "fraction", ns);
  m.set("sem.cache_misses",
        mean_of(sem, [](auto& r) { return r.cache_misses; }), "count", ns,
        "mean per query");
  m.set("sem.evictions",
        mean_of(sem, [](auto& r) { return r.cache_evictions; }), "count", ns,
        "mean per query");
  m.set("sem.device_reads",
        mean_of(sem, [](auto& r) { return r.device_reads; }), "count", ns,
        "mean per query");
  m.set("sem.device_bytes_per_visit",
        ratio_of(sem, [](auto& r) { return r.device_read_bytes; },
                 [](auto& r) { return r.visits; }),
        "B", ns);
  std::uint64_t inflight = 0;
  for (const query_record* r : sem) {
    inflight = std::max(inflight, r->device_max_inflight);
  }
  m.set("sem.device_max_inflight", static_cast<double>(inflight), "count",
        ns, "max over queries");
  m.set("sem.io_syscalls", mean_of(sem, [](auto& r) { return r.io_syscalls; }),
        "count", ns, "mean per query");
  m.set("sem.io_bytes_per_syscall",
        ratio_of(sem, [](auto& r) { return r.io_bytes; },
                 [](auto& r) { return r.io_syscalls; }),
        "B", ns);
  m.set("sem.io_retries", mean_of(sem, [](auto& r) { return r.io_retries; }),
        "count", ns, "mean per query");
}

std::optional<double> set_median_wall(metric_sink& m,
                                      const std::vector<query_record>& recs,
                                      const std::string& kind,
                                      const std::string& name) {
  std::vector<double> v;
  for (const query_record& r : recs) {
    if (r.kind == kind) v.push_back(r.wall_s);
  }
  if (v.empty()) return std::nullopt;
  const double med = median(v);
  m.set(name, med, "s", v.size(), "median");
  return med;
}

std::vector<query_record> untraced(const std::vector<query_record>& recs) {
  std::vector<query_record> out;
  for (const query_record& r : recs) {
    if (!r.traced) out.push_back(r);
  }
  return out;
}

double mix_rate(const std::vector<query_record>& recs) {
  std::set<std::string> kinds;
  for (const query_record& r : recs) kinds.insert(r.kind);
  double weighted = 0.0;
  for (const std::string& k : kinds) {
    std::vector<double> walls;
    for (const query_record& r : recs) {
      if (r.kind == k) walls.push_back(r.wall_s);
    }
    weighted += static_cast<double>(walls.size()) * median(walls);
  }
  return weighted > 0.0 ? static_cast<double>(recs.size()) / weighted : 0.0;
}

double trace_overhead(const std::vector<query_record>& recs) {
  std::set<std::string> kinds;
  for (const query_record& r : recs) kinds.insert(r.kind);
  std::vector<double> ratios;
  for (const std::string& k : kinds) {
    std::vector<double> on;
    std::vector<double> off;
    for (const query_record& r : recs) {
      if (r.kind == k) (r.traced ? on : off).push_back(r.wall_s);
    }
    if (on.empty() || off.empty()) continue;
    ratios.push_back(median(on) / median(off) - 1.0);
  }
  return ratios.empty() ? 0.0 : median(ratios);
}

double start_engine(std::size_t workers) {
  return seconds_of([&] {
    asyncgt::engine::process_default().pool().ensure_threads(workers);
  });
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string host_json(const run_config& cfg) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu\":\"" << json_escape(cpu) << "\",\"compiler\":\""
    << json_escape(__VERSION__) << "\",\"build_type\":\""
    << AGTBENCH_BUILD_TYPE << "\",\"git_sha\":\"" << json_escape(cfg.git_sha)
    << "\",\"workload\":\"" << cfg.workload
    << "\",\"seed\":" << cfg.seed << ",\"seconds\":" << num(cfg.seconds)
    << ",\"trace\":" << (cfg.trace ? 1 : 0) << "}";
  return o.str();
}

std::vector<std::uint32_t> giant_sources(
    const std::vector<std::uint32_t>& component, std::size_t k,
    std::mt19937_64& rng) {
  std::vector<std::uint64_t> size(component.size(), 0);
  for (const std::uint32_t c : component) ++size[c];
  const auto giant = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<std::uint32_t> members;
  for (std::size_t v = 0; v < component.size(); ++v) {
    if (component[v] == giant) members.push_back(static_cast<std::uint32_t>(v));
  }
  k = std::min(k, members.size());
  for (std::size_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, members.size() - 1);
    std::swap(members[i], members[pick(rng)]);
  }
  members.resize(k);
  return members;
}

std::string kinds_json(const std::vector<query_record>& recs) {
  std::set<std::string> kinds;
  for (const query_record& r : recs) kinds.insert(r.kind);
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const std::string& k : kinds) {
    for (const bool traced : {false, true}) {
      std::vector<double> walls;
      for (const query_record& r : recs) {
        if (r.kind == k && r.traced == traced) walls.push_back(r.wall_s);
      }
      if (walls.empty()) continue;
      o << (first ? "" : ",") << "\"" << k << (traced ? ".traced" : "")
        << "\":{\"count\":" << walls.size()
        << ",\"median_s\":" << num(median(walls))
        << ",\"min_s\":" << num(*std::min_element(walls.begin(), walls.end()))
        << ",\"max_s\":" << num(*std::max_element(walls.begin(), walls.end()))
        << "}";
      first = false;
    }
  }
  o << "}";
  return o.str();
}

}  // namespace agtbench
