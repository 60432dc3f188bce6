// Shared plumbing of the AsyncGT benchmark runner (agt_perfbench).
//
// The runner runs one workload per process against the library's public
// API and measures it from outside: steady-clock spans around each public
// call, the public counters (job_stats, queue_run_stats, block_cache,
// ssd_model, io_backend, delta_overlay), and the timed_graph adaptor
// around adjacency calls in the traced pass. Nothing here reaches into
// src/ internals.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "agtbench/sample_stats.hpp"
#include "agtbench/span_log.hpp"
#include "agtbench/timed_graph.hpp"
#include "service/job_stats.hpp"

namespace agtbench {

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input_dir;  ///< generated inputs (graph.agt, stream.bin)
  std::string out_path;   ///< full results JSON
  std::string spans_path; ///< traced pass: span dump
  std::string git_sha = "unknown";
};

/// Every metric the run produced, in insertion order, with its unit and
/// the number of raw samples behind it (0 = a single derived value).
class metric_sink {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, const std::string& note = "");
  bool has(const std::string& name) const;
  /// Prints one human-readable line per metric.
  void print(const char* heading) const;
  /// {"name": {"value": v, "unit": u, "samples": n, "note": s}, ...}
  std::string to_json() const;

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<entry> entries_;
};

/// Operations attempted/failed over the run. A failure is an exception, a
/// wrong label, or a refused job.
struct op_tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> attribution_violations{0};
  std::mutex mu;
  std::vector<std::string> failures;  ///< first few messages, for the log

  void fail(const std::string& what);
};

/// One timed operation as the client saw it, plus the counters of the job
/// behind it. Trace-only fields stay zero on untraced operations.
struct query_record {
  std::string kind;
  bool traced = false;
  bool is_job = true;       ///< engine job (false: hybrid_bfs, a plain call)
  std::size_t width = 0;
  double wall_s = 0.0;      ///< submit start -> labels in hand
  double submit_s = 0.0;    ///< inside submit_*
  double queue_wait_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;     ///< job_stats total (submit -> finish)
  std::uint64_t graph_edges = 0;
  std::uint64_t visits = 0;
  std::uint64_t pushes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t max_queue_length = 0;
  std::uint64_t wasted_visits = 0;
  std::uint64_t io_retries = 0;
  double imbalance_cv = 0.0;
  // Traced pass only.
  adjacency_totals out;  ///< out-edge calls (callback = push path)
  adjacency_totals in;   ///< in-edge calls (callback = bottom-up scan)
  double lane_busy_s = 0.0;
  double fetch_self_s = 0.0;
  double push_s = 0.0;
  double engine_other_s = 0.0;
  std::uint64_t hybrid_inspections = 0;
  std::uint64_t hybrid_switches = 0;
  // SEM deltas over the query (one query in flight at a time).
  bool sem = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t device_reads = 0;
  std::uint64_t device_read_bytes = 0;
  std::uint64_t device_read_blocks = 0;
  std::uint64_t device_max_inflight = 0;
  std::uint64_t io_syscalls = 0;
  std::uint64_t io_bytes = 0;
};

/// Thread-safe list of records.
class record_list {
 public:
  void add(query_record r) {
    std::lock_guard lk(mu_);
    records_.push_back(std::move(r));
  }
  std::vector<query_record> snapshot() const {
    std::lock_guard lk(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<query_record> records_;
};

/// Queue counters from a result's queue_run_stats / traversal_work.
template <typename Result>
void fill_queue(query_record& rec, const Result& res) {
  rec.visits = res.stats.visits;
  rec.pushes = res.stats.pushes;
  rec.flushes = res.stats.flushes;
  rec.wakeups = res.stats.wakeups;
  rec.max_queue_length = res.stats.max_queue_length;
  rec.imbalance_cv = res.stats.load_imbalance_cv();
  rec.wasted_visits = res.work().wasted_visits;
}

/// Client-side timestamps of one query (steady-clock ns): submit start,
/// submit returned, labels in hand.
struct query_times {
  std::int64_t submit = 0;
  std::int64_t submitted = 0;
  std::int64_t done = 0;
};

/// Submits a job through `submit()`, waits for its result, and fills `rec`
/// with the client's wall times and the job's counters.
template <typename Submit>
auto run_job(query_record& rec, query_times& t, Submit&& submit) {
  t.submit = now_ns();
  auto job = submit();
  t.submitted = now_ns();
  auto res = job.get();
  t.done = now_ns();
  const asyncgt::service::job_stats st = job.stats();
  rec.queue_wait_s = st.queue_wait_seconds;
  rec.run_s = st.run_seconds;
  rec.total_s = st.total_seconds;
  rec.io_retries = st.io_retries;
  fill_queue(rec, res);
  rec.wall_s = (t.done - t.submit) * 1e-9;
  rec.submit_s = (t.submitted - t.submit) * 1e-9;
  return res;
}

/// Traced pass: folds the adjacency meters (nullable) into `rec`, records
/// the query's spans under `parent` in `group` (a fresh group when 0), and
/// derives its attribution. Interval spans: query > {submit, get > run}.
/// Lane-sum spans: lanes > adjacency > {push, scan}, whose self times are
/// engine-other, fetch self, push and scan. A query whose measured
/// adjacency time exceeds its lane busy time counts as an attribution
/// violation in `ops`.
void trace_query(span_log& log, op_tally& ops, query_record& rec,
                 const query_times& t, const adjacency_meter* out,
                 const adjacency_meter* in, std::uint64_t parent = 0,
                 std::uint64_t group = 0);

/// Per-layer metrics computed from the traced records.
void layer_metrics(metric_sink& m, const std::vector<query_record>& recs,
                   const char* fetch_layer);

/// Sets `name` to the median wall time of the records of `kind` and
/// returns it (nullopt, and no metric, when there are none).
std::optional<double> set_median_wall(metric_sink& m,
                                      const std::vector<query_record>& recs,
                                      const std::string& kind,
                                      const std::string& name);

/// The untraced records: the end-to-end view.
std::vector<query_record> untraced(const std::vector<query_record>& recs);

/// Queries per second at the workload's own mix, robust to outliers:
/// n / sum over kinds of (count x median wall).
double mix_rate(const std::vector<query_record>& recs);

/// trace.overhead_frac: per kind, traced median / untraced median - 1; the
/// median over kinds present in both passes.
double trace_overhead(const std::vector<query_record>& recs);

/// Starts the process-default engine's pool at `workers` threads (every
/// job of the benchmark runs there); returns the seconds it took.
double start_engine(std::size_t workers = 4);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Host fingerprint as a JSON object.
std::string host_json(const run_config& cfg);

/// `k` distinct vertices of the largest component, drawn from `rng`.
std::vector<std::uint32_t> giant_sources(
    const std::vector<std::uint32_t>& component, std::size_t k,
    std::mt19937_64& rng);

/// Wall seconds `f()` takes.
template <typename F>
double seconds_of(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return (now_ns() - t0) * 1e-9;
}

/// Closed-loop clients issue their next operation only while this holds.
inline bool before(std::int64_t deadline_ns) { return now_ns() < deadline_ns; }

/// Everything a workload returns to main.
struct workload_output {
  metric_sink metrics;
  std::string inputs_json = "{}";  ///< n, m, checksums
  std::string detail_json = "{}";  ///< per-kind breakdown
  std::uint32_t sample_every = 0;  ///< adjacency timing: 1 call in N
};

workload_output run_im_query(const run_config& cfg, op_tally& ops,
                             span_log& log);
workload_output run_im_jobs(const run_config& cfg, op_tally& ops,
                            span_log& log);
workload_output run_sem_query(const run_config& cfg, op_tally& ops,
                              span_log& log);
workload_output run_dyn_refresh(const run_config& cfg, op_tally& ops,
                                span_log& log);

/// The per-layer metric names and units every traced run reports; layers a
/// workload does not exercise report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// Per-kind summary (count, median wall) as JSON, for the results file.
std::string kinds_json(const std::vector<query_record>& recs);

}  // namespace agtbench
