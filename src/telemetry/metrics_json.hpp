// JSON serialization for telemetry artifacts, plus the bench-report
// document: a small schema shared by every bench binary and agt_tool so
// emitted JSON stays machine-readable for BENCH_*.json trajectory tracking.
//
// Schema (version 3, checked by report::verify, `agt_tool verify-json`,
// and tools/check_bench_json.py; version-1/2 documents remain valid):
//   {
//     "schema_version": 3,
//     "name": "<bench or subcommand name>",     non-empty string
//     "config": { ... },                        object of scalars
//     "sections": { "<name>": { ... }, ... },   object of objects
//     "rows": [ { ... }, ... ],                 optional array of objects
//     "jobs": [ { "job_id": n, ... }, ... ]     optional per-job sections
//   }
// Sections hold the machine-independent metrics (queue counters, algorithm
// work proxies, SEM cache/device telemetry, sampler series); rows hold the
// per-configuration lines of a bench table; jobs hold one object per
// service-submitted job (its job_stats). Version 2 additionally
// derives p50/p95/p99 for every serialized log2 histogram — verifiers
// enforce p50 <= p95 <= p99 (>= min, <= max where recorded) on any object
// carrying the triple. Version 3 adds the robustness fields: each jobs[]
// entry carries its terminal `outcome` ("completed" / "failed" /
// "cancelled" / "deadline_exceeded" / "stalled" / "shed" / "running") and
// `deadline_ms`, and a report may carry a "service" section with the
// engine's admission counters (submitted/admitted/rejected/shed/
// deadline_exceeded/... — tools/check_bench_json.py checks their
// conservation). See docs/observability.md and docs/robustness.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/io_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/sampler.hpp"

namespace asyncgt::telemetry {

/// Registry snapshot -> {"<metric>": value|histogram-object, ...}.
json_value to_json(const metrics_snapshot& snap);

/// I/O recorder -> {"ops": n, "bytes": n, "mean_latency_us": x, ...}.
json_value to_json(const io_snapshot& io);

/// Sampler series -> {"<probe>": {"t": [...], "v": [...]}, ...}.
json_value to_json(const std::vector<sampler::series>& series);

/// Builder for the schema-2 report document above.
class report {
 public:
  explicit report(std::string name);

  /// The version new documents are written at; verify() also accepts 1, 2.
  static constexpr int schema_version = 3;

  /// Adds one scalar to the "config" object.
  report& config(const std::string& key, json_value value);

  /// Finds-or-creates a section object; returned reference is valid until
  /// the next section() call (it points into the document).
  json_value& section(const std::string& name);

  /// Appends a row object to "rows".
  report& add_row(json_value row);

  /// Appends a per-job object to the top-level "jobs" array. The object
  /// must carry an integer "job_id" (verify() enforces it).
  report& add_job(json_value job);

  const json_value& doc() const noexcept { return doc_; }
  json_value& doc() noexcept { return doc_; }

  std::string dump(int indent = 1) const { return doc_.dump(indent); }

  /// Writes the document to `path`. Throws std::runtime_error on failure.
  void write_file(const std::string& path) const;

  /// Schema check. On failure returns false and, when `error` is non-null,
  /// stores a human-readable reason.
  static bool verify(const json_value& doc, std::string* error = nullptr);

  /// Parses `text` and verifies; convenience for files read back from disk.
  static bool verify_text(const std::string& text,
                          std::string* error = nullptr);

 private:
  json_value doc_;
};

}  // namespace asyncgt::telemetry
