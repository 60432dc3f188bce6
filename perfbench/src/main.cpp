// agt_perfbench — the AsyncGT benchmark runner.
//
//   agt_perfbench gen --workload W --seed N --inputs-root DIR
//       generates (or finds cached) the seeded inputs of W.
//   agt_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --inputs-root DIR --results-dir DIR [--git-sha SHA]
//       runs W for S seconds and prints one line per metric, then, as the
//       last line, {"correct", "attempted", "failed", "metrics"} with every
//       metric the run produced. --trace 1 is the traced pass: it also
//       reports the per-layer metrics and writes the spans.
//
// Workloads: im-query, im-jobs, sem-query, dyn-refresh (see README.md).
// perfbench/run.py builds this binary and is the entry point to use.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"

namespace {

using namespace agtbench;

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + k);
    a[k.substr(2)] = argv[i + 1];
  }
  return a;
}

std::string need(const std::map<std::string, std::string>& a,
                 const std::string& k) {
  const auto it = a.find(k);
  if (it == a.end()) throw std::invalid_argument("missing --" + k);
  return it->second;
}

int run(const std::map<std::string, std::string>& a) {
  run_config cfg;
  cfg.workload = need(a, "workload");
  cfg.seed = std::stoull(need(a, "seed"));
  cfg.seconds = std::stod(need(a, "seconds"));
  cfg.trace = need(a, "trace") == "1";
  if (a.count("git-sha")) cfg.git_sha = a.at("git-sha");
  cfg.input_dir = input_dir(need(a, "inputs-root"), cfg.workload, cfg.seed);
  if (!std::filesystem::exists(cfg.input_dir + "/ready")) {
    throw std::runtime_error("inputs not generated: " + cfg.input_dir);
  }
  const std::string results = need(a, "results-dir");
  std::filesystem::create_directories(results);
  const std::string stem = results + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  cfg.out_path = stem + ".json";
  cfg.spans_path = stem + ".spans.json";

  op_tally ops;
  span_log log;
  workload_output out;
  if (cfg.workload == "im-query") {
    out = run_im_query(cfg, ops, log);
  } else if (cfg.workload == "im-jobs") {
    out = run_im_jobs(cfg, ops, log);
  } else if (cfg.workload == "sem-query") {
    out = run_sem_query(cfg, ops, log);
  } else if (cfg.workload == "dyn-refresh") {
    out = run_dyn_refresh(cfg, ops, log);
  } else {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  metric_sink& m = out.metrics;
  const std::uint64_t attempted = ops.attempted.load();
  const std::uint64_t failed = ops.failed.load();
  const std::uint64_t violations = ops.attribution_violations.load();
  m.set("error_rate",
        attempted == 0 ? 1.0
                       : static_cast<double>(failed) /
                             static_cast<double>(attempted),
        "fraction", attempted, "failed / attempted");
  if (cfg.trace) {
    for (const auto& [name, unit] : layer_metric_names()) {
      if (!m.has(name)) m.set(name, 0.0, unit, 0, "layer not exercised");
    }
    log.write_json(cfg.spans_path);
  }
  const bool correct = attempted > 0 && failed == 0 && violations == 0;

  std::printf("# AsyncGT benchmark workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# host %s\n# inputs %s\n", host_json(cfg).c_str(),
              out.inputs_json.c_str());
  std::printf("# kinds %s\n", out.detail_json.c_str());
  if (cfg.trace) {
    std::printf("# adjacency timing sampled on 1 call in %u\n",
                out.sample_every);
  }
  m.print(cfg.trace ? "metrics (traced pass)" : "metrics (untraced pass)");
  std::printf("# attempted=%llu failed=%llu attribution_violations=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(violations));
  for (const std::string& f : ops.failures) {
    std::printf("# FAIL %s\n", f.c_str());
  }

  const std::string metrics = m.to_json();
  std::ofstream(cfg.out_path)
      << "{\"host\":" << host_json(cfg) << ",\"inputs\":" << out.inputs_json
      << ",\"adjacency_sample_every\":" << out.sample_every
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"attribution_violations\":" << violations
      << ",\"kinds\":" << out.detail_json << ",\"metrics\":" << metrics
      << "}\n";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: agt_perfbench gen|run --flag value ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const auto a = parse(argc, argv);
    if (cmd == "gen") {
      std::printf("%s\n",
                  ensure_inputs(need(a, "inputs-root"), need(a, "workload"),
                                std::stoull(need(a, "seed")))
                      .c_str());
      return 0;
    }
    if (cmd == "run") return run(a);
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agt_perfbench: %s\n", e.what());
    return 2;
  }
}
