// Extension: pluggable SEM I/O backend sweep (docs/io_backends.md).
//
// The paper's SEM result comes from thread oversubscription turning blocking
// preads into device concurrency; the io_backend layer adds the complementary
// lever — batching — and this harness measures what it buys. It sweeps
// backend x threads x batch depth over the same semi-external BFS, reporting
// wall time, syscall batches, and bytes-per-syscall, and asserts the two
// claims the layer is built on:
//
//   1. identity: every backend produces bit-identical BFS labels — batching
//      is a transport optimization, never a semantic one;
//   2. coalescing: at equal thread count, the coalescing backend issues at
//      least 4x fewer syscalls than sync (the semi-sorted visit order makes
//      consecutive adjacency reads adjacent on disk, so the readahead
//      window converts them into memcpys).
//
// The uring backend joins the sweep automatically when compiled in
// (-DASYNCGT_WITH_URING) and the host allows io_uring_setup.
//
//   ./ext_io_backends [--scale=15] [--threads=16,64] [--batches=4,16,64]
//                     [--time-scale=0.05] [--cache-fraction=0.5] [--json F]
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "graph/graph_io.hpp"
#include "sem/block_cache.hpp"
#include "sem/device_presets.hpp"
#include "sem/io_backend.hpp"
#include "sem/sem_config.hpp"
#include "sem/sem_csr.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;
using telemetry::json_value;

namespace {

struct run_result {
  double seconds = 0.0;
  sem::io_backend_counters io;
  bool labels_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 15));
  const auto thread_list = opt.get_int_list("threads", {16, 64});
  // Depth must grow with thread count: the semi-sorted request stream is
  // divided across lanes, so each lane sees a larger stride and needs a
  // deeper readahead window to keep coalescing.
  const auto batch_list = opt.get_int_list("batches", {4, 16, 64});
  const double time_scale = opt.get_double("time-scale", 0.05);
  const double cache_fraction = opt.get_double("cache-fraction", 0.5);
  // Not from_flags: --threads here is a sweep list, not a single count. SEM
  // queue defaults replicated by hand (per-push delivery + secondary vertex
  // sort; see traversal_options.hpp).
  traversal_options topt;
  topt.queue.flush_batch = 1;
  topt.queue.secondary_vertex_sort = true;

  banner("Semi-External I/O Backend Sweep",
         "extension over paper §IV-C (docs/io_backends.md)");
  bench_report rep(opt, "ext_io_backends");

  const csr32 g = rmat_graph<vertex32>(rmat_a(scale, 42));
  vertex32 start = 0;
  for (vertex32 v = 1; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(start)) start = v;
  }
  const auto tmp =
      std::filesystem::temp_directory_path() / "asyncgt_ext_io_backends";
  std::filesystem::create_directories(tmp);
  const std::string path = (tmp / "graph.agt").string();
  write_graph(path, g);

  const bfs_result<vertex32> reference = serial_bfs(g, start);
  const auto params = sem::device_preset_by_name("intel", time_scale);
  const std::uint64_t file_blocks =
      std::filesystem::file_size(path) / params.block_bytes + 1;
  const std::uint64_t cache_blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cache_fraction *
                                    static_cast<double>(file_blocks)));

  const auto run_one = [&](sem::io_backend_kind kind, std::size_t threads,
                           std::uint32_t batch) {
    sem::ssd_model dev(params);
    // Builder per run: the sweep's only variables are the backend and its
    // batch depth, everything else (cache size, device) is held constant.
    auto bundle = sem::sem_config(path)
                      .with_device(&dev)
                      .with_cache_blocks(cache_blocks)
                      .with_io_backend(sem::to_string(kind), batch)
                      .open<vertex32>();
    traversal_options cfg = topt;
    cfg.queue.num_threads = threads;
    run_result r;
    bfs_result<vertex32> out;
    r.seconds =
        time_seconds([&] { out = async_bfs(*bundle.graph, start, cfg); });
    r.io = bundle.graph->backend().counters();
    r.labels_ok = out.level == reference.level;
    return r;
  };

  std::vector<sem::io_backend_kind> kinds;
  for (const auto kind : sem::compiled_io_backends()) {
    if (sem::io_backend_available(kind)) {
      kinds.push_back(kind);
    } else {
      std::printf("note: backend '%s' is compiled in but unavailable on "
                  "this host; skipping\n",
                  sem::to_string(kind));
    }
  }

  text_table table;
  table.header({"backend", "threads", "batch", "time (s)", "requests",
                "syscalls", "coalesced", "bytes/syscall", "peak inflight",
                "labels"});

  bool ok = true;
  json_value sweep = json_value::array();
  // sync syscall count per thread count — the coalescing ratio baseline.
  std::map<std::size_t, double> sync_batches;
  std::map<std::size_t, double> best_ratio;

  for (const auto t : thread_list) {
    const auto threads = static_cast<std::size_t>(t);
    for (const auto kind : kinds) {
      // Batch depth only matters to the batching backends; sync runs once.
      const std::vector<std::int64_t> batches =
          kind == sem::io_backend_kind::sync ? std::vector<std::int64_t>{1}
                                             : batch_list;
      for (const auto b : batches) {
        const auto batch = static_cast<std::uint32_t>(b);
        const run_result r = run_one(kind, threads, batch);
        ok &= shape_check(r.labels_ok,
                          std::string(sem::to_string(kind)) + " t=" +
                              std::to_string(threads) + " b=" +
                              std::to_string(batch) +
                              ": labels identical to serial BFS");
        if (kind == sem::io_backend_kind::sync) {
          sync_batches[threads] = static_cast<double>(r.io.batches);
        } else if (sync_batches.count(threads) != 0 && r.io.batches > 0) {
          const double ratio =
              sync_batches[threads] / static_cast<double>(r.io.batches);
          auto [it, inserted] = best_ratio.try_emplace(threads, ratio);
          if (!inserted) it->second = std::max(it->second, ratio);
        }
        table.row({sem::to_string(kind), std::to_string(threads),
                   kind == sem::io_backend_kind::sync ? "-"
                                                      : std::to_string(batch),
                   fmt_seconds(r.seconds), fmt_count(r.io.requests),
                   fmt_count(r.io.batches), fmt_count(r.io.coalesced_ranges),
                   fmt_count(static_cast<std::uint64_t>(r.io.bytes_per_batch())),
                   fmt_count(r.io.inflight_peak),
                   r.labels_ok ? "ok" : "DIFF"});
        if (rep.json_enabled()) {
          json_value row = json_value::object();
          row.set("backend", sem::to_string(kind));
          row.set("threads", static_cast<std::uint64_t>(threads));
          row.set("batch", static_cast<std::uint64_t>(batch));
          row.set("seconds", r.seconds);
          row.set("requests", r.io.requests);
          row.set("syscall_batches", r.io.batches);
          row.set("bytes_issued", r.io.bytes_issued);
          row.set("coalesced_ranges", r.io.coalesced_ranges);
          row.set("split_batches", r.io.split_batches);
          row.set("inflight_peak", r.io.inflight_peak);
          row.set("bytes_per_syscall", r.io.bytes_per_batch());
          row.set("labels_ok", r.labels_ok);
          sweep.push(std::move(row));
        }
      }
    }
    table.rule();
  }

  std::printf("%s\n", table.render().c_str());

  for (const auto t : thread_list) {
    const auto threads = static_cast<std::size_t>(t);
    const auto it = best_ratio.find(threads);
    const double ratio = it == best_ratio.end() ? 0.0 : it->second;
    ok &= shape_check(
        ratio >= 4.0,
        "coalescing issues >=4x fewer syscalls than sync at " +
            std::to_string(threads) + " threads (got " +
            std::to_string(ratio) + "x)");
  }

  rep.add_table(table);
  if (rep.json_enabled()) {
    json_value& s = rep.section("io_backends");
    s.set("device", params.name);
    s.set("time_scale", time_scale);
    s.set("scale", static_cast<std::uint64_t>(scale));
    s.set("sweep", std::move(sweep));
    rep.section("result").set("ok", ok);
  }
  rep.finish();
  return ok ? 0 : 1;
}
