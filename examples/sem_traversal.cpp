// Example: semi-external traversal of an on-disk graph over simulated flash.
//
// The end-to-end SEM workflow of the paper: build a graph, write it to disk
// in the .agt CSR format, reopen it semi-externally (only the O(V) offset
// index in RAM), and run BFS with heavy thread oversubscription on each of
// the three simulated SSD configurations. Shows how oversubscription turns
// per-read latency into aggregate IOPS.
//
//   ./sem_traversal [--scale=12] [--threads=256] [--time-scale=1.0]
//                   [--device=all] [--keep-file]
#include <cstdio>
#include <filesystem>

#include "asyncgt.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 12));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 256));
  const double time_scale = opt.get_double("time-scale", 1.0);
  const std::string device_arg = opt.get_string("device", "all");

  // 1. Build and persist the graph.
  const csr32 g = rmat_graph<vertex32>(rmat_a(scale));
  const auto path =
      std::filesystem::temp_directory_path() / "asyncgt_example.agt";
  write_graph(path.string(), g);
  std::printf("wrote %llu-vertex graph to %s (%llu MiB on device)\n",
              static_cast<unsigned long long>(g.num_vertices()),
              path.c_str(),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(path) >> 20));

  // 2. Traverse semi-externally on each device model.
  text_table table;
  table.header({"device", "threads", "BFS time (s)", "device reads",
                "achieved IOPS", "reached"});
  bool all_ok = true;
  for (const auto& params : sem::all_device_presets(time_scale)) {
    if (device_arg != "all" && device_arg != params.name) continue;
    sem::ssd_model dev(params);
    sem::sem_csr32 sg(path.string(), &dev);
    std::printf("semi-external: %llu KiB resident (offset index) vs %llu "
                "KiB on %s\n",
                static_cast<unsigned long long>(sg.memory_bytes() >> 10),
                static_cast<unsigned long long>(sg.device_bytes() >> 10),
                params.name.c_str());

    traversal_options cfg;
    cfg.queue.num_threads = threads;
    cfg.queue.secondary_vertex_sort = true;  // SEM locality (paper IV-C)
    const auto r = async_bfs(sg, vertex32{0}, cfg);
    const auto reads = dev.counters().reads;
    table.row({params.name, std::to_string(threads),
               fmt_seconds(r.stats.elapsed_seconds), fmt_count(reads),
               fmt_count(static_cast<std::uint64_t>(
                   static_cast<double>(reads) /
                   std::max(r.stats.elapsed_seconds, 1e-9))),
               fmt_count(r.visited_count())});

    all_ok &= validate_distances(sg, vertex32{0}, r.level, true).ok;
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("validation: %s\n", all_ok ? "ok" : "FAILED");

  if (!opt.get_bool("keep-file", false)) std::filesystem::remove(path);
  return all_ok ? 0 : 1;
}
