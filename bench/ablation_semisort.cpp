// Ablation: semi-sorted SEM access (paper §IV-C).
//
// "the prioritized visitor queues have an additional secondary sorting
// parameter, the vertex identifier. This increases access locality to the
// storage devices by semi-sorting access ... the vertices in level 1 will
// be visited in a semi-sorted order to increase locality."
//
// With the page-cache simulation attached, locality is measurable: adjacent
// vertex ids share 4 KiB blocks of the on-disk CSR, so semi-sorted visits
// raise the cache hit rate and cut device reads. This harness runs SEM BFS
// with the secondary sort on and off under a deliberately small cache.
//
//   ./ablation_semisort [--scale=13] [--threads=64] [--cache-fraction=0.05]
#include <filesystem>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "graph/graph_io.hpp"
#include "sem/block_cache.hpp"
#include "sem/device_presets.hpp"
#include "sem/sem_csr.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 13));
  const auto threads = static_cast<std::size_t>(opt.get_int("threads", 64));
  const double cache_fraction = opt.get_double("cache-fraction", 0.05);
  const double time_scale = opt.get_double("time-scale", 1.0);

  banner("SEM semi-sort locality ablation", "paper section IV-C");

  bench_report rep(opt, "ablation_semisort");

  // Unscrambled ids: RMAT locality in id space, which is what the on-disk
  // CSR layout (and the paper's web crawls, crawled host-by-host) look like.
  rmat_params p = rmat_a(scale);
  p.scramble_ids = false;
  const csr32 g = rmat_graph<vertex32>(p);
  const auto tmp =
      std::filesystem::temp_directory_path() / "asyncgt_semisort.agt";
  write_graph(tmp.string(), g);
  const std::uint64_t file_blocks =
      std::filesystem::file_size(tmp) / 4096 + 1;
  const auto cache_blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cache_fraction *
                                    static_cast<double>(file_blocks)));

  text_table table;
  table.header({"secondary sort", "time (s)", "device reads", "cache hit",
                "blocks read"});

  std::uint64_t device_reads[2] = {0, 0};
  double hit_rate[2] = {0, 0};
  for (const bool semisort : {false, true}) {
    sem::ssd_model dev(sem::intel_params(time_scale));
    sem::block_cache cache(cache_blocks);
    sem::sem_csr32 sg(tmp.string(), &dev, &cache);
    traversal_options cfg;
    cfg.queue.num_threads = threads;
    cfg.queue.secondary_vertex_sort = semisort;
    bfs_result<vertex32> r;
    const double secs =
        time_seconds([&] { r = async_bfs(sg, vertex32{0}, cfg); });
    device_reads[semisort ? 1 : 0] = dev.counters().reads;
    hit_rate[semisort ? 1 : 0] = cache.counters().hit_rate();
    table.row({semisort ? "on (paper SEM config)" : "off",
               fmt_seconds(secs), fmt_count(dev.counters().reads),
               fmt_ratio(cache.counters().hit_rate()),
               fmt_count(dev.counters().read_blocks)});
  }
  std::printf("%s\n", table.render().c_str());

  const bool ok = shape_check(
      hit_rate[1] >= hit_rate[0] * 0.98,
      "semi-sorted access achieves at least the unsorted cache hit rate "
      "(paper: semi-sorting 'increases access locality')");
  shape_check(device_reads[1] <= device_reads[0],
              "semi-sorted access issues no more device reads (advisory)");
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}