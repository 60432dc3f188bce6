// Example: checkpoint / resume of a semi-external traversal.
//
// Long-running SEM jobs (the paper's biggest rows run for hours) should
// survive crashes. This example runs an SSSP over on-disk storage, saves a
// checkpoint "mid-flight" (simulated by snapshotting a partially erased
// label array), kills the fictional job, reloads the CRC-verified snapshot,
// resumes, and proves the resumed result equals an uninterrupted run.
//
//   ./checkpoint_resume [--scale=12] [--threads=32]
#include <cstdio>
#include <filesystem>
#include <random>

#include "asyncgt.hpp"
#include "baselines/serial_sssp.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace asyncgt;
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 12));

  traversal_options cfg;
  cfg.queue.num_threads = static_cast<std::size_t>(opt.get_int("threads", 32));
  cfg.queue.secondary_vertex_sort = true;

  // On-disk weighted graph, traversed semi-externally.
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(scale)), weight_scheme::uniform,
                  3);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string graph_path = (dir / "ckpt_example.agt").string();
  const std::string ckpt_path = (dir / "ckpt_example.ckpt").string();
  write_graph(graph_path, g);
  sem::ssd_model dev(sem::fusionio_params(/*time_scale=*/0.05));
  sem::sem_csr32 sg(graph_path, &dev);

  // 1. The uninterrupted reference run.
  const auto full = async_sssp(sg, vertex32{0}, cfg);
  std::printf("full run: reached %llu vertices in %.3fs\n",
              static_cast<unsigned long long>(full.visited_count()),
              full.stats.elapsed_seconds);

  // 2. Simulate a crash mid-run: snapshot with ~60%% of the labels lost.
  traversal_checkpoint<vertex32> snap;
  snap.kind = checkpoint_kind::sssp;
  snap.label = full.dist;
  snap.parent = full.parent;
  std::mt19937 rng(7);
  std::uint64_t kept = 0;
  for (std::size_t v = 1; v < snap.label.size(); ++v) {
    if (rng() % 5 < 3) {
      snap.label[v] = infinite_distance<dist_t>;
      snap.parent[v] = invalid_vertex<vertex32>;
    } else if (snap.label[v] != infinite_distance<dist_t>) {
      ++kept;
    }
  }
  save_checkpoint(ckpt_path, snap);
  std::printf("checkpoint: kept %llu finished labels, %llu bytes, CRC "
              "protected\n",
              static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(ckpt_path)));

  // 3. "Restart": load, verify, resume on fresh storage handles.
  const auto loaded =
      load_checkpoint<vertex32>(ckpt_path, checkpoint_kind::sssp);
  sem::ssd_model dev2(sem::fusionio_params(/*time_scale=*/0.05));
  sem::sem_csr32 sg2(graph_path, &dev2);
  const auto resumed = resume_sssp(sg2, loaded, cfg);
  std::printf("resume: %.3fs, %llu corrections\n",
              resumed.stats.elapsed_seconds,
              static_cast<unsigned long long>(resumed.updates));

  const bool same = (resumed.dist == full.dist);
  std::printf("resumed result equals uninterrupted run: %s\n",
              same ? "yes" : "NO");

  std::filesystem::remove(graph_path);
  std::filesystem::remove(ckpt_path);
  return same ? 0 : 1;
}
