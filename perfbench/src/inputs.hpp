// Seeded benchmark inputs: generated once per (input family, seed), cached
// on disk, and fingerprinted when loaded.
//
//   im   symmetrized RMAT-A, scale 19, UW weights      (im-query, im-jobs)
//   sem  symmetrized RMAT-A, scale 18, unweighted .agt (sem-query)
//   dyn  symmetrized RMAT-A, scale 18, weights in [7,8], plus a stream of
//        mixed symmetric batches (30% deletes)        (dyn-refresh)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/delta_overlay.hpp"

namespace agtbench {

/// Cache directory of a workload's inputs under `root` (shared by the
/// workloads that use the same graph).
std::string input_dir(const std::string& root, const std::string& workload,
                      std::uint64_t seed);

/// Generates the inputs into input_dir(...) unless they are already there;
/// returns the directory.
std::string ensure_inputs(const std::string& root, const std::string& workload,
                          std::uint64_t seed);

std::string graph_path(const std::string& dir);

/// An in-memory graph loaded `reps` times (each load from the file, then
/// the reverse view built in memory), keeping the last copy; the times are
/// the medians over the repetitions.
struct timed_load {
  asyncgt::csr_graph<std::uint32_t> graph;
  double load_s = 0.0;
  double reverse_s = 0.0;
  double setup_s = 0.0;  ///< median of load + reverse
};
timed_load load_graph(const std::string& path, int reps, bool reverse);

std::string stream_path(const std::string& dir);

std::vector<asyncgt::delta_batch<std::uint32_t>> read_stream(
    const std::string& path);

/// CRC-32 over the CSR arrays (offsets, targets, weights).
std::uint32_t graph_checksum(const asyncgt::csr_graph<std::uint32_t>& g);
/// CRC-32 over a file's bytes.
std::uint32_t file_checksum(const std::string& path);

/// {"n":..,"m":..,"graph_crc32":..,"stream_crc32":..,"batches":..}
std::string fingerprint_json(std::uint64_t n, std::uint64_t m,
                             std::uint32_t graph_crc, std::uint32_t stream_crc,
                             std::size_t batches);

}  // namespace agtbench
