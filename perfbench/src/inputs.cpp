#include "inputs.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "agtbench/sample_stats.hpp"
#include "agtbench/timed_graph.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "gen/weights.hpp"
#include "graph/graph_io.hpp"
#include "util/crc32.hpp"

namespace agtbench {

using asyncgt::csr32;
using asyncgt::delta_batch;
using asyncgt::vertex32;
namespace fs = std::filesystem;

namespace {

// Bump when the generated inputs change, so stale caches are not reused.
constexpr int kFormat = 1;

std::string family(const std::string& workload) {
  if (workload == "im-query" || workload == "im-jobs") return "im19";
  if (workload == "sem-query") return "sem18";
  if (workload == "dyn-refresh") return "dyn18";
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

csr32 weighted_symmetric(unsigned scale, std::uint64_t seed) {
  return asyncgt::add_weights(
      asyncgt::rmat_graph_undirected<vertex32>(asyncgt::rmat_a(scale, seed)),
      asyncgt::weight_scheme::uniform, seed + 1);
}

template <typename T>
void put(std::ofstream& o, const T& v) {
  o.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T take(std::ifstream& in) {
  T v{};
  if (!in.read(reinterpret_cast<char*>(&v), sizeof v)) {
    throw std::runtime_error("truncated update stream");
  }
  return v;
}

void write_stream(const std::string& path,
                  const std::vector<delta_batch<vertex32>>& s) {
  std::ofstream o(path, std::ios::binary);
  if (!o) throw std::runtime_error("cannot write " + path);
  put<std::uint64_t>(o, s.size());
  for (const auto& b : s) {
    put<std::uint64_t>(o, b.inserts.size());
    for (const auto& e : b.inserts) {
      put(o, e.src);
      put(o, e.dst);
      put(o, e.weight);
    }
    put<std::uint64_t>(o, b.deletes.size());
    for (const auto& [u, v] : b.deletes) {
      put(o, u);
      put(o, v);
    }
  }
  if (!o) throw std::runtime_error("short write on " + path);
}

void generate(const std::string& fam, std::uint64_t seed,
              const std::string& dir) {
  if (fam == "im19") {
    asyncgt::write_graph(graph_path(dir), weighted_symmetric(19, seed));
  } else if (fam == "sem18") {
    asyncgt::write_graph(graph_path(dir),
                         asyncgt::rmat_graph_undirected<vertex32>(
                             asyncgt::rmat_a(18, seed)));
  } else {
    // Narrow weight band, as in bench/ext_incremental: with low relative
    // weight variance a random insert rarely shortens many paths, so the
    // repairs have sparse work, the regime incremental recompute targets.
    const csr32 uw = weighted_symmetric(18, seed);
    std::vector<std::uint64_t> off(uw.offsets().begin(), uw.offsets().end());
    std::vector<vertex32> tgt(uw.targets().begin(), uw.targets().end());
    std::vector<asyncgt::weight_t> w(uw.weights().begin(), uw.weights().end());
    for (auto& x : w) x = 7 + (x - 1) % 2;
    const csr32 base(std::move(off), std::move(tgt), std::move(w));
    asyncgt::write_graph(graph_path(dir), base);
    write_stream(stream_path(dir),
                 asyncgt::generate_update_stream(
                     base, {.seed = seed + 2,
                            .num_batches = 64,
                            .batch_size = 1000,
                            .delete_fraction = 0.3,
                            .symmetric = true,
                            .min_weight = 7,
                            .max_weight = 8}));
  }
}

}  // namespace

std::string input_dir(const std::string& root, const std::string& workload,
                      std::uint64_t seed) {
  return root + "/" + family(workload) + "-v" + std::to_string(kFormat) +
         "-seed" + std::to_string(seed);
}

std::string graph_path(const std::string& dir) { return dir + "/graph.agt"; }
std::string stream_path(const std::string& dir) { return dir + "/stream.bin"; }

std::string ensure_inputs(const std::string& root, const std::string& workload,
                          std::uint64_t seed) {
  const std::string dir = input_dir(root, workload, seed);
  const std::string ready = dir + "/ready";
  if (fs::exists(ready)) return dir;
  // Generate into a temporary directory and rename, so an interrupted run
  // never leaves a half-written cache entry behind.
  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  generate(family(workload), seed, tmp);
  std::ofstream(tmp + "/ready") << "ok\n";
  fs::remove_all(dir);
  fs::rename(tmp, dir);
  return dir;
}

timed_load load_graph(const std::string& path, int reps, bool reverse) {
  timed_load out;
  std::vector<double> load;
  std::vector<double> rev;
  std::vector<double> both;
  for (int i = 0; i < reps; ++i) {
    out.graph = csr32{};
    const std::int64_t t0 = now_ns();
    out.graph = asyncgt::read_graph32(path);
    const std::int64_t t1 = now_ns();
    if (reverse) out.graph.ensure_reverse();
    const std::int64_t t2 = now_ns();
    load.push_back((t1 - t0) * 1e-9);
    rev.push_back((t2 - t1) * 1e-9);
    both.push_back((t2 - t0) * 1e-9);
  }
  out.load_s = median(load);
  out.reverse_s = median(rev);
  out.setup_s = median(both);
  return out;
}

std::vector<delta_batch<vertex32>> read_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<delta_batch<vertex32>> s(take<std::uint64_t>(in));
  for (auto& b : s) {
    b.inserts.resize(take<std::uint64_t>(in));
    for (auto& e : b.inserts) {
      e.src = take<vertex32>(in);
      e.dst = take<vertex32>(in);
      e.weight = take<asyncgt::weight_t>(in);
    }
    b.deletes.resize(take<std::uint64_t>(in));
    for (auto& [u, v] : b.deletes) {
      u = take<vertex32>(in);
      v = take<vertex32>(in);
    }
  }
  return s;
}

std::uint32_t graph_checksum(const csr32& g) {
  asyncgt::crc32 c;
  c.update(g.offsets().data(), g.offsets().size_bytes());
  c.update(g.targets().data(), g.targets().size_bytes());
  c.update(g.weights().data(), g.weights().size_bytes());
  return c.value();
}

std::uint32_t file_checksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  asyncgt::crc32 c;
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    c.update(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return c.value();
}

std::string fingerprint_json(std::uint64_t n, std::uint64_t m,
                             std::uint32_t graph_crc, std::uint32_t stream_crc,
                             std::size_t batches) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\":%llu,\"m\":%llu,\"graph_crc32\":\"%08x\","
                "\"stream_crc32\":\"%08x\",\"batches\":%zu}",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(m), graph_crc, stream_crc,
                batches);
  return buf;
}

}  // namespace agtbench
