// Checkpoint / restart for the asynchronous traversals.
//
// Semi-external traversals over large graphs run for hours (the paper's
// Table V rows reach 10,000+ seconds); a crash should not forfeit the work.
// Label-correcting algorithms make restart unusually clean: a partially
// converged label array is itself a valid intermediate state — labels only
// ever decrease toward the fixed point — so resuming means re-seeding the
// visitor queue from every already-labelled vertex and letting correction
// finish the job. No coordination with the crashed run is needed, and a
// checkpoint taken at ANY moment (even mid-relaxation) resumes to the exact
// same fixed point.
//
// File format: header (magic, algorithm tag, vertex count) + label array +
// parent array + CRC-32 of the payload. The CRC turns a torn write from a
// crash during checkpointing into a clean load error instead of silent
// corruption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_bfs.hpp"
#include "core/async_sssp.hpp"
#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "service/engine.hpp"
#include "util/crc32.hpp"

namespace asyncgt {

inline constexpr std::uint32_t checkpoint_magic = 0x43504B31;  // "1KPC"

enum class checkpoint_kind : std::uint32_t {
  bfs = 1,
  sssp = 2,
};

namespace detail {

struct checkpoint_header {
  std::uint32_t magic = checkpoint_magic;
  std::uint32_t kind = 0;
  std::uint64_t num_vertices = 0;
  std::uint32_t vertex_width = 0;  // sizeof(VertexId)
  std::uint32_t reserved = 0;
};

struct file_closer {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using file_ptr = std::unique_ptr<std::FILE, file_closer>;

inline void write_all(std::FILE* f, const void* data, std::size_t bytes,
                      const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("checkpoint: short write to '" + path + "'");
  }
}

inline void read_all(std::FILE* f, void* data, std::size_t bytes,
                     const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("checkpoint: short read from '" + path + "'");
  }
}

}  // namespace detail

/// A loaded (or about-to-be-saved) traversal state snapshot.
template <typename VertexId>
struct traversal_checkpoint {
  checkpoint_kind kind = checkpoint_kind::bfs;
  std::vector<dist_t> label;     // level (BFS) or distance (SSSP)
  std::vector<VertexId> parent;
};

/// Writes the snapshot atomically-ish: payload then CRC last, so a torn
/// file fails the CRC on load.
template <typename VertexId>
void save_checkpoint(const std::string& path,
                     const traversal_checkpoint<VertexId>& cp) {
  if (cp.label.size() != cp.parent.size()) {
    throw std::invalid_argument("checkpoint: label/parent size mismatch");
  }
  detail::file_ptr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    throw std::runtime_error("checkpoint: cannot create '" + path + "'");
  }
  detail::checkpoint_header h;
  h.kind = static_cast<std::uint32_t>(cp.kind);
  h.num_vertices = cp.label.size();
  h.vertex_width = sizeof(VertexId);
  detail::write_all(f.get(), &h, sizeof(h), path);
  detail::write_all(f.get(), cp.label.data(),
                    cp.label.size() * sizeof(dist_t), path);
  detail::write_all(f.get(), cp.parent.data(),
                    cp.parent.size() * sizeof(VertexId), path);
  crc32 crc;
  crc.update(&h, sizeof(h));
  crc.update(cp.label.data(), cp.label.size() * sizeof(dist_t));
  crc.update(cp.parent.data(), cp.parent.size() * sizeof(VertexId));
  const std::uint32_t sum = crc.value();
  detail::write_all(f.get(), &sum, sizeof(sum), path);
  if (std::fflush(f.get()) != 0) {
    throw std::runtime_error("checkpoint: flush failed for '" + path + "'");
  }
}

/// Loads and CRC-verifies a snapshot. Throws on mismatch of magic, width,
/// kind, or checksum.
template <typename VertexId>
traversal_checkpoint<VertexId> load_checkpoint(const std::string& path,
                                               checkpoint_kind expected) {
  detail::file_ptr f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  }
  detail::checkpoint_header h;
  detail::read_all(f.get(), &h, sizeof(h), path);
  if (h.magic != checkpoint_magic) {
    throw std::runtime_error("checkpoint: bad magic in '" + path + "'");
  }
  if (h.vertex_width != sizeof(VertexId)) {
    throw std::runtime_error("checkpoint: vertex width mismatch");
  }
  if (h.kind != static_cast<std::uint32_t>(expected)) {
    throw std::runtime_error("checkpoint: algorithm kind mismatch");
  }
  traversal_checkpoint<VertexId> cp;
  cp.kind = expected;
  cp.label.resize(h.num_vertices);
  cp.parent.resize(h.num_vertices);
  detail::read_all(f.get(), cp.label.data(),
                   cp.label.size() * sizeof(dist_t), path);
  detail::read_all(f.get(), cp.parent.data(),
                   cp.parent.size() * sizeof(VertexId), path);
  std::uint32_t stored = 0;
  detail::read_all(f.get(), &stored, sizeof(stored), path);
  crc32 crc;
  crc.update(&h, sizeof(h));
  crc.update(cp.label.data(), cp.label.size() * sizeof(dist_t));
  crc.update(cp.parent.data(), cp.parent.size() * sizeof(VertexId));
  if (crc.value() != stored) {
    throw std::runtime_error("checkpoint: CRC mismatch in '" + path +
                             "' (torn or corrupted file)");
  }
  return cp;
}

namespace detail {

/// The resume job's step: a gang sweep pushes one seed per out-edge of
/// every labelled vertex (on the job's lanes, so a semi-external scan runs
/// parallel and under the job's watchdog), then one run from those seeds.
template <typename Visitor, bool UnitWeights, typename Ctl>
void resume_step(Ctl& ctl, const std::vector<dist_t>& label) {
  if (ctl.phases_finished == 1) ctl.run();
  if (ctl.phases_finished != 0) return;
  ctl.sweep(label.size(), [&q = ctl.queue, &label, g = ctl.state.g](
                              std::size_t, std::uint64_t b, std::uint64_t e) {
    using V = decltype(Visitor{}.vtx);
    for (std::uint64_t v = b; v < e; ++v) {
      if (label[v] == infinite_distance<dist_t>) continue;
      const V u = static_cast<V>(v);
      telemetry::metric_scope::count_edges(g->out_degree(u));
      g->for_each_out_edge(u, [&](V x, weight_t w) {
        q.push(Visitor{x, u, label[v] + (UnitWeights ? 1 : w)});
      });
    }
  });
}

}  // namespace detail

/// A BFS job whose on-abort hook saves the partial labels to
/// `checkpoint_path` — after an I/O error, cancel, or deadline/stall kill —
/// before the error (or a failed save's) is delivered. Sound at any abort
/// point: labels are written before the adjacency read, and monotone
/// correction resumes any partial array to the identical fixed point. The
/// start's label is known at submit, so the snapshot carries it even when
/// the abort landed before the start visitor ran (a cancel right after
/// submit, a gang still queued on a busy pool).
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_checkpointed_bfs(
    const Graph& g, typename Graph::vertex_id start,
    std::string checkpoint_path, std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("async_bfs: start vertex out of range");
  }
  return submit_traversal<bfs_visitor<V>>(
      opts, bfs_state<Graph>(g, resolve_threads(opts)),
      [start](auto& q, bfs_state<Graph>&) {
        q.push(bfs_visitor<V>{start, start, 0});
      },
      [](bfs_state<Graph>& s, queue_run_stats stats) {
        return take_bfs_result(s, std::move(stats), "bfs");
      },
      "checkpointed_bfs",
      [start, path = std::move(checkpoint_path)](bfs_state<Graph>& s) {
        traversal_checkpoint<V> cp{checkpoint_kind::bfs, s.level, s.parent};
        cp.label[start] = 0;
        cp.parent[start] = start;
        save_checkpoint(path, cp);
      });
}

/// SSSP twin of submit_checkpointed_bfs.
template <typename Graph>
job<sssp_result<typename Graph::vertex_id>> engine::submit_checkpointed_sssp(
    const Graph& g, typename Graph::vertex_id start,
    std::string checkpoint_path, std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("async_sssp: start vertex out of range");
  }
  return submit_traversal<sssp_visitor<V>>(
      opts, sssp_state<Graph>(g, resolve_threads(opts)),
      [start](auto& q, sssp_state<Graph>&) {
        q.push(sssp_visitor<V>{start, start, 0});
      },
      [](sssp_state<Graph>& s, queue_run_stats stats) {
        return take_sssp_result(s, std::move(stats), "sssp");
      },
      "checkpointed_sssp",
      [start, path = std::move(checkpoint_path)](sssp_state<Graph>& s) {
        traversal_checkpoint<V> cp{checkpoint_kind::sssp, s.dist, s.parent};
        cp.label[start] = 0;
        cp.parent[start] = start;
        save_checkpoint(path, cp);
      });
}

/// Resumes a BFS from a snapshot's labels (see detail::resume_step).
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_resume_bfs(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (cp.label.size() != g.num_vertices()) {
    throw std::invalid_argument("resume_bfs: checkpoint size mismatch");
  }
  bfs_state<Graph> state(g, resolve_threads(opts));
  state.level = cp.label;
  state.parent = cp.parent;
  return submit_phased<bfs_visitor<V>>(
      opts, std::move(state),
      [](auto& ctl) {
        detail::resume_step<bfs_visitor<V>, true>(ctl, ctl.state.level);
      },
      [](bfs_state<Graph>& s, queue_run_stats stats) {
        return take_bfs_result(s, std::move(stats), "bfs");
      },
      "resume_bfs");
}

/// SSSP twin of submit_resume_bfs.
template <typename Graph>
job<sssp_result<typename Graph::vertex_id>> engine::submit_resume_sssp(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  if (cp.label.size() != g.num_vertices()) {
    throw std::invalid_argument("resume_sssp: checkpoint size mismatch");
  }
  sssp_state<Graph> state(g, resolve_threads(opts));
  state.dist = cp.label;
  state.parent = cp.parent;
  return submit_phased<sssp_visitor<V>>(
      opts, std::move(state),
      [](auto& ctl) {
        detail::resume_step<sssp_visitor<V>, false>(ctl, ctl.state.dist);
      },
      [](sssp_state<Graph>& s, queue_run_stats stats) {
        return take_sssp_result(s, std::move(stats), "sssp");
      },
      "resume_sssp");
}

// ---- One-shot wrappers over the process-local engine (submit + get) ----

template <typename Graph>
bfs_result<typename Graph::vertex_id> async_bfs_checkpointed(
    const Graph& g, typename Graph::vertex_id start,
    const std::string& checkpoint_path, traversal_options opts = {}) {
  return engine::process_default()
      .submit_checkpointed_bfs(g, start, checkpoint_path, std::move(opts))
      .get();
}

template <typename Graph>
sssp_result<typename Graph::vertex_id> async_sssp_checkpointed(
    const Graph& g, typename Graph::vertex_id start,
    const std::string& checkpoint_path, traversal_options opts = {}) {
  return engine::process_default()
      .submit_checkpointed_sssp(g, start, checkpoint_path, std::move(opts))
      .get();
}

template <typename Graph>
bfs_result<typename Graph::vertex_id> resume_bfs(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  return engine::process_default().submit_resume_bfs(g, cp, std::move(opts))
      .get();
}

template <typename Graph>
sssp_result<typename Graph::vertex_id> resume_sssp(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  return engine::process_default().submit_resume_sssp(g, cp, std::move(opts))
      .get();
}

}  // namespace asyncgt
