// sem_config — the one-declaration construction surface for semi-external
// graphs, and the one home of every SEM knob.
//
// Before this builder, every SEM call site wired sem_csr by hand through
// five independent setters (backend, cache, heat, fault injector, retries),
// and the hot-block machinery would have made it eight (pressure, advisor,
// prefetch). sem_config folds the whole arrangement into one struct with
// fluent with_* setters; open<VertexId>() materializes a sem_bundle that
// OWNS every piece in destruction-safe order, so a call site is:
//
//   auto scfg = sem::sem_config(path)
//                   .with_device(&dev)
//                   .with_cache_fraction(0.25)
//                   .with_cache_policy("pressure")
//                   .with_hot_ordering(true)
//                   .with_prefetch_hot(true);
//   auto bundle = scfg.open<vertex32>();
//   bundle.wire_queue(topt.queue);   // order=hot + advisor, when requested
//   run(*bundle.graph, topt);
//
// from_flags() is the one parser of the SEM command-line flags (--io-*,
// --cache-*, --prefetch-hot, --hot-threshold); traversal_options::from_flags
// parses the per-job flags of the same command line.
//
// The old sem_csr setters remain as the thin primitives this builder
// composes from (see the deprecation note in sem_csr.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "queue/queue_config.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/block_index.hpp"
#include "sem/block_pressure.hpp"
#include "sem/cache_policy.hpp"
#include "sem/fault_injector.hpp"
#include "sem/hot_advisor.hpp"
#include "sem/io_backend.hpp"
#include "sem/prefetcher.hpp"
#include "sem/sem_csr.hpp"
#include "sem/ssd_model.hpp"
#include "util/options.hpp"

namespace asyncgt::sem {

/// Everything sem_config::open() built, ownership included. Member order is
/// destruction order in reverse: the advisor and prefetcher go first (the
/// prefetcher joins its worker thread while the cache and device it touches
/// are still alive), the graph before the pressure/heat/caches it borrows.
template <typename VertexId>
struct sem_bundle {
  std::unique_ptr<block_cache> cache;          // destroyed last
  std::unique_ptr<block_cache> reverse_cache;
  std::unique_ptr<block_heat> heat;
  std::unique_ptr<block_heat> reverse_heat;
  std::unique_ptr<block_pressure> pressure;
  std::unique_ptr<sem_csr<VertexId>> graph;
  std::unique_ptr<prefetcher> prefetch;
  std::unique_ptr<sem_hot_advisor<VertexId>> advisor;  // destroyed first

  /// Applies the hot-ordering half to a queue config: when the bundle was
  /// built with hot ordering, selects queue_order::hot and installs the
  /// advisor; otherwise leaves the config untouched.
  void wire_queue(visitor_queue_config& q) const {
    if (advisor == nullptr) return;
    q.order = queue_order::hot;
    q.advisor = advisor.get();
  }
};

class sem_config {
 public:
  sem_config() = default;
  explicit sem_config(std::string path) : path_(std::move(path)) {}

  // ---- Fluent setters (each returns *this) ----

  /// Simulated device (borrowed, nullable = raw host speed).
  sem_config& with_device(ssd_model* device) {
    device_ = device;
    return *this;
  }
  /// Page-cache size as a fraction of the graph file's blocks (0 = no
  /// cache). Overridden by an explicit with_cache_blocks.
  sem_config& with_cache_fraction(double fraction) {
    cache_fraction_ = fraction;
    return *this;
  }
  /// Explicit page-cache capacity in blocks (0 = derive from the fraction).
  sem_config& with_cache_blocks(std::uint64_t blocks) {
    cache_blocks_ = blocks;
    return *this;
  }
  /// Admission/eviction policy name: "lru" (default) or "pressure"
  /// (make_cache_policy; "pressure" implies building a pressure tracker).
  sem_config& with_cache_policy(std::string name) {
    cache_policy_ = std::move(name);
    return *this;
  }
  /// I/O backend name ("sync" | "coalescing" | "uring") and batch depth.
  sem_config& with_io_backend(std::string name, std::uint32_t batch = 8) {
    io_backend_ = std::move(name);
    io_batch_ = batch;
    return *this;
  }
  /// Transient-I/O retry budget (io_retry_policy correspondence).
  sem_config& with_retries(std::uint32_t max_retries,
                           std::uint32_t backoff_initial_us) {
    io_retries_ = max_retries;
    io_backoff_us_ = backoff_initial_us;
    return *this;
  }
  /// Attach a block_heat recorder sized to the file.
  sem_config& with_heat(bool on = true) {
    heat_ = on;
    return *this;
  }
  /// Build the pressure tracker + hot advisor (queue_order::hot signal).
  sem_config& with_hot_ordering(bool on = true,
                                std::uint32_t threshold = 4) {
    hot_ = on;
    hot_threshold_ = threshold;
    return *this;
  }
  /// Async readahead of hot non-resident blocks. Requires a batching
  /// backend (coalescing/uring) — the sync backend has no async lane to
  /// overlap with, so the request is ignored there (docs/io_backends.md).
  sem_config& with_prefetch_hot(bool on = true) {
    prefetch_hot_ = on;
    return *this;
  }
  /// Open the on-disk reverse (transpose) view, with its own cache/heat
  /// sized like the forward ones.
  sem_config& with_reverse(bool on = true) {
    open_reverse_ = on;
    return *this;
  }
  /// Borrowed fault injector (nullable).
  sem_config& with_fault_injector(fault_injector* injector) {
    injector_ = injector;
    return *this;
  }
  /// Borrowed telemetry I/O recorder (nullable).
  sem_config& with_io_recorder(telemetry::io_recorder* recorder) {
    recorder_ = recorder;
    return *this;
  }

  // ---- Accessors (ext_hot_blocks varies its modes around the parsed
  // flags and echoes these into its report) ----

  double cache_fraction() const noexcept { return cache_fraction_; }
  std::uint32_t io_batch() const noexcept { return io_batch_; }
  std::uint32_t hot_threshold() const noexcept { return hot_threshold_; }

  /// The SEM flag parser shared by agt_tool and the bench harnesses:
  ///   --io-backend=NAME  read path: sync | coalescing | uring (default
  ///                      sync; docs/io_backends.md)
  ///   --io-batch=N       coalescing/uring batch depth (default 8)
  ///   --io-retries=N     transient-errno budget (default 4)
  ///   --io-backoff-us=N  initial retry backoff (default 50)
  ///   --cache-policy=P   block-cache policy: lru | pressure (default lru)
  ///   --cache-fraction=F page-cache size as a fraction of the file's
  ///                      blocks (default `default_cache_fraction`, which
  ///                      each tool/bench picks)
  ///   --prefetch-hot     readahead hot non-resident blocks (coalescing/
  ///                      uring backends only; default off)
  ///   --hot-threshold=N  pending visitors that make a block hot (default 4)
  /// plus the two per-job flags the storage layer follows: --ordering=hot
  /// builds the pressure tracker and advisor (docs/hot_blocks.md), and
  /// --hybrid opens the reverse view. Throws std::invalid_argument on a bad
  /// --cache-policy or a zero --hot-threshold.
  static sem_config from_flags(const options& opt, std::string path,
                               double default_cache_fraction = 0.0) {
    sem_config c(std::move(path));
    c.io_backend_ = opt.get_string("io-backend", c.io_backend_);
    c.io_batch_ = static_cast<std::uint32_t>(
        opt.get_int("io-batch", static_cast<std::int64_t>(c.io_batch_)));
    c.io_retries_ = static_cast<std::uint32_t>(
        opt.get_int("io-retries", static_cast<std::int64_t>(c.io_retries_)));
    c.io_backoff_us_ = static_cast<std::uint32_t>(opt.get_int(
        "io-backoff-us", static_cast<std::int64_t>(c.io_backoff_us_)));
    c.cache_policy_ = opt.get_string("cache-policy", c.cache_policy_);
    if (c.cache_policy_ != "lru" && c.cache_policy_ != "pressure") {
      throw std::invalid_argument("bad --cache-policy value: " +
                                  c.cache_policy_ +
                                  " (expected lru|pressure)");
    }
    c.cache_fraction_ = opt.get_double("cache-fraction",
                                       default_cache_fraction);
    c.prefetch_hot_ = opt.get_bool("prefetch-hot", false);
    c.hot_threshold_ = static_cast<std::uint32_t>(opt.get_int(
        "hot-threshold", static_cast<std::int64_t>(c.hot_threshold_)));
    if (c.hot_threshold_ == 0) {
      throw std::invalid_argument("--hot-threshold must be >= 1");
    }
    c.hot_ = opt.get_string("ordering", "priority") == "hot";
    c.open_reverse_ = opt.get_bool("hybrid", false);
    return c;
  }

  /// Materializes the whole arrangement. Throws on an unknown backend or
  /// policy name, a missing/corrupt graph file, or a missing reverse file
  /// when with_reverse was requested.
  template <typename VertexId>
  sem_bundle<VertexId> open() const {
    sem_bundle<VertexId> b;
    const std::uint64_t bs = device_ != nullptr
                                 ? device_->params().block_bytes
                                 : default_block_bytes;
    const std::uint64_t file_bytes = std::filesystem::file_size(path_);
    // Seed-compatible sizing (file/bs + 1, not a strict ceil): agt_tool and
    // the tables have always sized caches this way, and the bench shape
    // checks are calibrated against it.
    const std::uint64_t file_blocks = file_bytes / bs + 1;
    // Pressure covers the whole file's block range; built whenever the hot
    // signal OR the pressure-weighted policy needs it.
    if (hot_ || cache_policy_ == "pressure") {
      b.pressure = std::make_unique<block_pressure>(
          blocks_covering(file_bytes, bs), bs);
    }
    const std::uint64_t cap = cache_capacity(file_blocks);
    if (cap > 0) {
      b.cache = std::make_unique<block_cache>(
          cap, make_cache_policy(cache_policy_, b.pressure.get()));
    }
    b.graph = std::make_unique<sem_csr<VertexId>>(path_, device_,
                                                  b.cache.get());
    io_backend_config bcfg;
    bcfg.kind = parse_io_backend_kind(io_backend_);
    bcfg.batch = io_batch_;
    bcfg.block_bytes = static_cast<std::uint32_t>(bs);
    b.graph->set_io_backend(bcfg);
    io_retry_policy retry;
    retry.max_retries = io_retries_;
    retry.backoff_initial_us = io_backoff_us_;
    b.graph->set_retry_policy(retry);
    if (heat_) {
      b.heat = std::make_unique<block_heat>(b.graph->heat_blocks_for(bs), bs);
      b.graph->set_block_heat(b.heat.get());
    }
    if (open_reverse_) {
      const std::string rpath = reverse_path_for(path_);
      const std::uint64_t rblocks =
          std::filesystem::file_size(rpath) / bs + 1;
      const std::uint64_t rcap = cache_capacity(rblocks);
      if (rcap > 0) {
        // The reverse file is its own byte space; its cache stays plain LRU
        // (pressure describes forward-adjacency demand only).
        b.reverse_cache = std::make_unique<block_cache>(rcap);
      }
      if (heat_) {
        b.reverse_heat = std::make_unique<block_heat>(
            blocks_covering(std::filesystem::file_size(rpath), bs), bs);
      }
      b.graph->open_reverse(b.reverse_cache.get(), b.reverse_heat.get());
    }
    b.graph->set_io_recorder(recorder_);
    b.graph->set_fault_injector(injector_);
    // The async readahead lane only helps when the demand path itself
    // batches (coalescing/uring); on the sync backend it is ignored.
    if (prefetch_hot_ && b.cache != nullptr &&
        bcfg.kind != io_backend_kind::sync) {
      b.prefetch = std::make_unique<prefetcher>(b.cache.get(), device_, bs);
    }
    if (hot_) {
      b.advisor = std::make_unique<sem_hot_advisor<VertexId>>(
          *b.graph, b.pressure.get(), b.cache.get(), b.prefetch.get(),
          hot_threshold_);
    }
    return b;
  }

 private:
  std::uint64_t cache_capacity(std::uint64_t file_blocks) const {
    if (cache_blocks_ > 0) return cache_blocks_;
    if (cache_fraction_ <= 0.0) return 0;
    const auto cap = static_cast<std::uint64_t>(
        cache_fraction_ * static_cast<double>(file_blocks));
    return cap > 0 ? cap : 1;
  }

  std::string path_;
  ssd_model* device_ = nullptr;
  double cache_fraction_ = 0.0;
  std::uint64_t cache_blocks_ = 0;
  std::string cache_policy_ = "lru";
  std::string io_backend_ = "sync";
  std::uint32_t io_batch_ = 8;
  std::uint32_t io_retries_ = 4;
  std::uint32_t io_backoff_us_ = 50;
  bool heat_ = false;
  bool hot_ = false;
  std::uint32_t hot_threshold_ = 4;
  bool prefetch_hot_ = false;
  bool open_reverse_ = false;
  fault_injector* injector_ = nullptr;
  telemetry::io_recorder* recorder_ = nullptr;
};

}  // namespace asyncgt::sem
