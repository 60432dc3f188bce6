// Ordering layer of the traversal engine: the per-worker pop discipline.
//
// Each worker owns one private ordering structure; only the owning thread
// ever touches it (arrivals land in the worker's locked mailbox slab and are
// drained into the private structure by the owner — see mailbox.hpp), so
// none of these policies carry a lock.
//
// The policy is selected *once* at queue construction: the engine is
// templated on the ordering type and the facade (visitor_queue.hpp) holds a
// variant of the three instantiations, so the hot pop loop is monomorphic —
// no per-pop `switch (cfg.order)` as in the seed implementation — while the
// runtime-selected ablation path (bench/ablation_priority) keeps working.
//
// Policies:
//   priority_order — 4-ary min-heap on Visitor::priority(), optional
//                    secondary sort by vertex id (paper §IV-C semi-sort).
//                    The paper's design.
//   fifo_order     — arrival order; the "what does prioritization buy"
//                    ablation baseline.
//   lifo_order     — reverse arrival order; degrades multiplicatively on
//                    label-correcting traversals (ablation worst case).
//   hot_order      — two priority bands: visitors whose adjacency block is
//                    cache-resident or pressure-hot (per the config's
//                    hot_advisor) pop before everything else; within each
//                    band the paper's priority+semi-sort order applies.
//                    Replaces the static vertex-id locality key with the
//                    live pending-visitor signal (docs/hot_blocks.md).
//
// All policies move visitors in on push and move them out on try_pop, are
// default-constructible (the engine value-initializes its worker array in
// place, mutexes and all), and are configured once before the first push.
// Each also exposes take_hot_pops() — the count of pops served from the hot
// band since last taken — so the engine can fold it into queue_run_stats
// without detecting which policy it holds (always 0 outside hot_order).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "queue/dary_heap.hpp"
#include "queue/hot_advisor.hpp"
#include "queue/queue_config.hpp"

namespace asyncgt {

/// Min-order on priority(), optionally tie-broken by vertex id.
template <typename Visitor>
struct visitor_priority_less {
  bool secondary = false;
  bool operator()(const Visitor& a, const Visitor& b) const {
    if (a.priority() != b.priority()) return a.priority() < b.priority();
    if (secondary) return a.vertex() < b.vertex();
    return false;
  }
};

template <typename Visitor>
class priority_order {
 public:
  priority_order() = default;
  priority_order(const priority_order&) = delete;
  priority_order& operator=(const priority_order&) = delete;

  /// One-time setup before the first push (the engine calls this right
  /// after value-initializing its worker array).
  void configure(const visitor_queue_config& cfg) {
    less_.secondary = cfg.secondary_vertex_sort;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(Visitor&& v) { heap_.push(std::move(v)); }
  void push(const Visitor& v) { heap_.push(v); }

  /// Moves the best (smallest priority) visitor into `out`.
  bool try_pop(Visitor& out) {
    if (heap_.empty()) return false;
    out = heap_.pop();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { heap_.clear(); }

  /// No hot band here; see hot_order.
  std::uint64_t take_hot_pops() noexcept { return 0; }

 private:
  visitor_priority_less<Visitor> less_;
  // Holds a reference to less_, so the policy is pinned in place (the
  // engine's worker array never relocates).
  dary_heap<Visitor, visitor_priority_less<Visitor>&> heap_{less_};
};

template <typename Visitor>
class fifo_order {
 public:
  fifo_order() = default;
  fifo_order(const fifo_order&) = delete;
  fifo_order& operator=(const fifo_order&) = delete;

  void configure(const visitor_queue_config&) {}

  bool empty() const noexcept { return q_.empty(); }
  std::size_t size() const noexcept { return q_.size(); }

  void push(Visitor&& v) { q_.push_back(std::move(v)); }
  void push(const Visitor& v) { q_.push_back(v); }

  /// Moves the oldest visitor into `out` (the seed copied then popped).
  bool try_pop(Visitor& out) {
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { q_.clear(); }

  /// No hot band here; see hot_order.
  std::uint64_t take_hot_pops() noexcept { return 0; }

 private:
  std::deque<Visitor> q_;
};

template <typename Visitor>
class lifo_order {
 public:
  lifo_order() = default;
  lifo_order(const lifo_order&) = delete;
  lifo_order& operator=(const lifo_order&) = delete;

  void configure(const visitor_queue_config&) {}

  bool empty() const noexcept { return q_.empty(); }
  std::size_t size() const noexcept { return q_.size(); }

  void push(Visitor&& v) { q_.push_back(std::move(v)); }
  void push(const Visitor& v) { q_.push_back(v); }

  /// Moves the newest visitor into `out`.
  bool try_pop(Visitor& out) {
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { q_.clear(); }

  /// No hot band here; see hot_order.
  std::uint64_t take_hot_pops() noexcept { return 0; }

 private:
  std::vector<Visitor> q_;
};

/// Two-band priority order driven by the live hot-block signal. push()
/// classifies the visitor once — hot band if the advisor says its backing
/// block is cache-resident or has enough queued work, cold band otherwise —
/// and try_pop serves the hot band first. Within each band the ordering is
/// exactly priority_order's (priority, then the optional semi-sort vertex
/// tie-break), so with a null advisor this IS priority_order with one extra
/// empty heap.
///
/// Classification is deliberately push-time-only: a visitor does not migrate
/// when its block's residency changes later. Reclassifying would mean
/// rebuilding heaps on every cache event; the signal is a heuristic and
/// label correction keeps final labels pop-order-invariant, so staleness
/// costs a little I/O-ordering quality and nothing else.
template <typename Visitor>
class hot_order {
 public:
  hot_order() = default;
  hot_order(const hot_order&) = delete;
  hot_order& operator=(const hot_order&) = delete;

  void configure(const visitor_queue_config& cfg) {
    less_.secondary = cfg.secondary_vertex_sort;
    advisor_ = cfg.advisor;
  }

  bool empty() const noexcept { return hot_.empty() && cold_.empty(); }
  std::size_t size() const noexcept { return hot_.size() + cold_.size(); }

  void push(Visitor&& v) { band_for(v).push(std::move(v)); }
  void push(const Visitor& v) { band_for(v).push(v); }

  /// Pops the best hot visitor if any, else the best cold one.
  bool try_pop(Visitor& out) {
    if (!hot_.empty()) {
      out = hot_.pop();
      ++hot_pops_;
      return true;
    }
    if (cold_.empty()) return false;
    out = cold_.pop();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset). Also zeroes
  /// the hot-pop tally so an aborted run's pops don't leak into the next
  /// run's stats (post-abort stats report zeros).
  void clear() noexcept {
    hot_.clear();
    cold_.clear();
    hot_pops_ = 0;
  }

  /// Pops served from the hot band since last taken (folded into
  /// queue_run_stats::hot_pops / the queue.hot_pops counter).
  std::uint64_t take_hot_pops() noexcept {
    return std::exchange(hot_pops_, std::uint64_t{0});
  }

 private:
  using heap = dary_heap<Visitor, visitor_priority_less<Visitor>&>;

  heap& band_for(const Visitor& v) {
    return advisor_ != nullptr &&
                   advisor_->is_hot(static_cast<std::uint64_t>(v.vertex()))
               ? hot_
               : cold_;
  }

  visitor_priority_less<Visitor> less_;
  const hot_advisor* advisor_ = nullptr;
  // Both heaps hold a reference to less_, so the policy is pinned in place
  // (the engine's worker array never relocates).
  heap hot_{less_};
  heap cold_{less_};
  std::uint64_t hot_pops_ = 0;
};

}  // namespace asyncgt
