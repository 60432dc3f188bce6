// Termination layer of the traversal engine: the global in-flight counter
// and the done broadcast protocol.
//
// A single counter tracks in-flight visitors: a delivery *reserves* the
// counter before any visitor becomes visible in a mailbox, and a worker
// *completes* visitors only after their visit() (and all pushes the visit
// performed) finished. The counter can therefore only reach zero at global
// quiescence; the worker that drives it to zero broadcasts completion ("the
// traversal is complete when the visitor queue is empty, and all visitors
// have completed", paper §III-A).
//
// Proof sketch (unbatched). Consider the last decrement to zero. Its visit
// has completed, so all its pushes (increments) happened before the
// decrement. Any visitor still queued somewhere would have contributed an
// increment not yet matched by a decrement — contradiction. Hence zero
// implies global quiescence, and since labels can only improve finitely
// often, the counter must reach zero for label-correcting visitors.
//
// Batched extension. With the mailbox layer's outbox buffers, pushes do not
// touch the counter individually: a batch of m buffered visitors is
// reserved with one fetch_add(m) *immediately before* delivery, and a
// worker defers its per-visit decrements into a local `completed` tally
// that it commits with one fetch_sub(n) — but only after flushing every
// one of its outboxes (flush-on-idle / flush-before-sleep). Writing
//     T = visitors in mailboxes + executing + buffered in outboxes,
//     H = sum of workers' uncommitted completed tallies,
//     B = sum of workers' buffered-but-unreserved outbox sizes,
// every transition preserves  pending == T + H - B:
//     buffer a push        : T+1, B+1          (no counter touch)
//     reserve+deliver m    : B-m, pending+m    (reserve precedes delivery)
//     finish a visit       : T-1, H+1          (decrement deferred)
//     commit n completions : H-n, pending-n    (outboxes flushed first)
// Two facts close the argument that pending == 0 still implies T == 0:
// buffered visitors are a subset of in-flight ones (B <= T), and outside a
// running visit a worker with a non-empty outbox always holds at least one
// uncommitted completion (it only commits after flushing, so B_w > 0 and
// H_w == 0 can only coexist while that worker is mid-visit — in which case
// it contributes an executing visitor to T). From pending == 0:
// 0 == T + H - B with B <= T forces H == 0 wherever no visit is executing,
// which by the per-worker fact forces B == 0, hence T == 0. Quiescence.
//
// The worker that commits the tally driving the counter to zero announces
// completion; the broadcast itself (lock each mailbox, then notify) lives in
// mailbox.hpp, because the lost-wakeup argument belongs to the parking
// protocol there.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/cache_line.hpp"

namespace asyncgt {

class termination_detector {
 public:
  /// Pre-accounts n visitors. MUST be called before the visitors become
  /// visible in any mailbox (reserve-then-deliver), so the counter never
  /// undercounts live work. Also used by seeded runs to credit all seeds
  /// up front: a fast worker cannot drive the counter to zero while another
  /// worker is still seeding its slice.
  void reserve(std::int64_t n) noexcept {
    pending_.fetch_add(n, std::memory_order_acq_rel);
  }

  /// Commits n completed visits. Returns true iff this commit drove the
  /// counter to zero — the caller must then announce completion. Callers
  /// must have flushed all their outbox buffers first (see the batched
  /// proof above); n == 0 commits nothing and never signals termination.
  bool complete(std::int64_t n) noexcept {
    if (n == 0) return false;
    return pending_.fetch_sub(n, std::memory_order_acq_rel) == n;
  }

  /// In-flight visitor count. Exact at quiescence; while workers run it is
  /// a conservative instantaneous sample (deferred completions keep it an
  /// over-approximation, never an undercount) — this is what the telemetry
  /// sampler plots as the frontier size.
  std::int64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Raises the done flag. The mailbox layer's broadcast must follow so
  /// parked workers observe it (wake_all below the caller).
  void set_done() noexcept { done_.store(true, std::memory_order_release); }

  /// Cooperative cancellation: raised by the first failing worker (after
  /// latching its error in the engine) and observed by every worker loop
  /// and parking predicate. Unlike `done`, an abort does NOT certify
  /// quiescence — visitors may still be queued everywhere — it only orders
  /// a prompt, clean unwind; the engine resets all queue state afterwards.
  /// The same raise-then-wake_all broadcast discipline applies.
  void request_abort() noexcept {
    aborted_.store(true, std::memory_order_release);
  }

  bool abort_requested() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// True when workers must exit their loop: normal completion or abort.
  bool stopped() const noexcept { return done() || abort_requested(); }

  /// Re-arms the detector for the next run (counters survive across runs;
  /// pending_ is naturally zero after a completed run).
  void reset_done() noexcept {
    done_.store(false, std::memory_order_release);
    aborted_.store(false, std::memory_order_release);
  }

  /// Discards the in-flight count. Only legitimate while no worker is
  /// running — the engine calls this when tearing down after an abort left
  /// reserved-but-never-completed visitors behind.
  void reset_pending() noexcept {
    pending_.store(0, std::memory_order_release);
  }

 private:
  alignas(cache_line_size) std::atomic<std::int64_t> pending_{0};
  alignas(cache_line_size) std::atomic<bool> done_{false};
  alignas(cache_line_size) std::atomic<bool> aborted_{false};
};

}  // namespace asyncgt
