// Thread-safe shared/exclusive lock table for the live (wall-clock)
// engine: the LockTable core (runtime/lock_table.h) under one latch.
//
// Architecture:
//   * one std::mutex guards the whole table — the grant/queue core, the
//     per-transaction park slots and the abort flags. One latch measured
//     no slower than a striped table on every live run this repo makes
//     (DESIGN.md §10.1), and it makes every cross-entity step (a wound
//     to a transaction parked elsewhere, a wait-for snapshot) a plain
//     critical section;
//   * blocked requesters park on a per-transaction condition variable
//     paired with the latch, so a release wakes exactly the transactions
//     it grants (no thundering herd).
//
// Lock modes and grant rules are the core's (DESIGN.md §11): S is granted
// whenever no one holds X, exclusive requests queue FIFO, and an S->X
// upgrade keeps its shared hold and queues at the head.
//
// Conflict policies:
//   * kBlock is the paper's certified fast path: a conflicting request
//     parks until granted — no timestamps are consulted, no timeout ever
//     fires, no wait-for graph is ever built. The only extra wake source
//     is RequestStop(), used by the engine's shutdown/watchdog path.
//   * kWoundWait / kWaitDie are the Rosenkrantz-Stearns-Lewis timestamp
//     baselines: conflicts consult timestamps against EACH conflicting
//     holder and resolve by aborting the younger party (Acquire returns
//     kAborted; the caller must release its locks and retry with the
//     same timestamp).
//   * kDetect scans on block (InnoDB-style): a parking waiter snapshots
//     the wait-for graph and aborts the youngest transaction on a cycle,
//     then re-scans every detect_interval_us while it stays parked.
//
// The manager resolves conflicts but never aborts anything itself: an
// aborted Acquire returns kAborted and the CALLER releases held locks via
// Release/ReleaseAll and retries after BeginAttempt.
#ifndef WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_
#define WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/database.h"
#include "core/transaction.h"
#include "runtime/lock_table.h"
#include "runtime/scheduler.h"

namespace wydb {

class StripedLockManager {
 public:
  enum class AcquireStatus : uint8_t {
    kGranted,  ///< The caller now holds the entity in the requested mode.
    kAborted,  ///< Policy decided against the caller (wound / die / victim)
               ///< or RequestAbort was called: release everything, retry.
    kStopped,  ///< RequestStop happened: unwind without retrying.
  };

  struct Options {
    ConflictPolicy policy = ConflictPolicy::kBlock;
    /// kDetect only: how long a parked waiter waits before re-running
    /// the wait-for cycle scan (the first scan runs at park time).
    /// Ignored by every other policy.
    int64_t detect_interval_us = 2000;
  };

  using WaitEdge = LockTable::WaitEdge;

  /// `num_entities` sizes the dense lock table, `num_txns` the
  /// per-transaction park slots. Transaction ids are 0..num_txns-1.
  StripedLockManager(int num_entities, int num_txns, const Options& options);

  /// Blocking acquire in `mode`. Returns kGranted once the caller holds
  /// `entity`, kAborted if the conflict policy (or RequestAbort) turned
  /// the caller into a victim, kStopped after RequestStop. An exclusive
  /// request by a current sharer is an UPGRADE (granted at once if sole
  /// sharer, else queued at the head while the shared hold is kept). Must
  /// not be called while the caller already waits elsewhere (one
  /// outstanding Acquire per transaction).
  AcquireStatus Acquire(int txn, EntityId entity,
                        LockMode mode = LockMode::kExclusive);

  /// Releases `entity` if `txn` holds it in either mode (stale releases
  /// tolerated) and grants the next waiter batch.
  void Release(int txn, EntityId entity);

  /// Abort/commit cleanup: releases every entity in `held` that `txn`
  /// still holds.
  void ReleaseAll(int txn, const std::vector<EntityId>& held);

  /// Clears txn's pending-abort flag; call before each fresh attempt.
  void BeginAttempt(int txn);

  /// Marks `txn` a victim: its current or next Acquire returns kAborted.
  /// Wakes it if it is parked.
  void RequestAbort(int txn);

  /// Wakes every parked transaction with kStopped and fails all future
  /// Acquires. Idempotent.
  void RequestStop();

  /// Timestamp consulted by kWoundWait/kWaitDie (smaller = older). Set
  /// before the transaction's first request; stable across restarts (the
  /// RSL policies' no-livelock argument needs that).
  void SetTimestamp(int txn, uint64_t ts) { timestamp_[txn] = ts; }

  /// Completed lock operations (grants returned to callers + releases).
  /// Cheap (relaxed counter sum); safe to call concurrently.
  uint64_t lock_ops() const {
    return grants_.load(std::memory_order_relaxed) +
           releases_.load(std::memory_order_relaxed);
  }
  /// kDetect: wait-for scans run by parked waiters.
  uint64_t detector_runs() const {
    return detector_runs_.load(std::memory_order_relaxed);
  }
  /// Aborts decided by the conflict policy (not RequestAbort).
  uint64_t policy_aborts() const {
    return policy_aborts_.load(std::memory_order_relaxed);
  }

  // --- Under the latch; not for hot paths. --------------------------------

  /// The core's counters (LockTable): shared-mode grants, completed S->X
  /// upgrades, and queued upgrades abandoned by an abort.
  uint64_t shared_grants() const {
    return Latched([this] { return table_.shared_grants(); });
  }
  uint64_t upgrades() const {
    return Latched([this] { return table_.upgrades(); });
  }
  uint64_t upgrade_aborts() const {
    return Latched([this] { return table_.upgrade_aborts(); });
  }
  /// The exclusive holder if there is one, else an arbitrary shared
  /// holder, else -1. Use IsHolding for membership under shared modes.
  int HolderOf(EntityId entity) const {
    return Latched([&] { return table_.HolderOf(entity); });
  }
  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const {
    return Latched([&] { return table_.IsHolding(txn, entity); });
  }
  /// Number of shared holders of `entity` (0 when exclusively held/free).
  int SharerCountOf(EntityId entity) const {
    return Latched([&] { return table_.SharerCountOf(entity); });
  }
  /// Parked transactions over all entities.
  size_t TotalWaiters() const {
    return Latched([this] { return table_.queued(); });
  }
  /// Consistent snapshot of the wait-for relation: one edge per
  /// conflicting holder — all sharers for a queued exclusive request; an
  /// upgrader never waits on itself.
  std::vector<WaitEdge> WaitForEdges() const {
    return Latched([this] { return WaitForEdgesLocked(); });
  }

 private:
  /// One park slot per transaction. Guarded by the latch.
  struct Slot {
    std::condition_variable cv;
    bool granted = false;  ///< The queued request was granted.
    bool abort = false;    ///< Pending abort: the next wake returns kAborted.
  };

  /// Parks txn on `entity` until granted/aborted/stopped. The caller has
  /// already queued it; `lk` holds the latch. Returns with the request
  /// either granted or unlinked.
  AcquireStatus Park(int txn, EntityId entity,
                     std::unique_lock<std::mutex>& lk);
  /// Drops txn's hold on `entity` and wakes what the core grants. False
  /// if it held nothing. Latch held.
  bool ReleaseLocked(int txn, EntityId entity);
  /// Re-applies the timestamp policies of `entity`'s queued waiters
  /// against its current holders (a fresh holder may be younger than an
  /// older waiter, or older than a younger one). Latch held.
  void ReapplyPolicy(EntityId entity);
  /// Sets txn's abort flag (counting the policy abort on the 0->1 edge)
  /// and wakes it if it is parked. Latch held.
  void FlagPolicyAbort(int txn);
  /// kDetect: abort the youngest transaction on a wait-for cycle, if any.
  /// Latch held.
  void RunDetector();
  std::vector<WaitEdge> WaitForEdgesLocked() const;
  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  template <typename F>
  auto Latched(F&& f) const -> decltype(f()) {
    std::lock_guard<std::mutex> lk(mu_);
    return f();
  }

  Options options_;
  mutable std::mutex mu_;
  LockTable table_;
  std::unique_ptr<Slot[]> slots_;
  std::vector<uint64_t> timestamp_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> grants_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> detector_runs_{0};
  std::atomic<uint64_t> policy_aborts_{0};
};

}  // namespace wydb

#endif  // WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_
