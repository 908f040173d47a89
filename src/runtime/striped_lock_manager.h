// Thread-safe shared/exclusive lock table for the live (wall-clock)
// engine: the flat per-site LockManager rebuilt for real concurrency.
//
// Architecture (the pthread lock tables of real storage engines):
//   * the grant/waiter state of every entity lives in a dense table, but
//     access is guarded by a fixed array of STRIPE latches — entity ->
//     stripe is a pure multiplicative-hash computation, so the lookup
//     itself is lock-free and the stripe count bounds latch contention
//     independently of the entity count;
//   * waiter queues are intrusive: one pre-allocated WaitNode per
//     transaction (a transaction waits on at most one entity at a time),
//     linked through the nodes by transaction index — the hot path never
//     allocates;
//   * blocked requesters park on a per-transaction condition variable
//     paired with the stripe latch, so a release wakes exactly the
//     transactions it grants (no thundering herd).
//
// Lock modes (DESIGN.md §11): any number of shared holders OR one
// exclusive holder per entity. A shared request is granted whenever no
// transaction holds X, even past queued exclusive waiters (the paper's
// model has no queue; DESIGN.md §11.5); exclusive requests queue FIFO,
// and a freed entity grants one X or every queued S. An S->X upgrade
// keeps its shared hold and jumps to the queue HEAD; it is promoted the
// moment it is the sole remaining sharer. Two sharers upgrading the
// same entity deadlock on each other: the timestamp policies resolve it
// by aborting one side up front, and kDetect sees the cycle because
// wait-for edges run to EVERY conflicting holder (an upgrader never
// waits on itself).
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
//     the global wait-for graph (all stripes latched in index order) and
//     aborts the youngest transaction on a cycle, then re-scans every
//     detect_interval_us while it stays parked.
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
    /// Number of latch stripes (rounded up to a power of two; 0 = auto:
    /// a small multiple of the hardware concurrency).
    int num_stripes = 0;
    /// kDetect only: how long a parked waiter waits before re-running
    /// the wait-for cycle scan (the first scan runs at park time).
    /// Ignored by every other policy.
    int64_t detect_interval_us = 2000;
  };

  /// `num_entities` sizes the dense lock table, `num_txns` the
  /// per-transaction wait-node pool. Transaction ids are 0..num_txns-1.
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
  /// Wakes it if it is parked. Never call while holding engine locks that
  /// a parked transaction could be blocked under.
  void RequestAbort(int txn);

  /// Wakes every parked transaction with kStopped and fails all future
  /// Acquires. Idempotent.
  void RequestStop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Timestamp consulted by kWoundWait/kWaitDie (smaller = older). Set
  /// before the transaction's first request; stable across restarts (the
  /// RSL policies' no-livelock argument needs that).
  void SetTimestamp(int txn, uint64_t ts) { timestamp_[txn] = ts; }

  ConflictPolicy policy() const { return options_.policy; }
  int num_stripes() const { return static_cast<int>(stripes_.size()); }

  /// Completed lock operations (grants returned to callers + releases).
  /// Cheap (relaxed counter sum); safe to call concurrently.
  uint64_t lock_ops() const {
    return grants_.load(std::memory_order_relaxed) +
           releases_.load(std::memory_order_relaxed);
  }
  uint64_t grants() const { return grants_.load(std::memory_order_relaxed); }
  /// Shared-mode grants returned to callers (subset of grants()).
  uint64_t shared_grants() const {
    return shared_grants_.load(std::memory_order_relaxed);
  }
  /// Completed S->X upgrades (subset of grants()).
  uint64_t upgrades() const {
    return upgrades_.load(std::memory_order_relaxed);
  }
  /// Upgrade attempts that ended in kAborted.
  uint64_t upgrade_aborts() const {
    return upgrade_aborts_.load(std::memory_order_relaxed);
  }
  /// kDetect: wait-for scans run by timed-out waiters.
  uint64_t detector_runs() const {
    return detector_runs_.load(std::memory_order_relaxed);
  }
  /// Aborts decided by the conflict policy (not RequestAbort).
  uint64_t policy_aborts() const {
    return policy_aborts_.load(std::memory_order_relaxed);
  }

  // --- Introspection (latches stripes; not for hot paths). ---------------

  /// The exclusive holder if there is one, else an arbitrary shared
  /// holder, else -1. Use IsHolding for membership under shared modes.
  int HolderOf(EntityId entity) const;
  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const;
  /// Number of shared holders of `entity` (0 when exclusively held/free).
  int SharerCountOf(EntityId entity) const;
  /// Parked transactions over all entities.
  size_t TotalWaiters() const;

  struct WaitEdge {
    int waiter;
    int holder;
    EntityId entity;
  };
  /// Consistent snapshot of the wait-for relation (latches every stripe
  /// in index order): one edge per conflicting holder — all sharers for a
  /// queued exclusive request; an upgrader never waits on itself.
  std::vector<WaitEdge> WaitForEdges() const;

 private:
  /// Queue/grant state of one entity. Guarded by its stripe's latch.
  struct Entry {
    int32_t holder = -1;            ///< Exclusive holder, or -1.
    std::vector<int32_t> sharers;   ///< Shared holders (empty when X-held).
    int32_t head = -1;              ///< Waiting transaction index, or -1.
    int32_t tail = -1;
  };

  /// One pre-allocated park slot per transaction; all fields except the
  /// atomics are guarded by the stripe latch of `entity`.
  struct WaitNode {
    std::condition_variable cv;
    int32_t next = -1;
    uint8_t granted = 0;
    LockMode mode = LockMode::kExclusive;  ///< Mode of the queued request.
    uint8_t upgrading = 0;  ///< Queued S->X upgrade: still holds S.
    /// Entity this transaction is parked on (set under the stripe latch
    /// before the first predicate check, cleared under it on wake).
    /// Atomic so RequestAbort can chase the parking spot latch-free.
    std::atomic<EntityId> parked_on{kInvalidEntity};
  };

  struct alignas(64) Stripe {
    mutable std::mutex mu;
  };

  size_t StripeOf(EntityId e) const {
    // Multiplicative hash: adjacent entity ids land on different stripes.
    // One stripe means a 64-bit shift, which C++ leaves undefined — that
    // case is index 0 by definition.
    if (stripe_shift_ >= 64) return 0;
    return (static_cast<uint64_t>(static_cast<uint32_t>(e)) *
            0x9E3779B97F4A7C15ull) >>
           stripe_shift_;
  }

  /// Appends txn to entity's waiter queue. Stripe latch held.
  void Enqueue(Entry& entry, int txn, LockMode mode, bool upgrading);
  /// Prepends txn (upgrades). Stripe latch held.
  void EnqueueFront(Entry& entry, int txn, LockMode mode, bool upgrading);
  /// Removes txn from entity's waiter queue if present. Stripe latch held.
  void Unlink(Entry& entry, int txn);
  bool IsSharer(const Entry& entry, int txn) const;
  bool RemoveSharer(Entry& entry, int txn);
  /// Grants what the queue allows (the first grantable X or promotable
  /// upgrade, or every queued S while no one holds X), wakes the
  /// winners, and re-applies the timestamp policy of the remaining
  /// waiters against the new holders. Stripe latch held; entry.holder
  /// must be -1.
  void GrantHead(Entry& entry, std::vector<int>* wounds);
  /// Re-applies the timestamp policies of the queued waiters against the
  /// current holders. Holders parked on OTHER stripes cannot be woken
  /// under this latch; their ids are appended to *wounds (flag already
  /// set) and the caller must WakeIfParked each AFTER dropping the latch.
  /// Stripe latch held.
  void ReapplyPolicy(Entry& entry, std::vector<int>* wounds);
  /// Releases under the latch; grants the next waiter batch.
  void ReleaseLocked(int txn, Entry& entry,
                     std::vector<int>* wounds);

  /// Parks txn on `entity` until granted/aborted/stopped. The caller has
  /// already enqueued it; `lk` holds the stripe latch. Returns the final
  /// status with the node unlinked and parked_on cleared. May return with
  /// `lk` unlocked (give-back wound delivery).
  AcquireStatus Park(int txn, EntityId entity,
                     std::unique_lock<std::mutex>& lk);

  /// Sets txn's abort flag (counting the policy abort on the 0->1 edge)
  /// and notifies its cv. Safe under any latch; pair with a latch-free
  /// WakeIfParked when txn may be parked on another stripe.
  void FlagPolicyAbort(int txn);

  /// kDetect: snapshot the wait-for graph and abort the youngest
  /// transaction on a cycle, if any. Caller holds no stripe latch.
  void RunDetector();

  /// Notifies txn under its parking stripe's latch if it is parked.
  /// Caller holds no stripe latch.
  void WakeIfParked(int txn);

  bool AbortRequested(int txn) const {
    return abort_flag_[txn].load(std::memory_order_acquire) != 0;
  }

  Options options_;
  size_t stripe_shift_;
  std::vector<Stripe> stripes_;
  std::vector<Entry> entries_;
  std::unique_ptr<WaitNode[]> nodes_;
  std::unique_ptr<std::atomic<uint8_t>[]> abort_flag_;
  std::vector<uint64_t> timestamp_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> grants_{0};
  std::atomic<uint64_t> shared_grants_{0};
  std::atomic<uint64_t> upgrades_{0};
  std::atomic<uint64_t> upgrade_aborts_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> detector_runs_{0};
  std::atomic<uint64_t> policy_aborts_{0};
  /// Serializes kDetect scans (one timed-out waiter scans at a time).
  std::mutex detect_mu_;
};

}  // namespace wydb

#endif  // WYDB_RUNTIME_STRIPED_LOCK_MANAGER_H_
