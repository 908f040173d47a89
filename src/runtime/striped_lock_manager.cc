#include "runtime/striped_lock_manager.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"

namespace wydb {

StripedLockManager::StripedLockManager(int num_entities, int num_txns,
                                       const Options& options)
    : options_(options), table_(num_entities) {
  WYDB_DCHECK(num_entities >= 0);
  WYDB_DCHECK(num_txns > 0);
  slots_ = std::make_unique<Slot[]>(num_txns);
  timestamp_.assign(num_txns, 0);
}

void StripedLockManager::FlagPolicyAbort(int txn) {
  if (!slots_[txn].abort) {
    slots_[txn].abort = true;
    policy_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  slots_[txn].cv.notify_all();
}

void StripedLockManager::ReapplyPolicy(EntityId entity) {
  // Holdership changed: an older wound-wait waiter wounds the fresh
  // holders; a younger wait-die waiter dies now instead of waiting
  // forever behind older ones. A just-granted holder sees the flag with
  // its grant and hands the lock back.
  if (options_.policy != ConflictPolicy::kWoundWait &&
      options_.policy != ConflictPolicy::kWaitDie) {
    return;
  }
  table_.ForEachWaitEdge(entity, [&](int waiter, int holder) {
    switch (ResolveConflict(options_.policy, timestamp_[waiter],
                            timestamp_[holder])) {
      case ConflictAction::kAbortHolder:
        FlagPolicyAbort(holder);
        break;
      case ConflictAction::kAbortRequester:
        FlagPolicyAbort(waiter);
        break;
      case ConflictAction::kWait:
        break;
    }
  });
}

StripedLockManager::AcquireStatus StripedLockManager::Acquire(int txn,
                                                              EntityId entity,
                                                              LockMode mode) {
  std::unique_lock<std::mutex> lk(mu_);
  if (stopped()) return AcquireStatus::kStopped;
  if (slots_[txn].abort) return AcquireStatus::kAborted;
  if (table_.Covers(txn, entity, mode)) {
    // Re-grant of an already-held entity (the executor never does this,
    // but the table stays consistent if a caller retries).
    grants_.fetch_add(1, std::memory_order_relaxed);
    return AcquireStatus::kGranted;
  }
  switch (table_.Request(txn, entity, mode, -1, 0)) {
    case LockTable::Outcome::kGrantedPastWaiters:
      ReapplyPolicy(entity);  // The new sharer is a new holder for them.
      [[fallthrough]];
    case LockTable::Outcome::kGranted:
      grants_.fetch_add(1, std::memory_order_relaxed);
      return AcquireStatus::kGranted;
    case LockTable::Outcome::kQueued:
      break;
  }
  // Conflict. Timestamp policies resolve it against EACH conflicting
  // holder before parking; kBlock and kDetect park straight away.
  if (options_.policy == ConflictPolicy::kWoundWait ||
      options_.policy == ConflictPolicy::kWaitDie) {
    bool requester_dies = false;
    table_.ForEachConflictingHolder(entity, txn, [&](int holder) {
      switch (ResolveConflict(options_.policy, timestamp_[txn],
                              timestamp_[holder])) {
        case ConflictAction::kAbortRequester:
          requester_dies = true;
          break;
        case ConflictAction::kAbortHolder:
          FlagPolicyAbort(holder);  // Wakes it even if parked elsewhere.
          break;
        case ConflictAction::kWait:
          break;
      }
    });
    if (requester_dies) {
      table_.Cancel(txn, entity);
      policy_aborts_.fetch_add(1, std::memory_order_relaxed);
      return AcquireStatus::kAborted;
    }
  }
  return Park(txn, entity, lk);
}

StripedLockManager::AcquireStatus StripedLockManager::Park(
    int txn, EntityId entity, std::unique_lock<std::mutex>& lk) {
  Slot& slot = slots_[txn];
  const bool timed = options_.policy == ConflictPolicy::kDetect;
  const auto interval = std::chrono::microseconds(
      std::max<int64_t>(1, options_.detect_interval_us));
  // kDetect scans on block (the industrial baseline: InnoDB-style
  // detection on every lock wait). A live system cannot observe
  // quiescence the way the discrete-event engine does, so the detector
  // runs the moment a waiter parks — that is detection's hot-path price —
  // and then again after every full interval the waiter stays parked.
  bool scan = timed;
  for (;;) {
    if (slot.granted) {
      slot.granted = false;
      if (!slot.abort && !stopped()) {
        grants_.fetch_add(1, std::memory_order_relaxed);
        return AcquireStatus::kGranted;
      }
      // A pending abort (a wound delivered while parked, or with the
      // grant) wins: hand the lock straight back.
      ReleaseLocked(txn, entity);
      return stopped() ? AcquireStatus::kStopped : AcquireStatus::kAborted;
    }
    if (slot.abort || stopped()) {
      table_.Cancel(txn, entity);
      return stopped() ? AcquireStatus::kStopped : AcquireStatus::kAborted;
    }
    if (scan) {
      RunDetector();  // May pick us: the loop re-checks the flags.
      scan = false;
    } else if (timed) {
      scan = slot.cv.wait_for(lk, interval) == std::cv_status::timeout;
    } else {
      slot.cv.wait(lk);
    }
  }
}

bool StripedLockManager::ReleaseLocked(int txn, EntityId entity) {
  bool granted = false;
  const bool held = table_.Release(txn, entity, [&](const LockTable::Grant& g) {
    slots_[g.txn].granted = true;
    slots_[g.txn].cv.notify_one();
    granted = true;
  });
  if (granted) ReapplyPolicy(entity);
  return held;
}

void StripedLockManager::Release(int txn, EntityId entity) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ReleaseLocked(txn, entity)) {
    releases_.fetch_add(1, std::memory_order_relaxed);
  }
}

void StripedLockManager::ReleaseAll(int txn,
                                    const std::vector<EntityId>& held) {
  for (EntityId e : held) Release(txn, e);
}

void StripedLockManager::BeginAttempt(int txn) {
  std::lock_guard<std::mutex> lk(mu_);
  slots_[txn].abort = false;
}

void StripedLockManager::RequestAbort(int txn) {
  std::lock_guard<std::mutex> lk(mu_);
  slots_[txn].abort = true;
  slots_[txn].cv.notify_all();
}

void StripedLockManager::RequestStop() {
  stop_.store(true, std::memory_order_release);
  // A waiter checks stop_ under the latch before every wait, so one that
  // parks after this store never sleeps, and one already parked is here.
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t t = 0; t < timestamp_.size(); ++t) slots_[t].cv.notify_all();
}

void StripedLockManager::RunDetector() {
  if (stopped()) return;
  detector_runs_.fetch_add(1, std::memory_order_relaxed);
  const int victim = YoungestOnWaitCycle(WaitForEdgesLocked(), timestamp_);
  if (victim != -1) FlagPolicyAbort(victim);
}

std::vector<StripedLockManager::WaitEdge>
StripedLockManager::WaitForEdgesLocked() const {
  std::vector<WaitEdge> edges;
  for (EntityId e = 0; e < table_.num_entities(); ++e) {
    table_.ForEachWaitEdge(e, [&](int waiter, int holder) {
      edges.push_back(WaitEdge{waiter, holder, e});
    });
  }
  return edges;
}

}  // namespace wydb
