#include "runtime/striped_lock_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"

namespace wydb {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

StripedLockManager::StripedLockManager(int num_entities, int num_txns,
                                       const Options& options)
    : options_(options) {
  WYDB_DCHECK(num_entities >= 0);
  WYDB_DCHECK(num_txns > 0);
  size_t stripes = options.num_stripes > 0
                       ? RoundUpPow2(static_cast<size_t>(options.num_stripes))
                       : RoundUpPow2(std::max<size_t>(
                             8, 2 * std::thread::hardware_concurrency()));
  stripes = std::min(stripes, RoundUpPow2(std::max(1, num_entities)));
  stripe_shift_ = 64;
  for (size_t p = stripes; p > 1; p >>= 1) --stripe_shift_;
  stripes_ = std::vector<Stripe>(stripes);
  entries_.resize(num_entities);
  nodes_ = std::make_unique<WaitNode[]>(num_txns);
  abort_flag_ = std::make_unique<std::atomic<uint8_t>[]>(num_txns);
  for (int t = 0; t < num_txns; ++t)
    abort_flag_[t].store(0, std::memory_order_relaxed);
  timestamp_.assign(num_txns, 0);
}

void StripedLockManager::Enqueue(Entry& entry, int txn, LockMode mode,
                                 bool upgrading) {
  WaitNode& node = nodes_[txn];
  node.next = -1;
  node.granted = 0;
  node.mode = mode;
  node.upgrading = upgrading ? 1 : 0;
  if (entry.tail < 0) {
    entry.head = entry.tail = txn;
  } else {
    nodes_[entry.tail].next = txn;
    entry.tail = txn;
  }
}

void StripedLockManager::EnqueueFront(Entry& entry, int txn, LockMode mode,
                                      bool upgrading) {
  WaitNode& node = nodes_[txn];
  node.granted = 0;
  node.mode = mode;
  node.upgrading = upgrading ? 1 : 0;
  node.next = entry.head;
  entry.head = txn;
  if (entry.tail < 0) entry.tail = txn;
}

void StripedLockManager::Unlink(Entry& entry, int txn) {
  int32_t prev = -1;
  for (int32_t cur = entry.head; cur >= 0; cur = nodes_[cur].next) {
    if (cur == txn) {
      if (prev < 0) {
        entry.head = nodes_[cur].next;
      } else {
        nodes_[prev].next = nodes_[cur].next;
      }
      if (entry.tail == txn) entry.tail = prev;
      nodes_[cur].next = -1;
      return;
    }
    prev = cur;
  }
}

bool StripedLockManager::IsSharer(const Entry& entry, int txn) const {
  return std::find(entry.sharers.begin(), entry.sharers.end(), txn) !=
         entry.sharers.end();
}

bool StripedLockManager::RemoveSharer(Entry& entry, int txn) {
  auto it = std::find(entry.sharers.begin(), entry.sharers.end(), txn);
  if (it == entry.sharers.end()) return false;
  entry.sharers.erase(it);
  return true;
}

void StripedLockManager::FlagPolicyAbort(int txn) {
  if (abort_flag_[txn].exchange(1, std::memory_order_seq_cst) == 0)
    policy_aborts_.fetch_add(1, std::memory_order_relaxed);
  nodes_[txn].cv.notify_all();
}

void StripedLockManager::GrantHead(Entry& entry,
                                   std::vector<int>* wounds) {
  WYDB_DCHECK(entry.holder < 0);
  bool granted_any = false;
  // While no one holds X, every queued S is grantable, not only a leading
  // run of them; an X (or an upgrade, promotable once it is the sole
  // remaining sharer) ends the scan when granted.
  int32_t prev = -1;
  for (int32_t w = entry.head; w >= 0 && entry.holder < 0;) {
    WaitNode& node = nodes_[w];
    const int32_t next = node.next;
    const bool grant =
        node.upgrading ? entry.sharers.size() == 1 && entry.sharers[0] == w
        : node.mode == LockMode::kExclusive ? entry.sharers.empty()
                                            : true;
    if (!grant) {
      prev = w;
      w = next;
      continue;
    }
    if (prev < 0) {
      entry.head = next;
    } else {
      nodes_[prev].next = next;
    }
    if (entry.tail == w) entry.tail = prev;
    node.next = -1;
    if (node.mode == LockMode::kExclusive) {
      entry.sharers.clear();  // An upgrader's own shared hold.
      entry.holder = w;
    } else {
      entry.sharers.push_back(w);
    }
    node.granted = 1;
    node.cv.notify_one();
    granted_any = true;
    w = next;
  }
  if (granted_any) ReapplyPolicy(entry, wounds);
}

void StripedLockManager::ReapplyPolicy(Entry& entry,
                                       std::vector<int>* wounds) {
  // Holdership changed: the timestamp policies must be re-applied for the
  // remaining waiters against the NEW holders (the flat LockManager's
  // grant-echo idiom). An older wound-wait waiter wounds the fresh
  // holders; a younger wait-die waiter dies now instead of waiting
  // forever behind older ones. Just-granted holders are woken on THIS
  // stripe, so flagging them here is safe — they observe the flag
  // together with the grant and unwind through the kAborted give-back.
  // A PRE-EXISTING sharer may be parked on another stripe: its flag is
  // set here but the wake is deferred to the caller via *wounds
  // (WakeIfParked latches that stripe; doing so under this latch would
  // invert the latch order).
  if (options_.policy != ConflictPolicy::kWoundWait &&
      options_.policy != ConflictPolicy::kWaitDie) {
    return;
  }
  for (int32_t w = entry.head; w >= 0;) {
    int32_t next = nodes_[w].next;
    if (entry.holder >= 0) {
      ConflictAction action = ResolveConflict(options_.policy, timestamp_[w],
                                              timestamp_[entry.holder]);
      if (action == ConflictAction::kAbortHolder) {
        FlagPolicyAbort(entry.holder);
      } else if (action == ConflictAction::kAbortRequester) {
        FlagPolicyAbort(w);
      }
    } else {
      for (int s : entry.sharers) {
        if (s == w) continue;  // An upgrader never waits on itself.
        ConflictAction action =
            ResolveConflict(options_.policy, timestamp_[w], timestamp_[s]);
        if (action == ConflictAction::kAbortHolder) {
          FlagPolicyAbort(s);
          if (wounds != nullptr) wounds->push_back(s);
        } else if (action == ConflictAction::kAbortRequester) {
          FlagPolicyAbort(w);
        }
      }
    }
    w = next;
  }
}

StripedLockManager::AcquireStatus StripedLockManager::Acquire(int txn,
                                                              EntityId entity,
                                                              LockMode mode) {
  if (stop_.load(std::memory_order_acquire)) return AcquireStatus::kStopped;
  if (AbortRequested(txn)) return AcquireStatus::kAborted;
  Stripe& stripe = stripes_[StripeOf(entity)];
  std::unique_lock<std::mutex> lk(stripe.mu);
  Entry& entry = entries_[entity];
  if (entry.holder == txn || (mode == LockMode::kShared && IsSharer(entry, txn))) {
    // Re-grant of an already-held entity (the executor never does this,
    // but the table stays consistent if a caller retries). An exclusive
    // hold subsumes a shared request.
    grants_.fetch_add(1, std::memory_order_relaxed);
    return AcquireStatus::kGranted;
  }

  const bool upgrading =
      mode == LockMode::kExclusive && IsSharer(entry, txn);
  if (upgrading && entry.holder < 0 && entry.sharers.size() == 1) {
    // Sole sharer: promote in place.
    entry.sharers.clear();
    entry.holder = txn;
    grants_.fetch_add(1, std::memory_order_relaxed);
    upgrades_.fetch_add(1, std::memory_order_relaxed);
    return AcquireStatus::kGranted;
  }
  if (!upgrading) {
    // A shared request is granted whenever no transaction holds X, queued
    // waiters or not: the paper's model has no queue, and parking a
    // compatible S behind a queued X creates deadlocks the certifier
    // cannot see (DESIGN.md §11.5). X requests queue FIFO.
    const bool grantable =
        entry.holder < 0 &&
        (mode == LockMode::kShared ||
         (entry.head < 0 && entry.sharers.empty()));
    if (grantable) {
      grants_.fetch_add(1, std::memory_order_relaxed);
      if (mode == LockMode::kExclusive) {
        entry.holder = txn;
        return AcquireStatus::kGranted;
      }
      entry.sharers.push_back(txn);
      shared_grants_.fetch_add(1, std::memory_order_relaxed);
      if (entry.head < 0) return AcquireStatus::kGranted;
      // The new sharer is a new holder for every queued waiter.
      std::vector<int> wounds;
      ReapplyPolicy(entry, &wounds);
      lk.unlock();
      for (int b : wounds) WakeIfParked(b);
      return AcquireStatus::kGranted;
    }
  }

  // Conflict. Timestamp policies resolve it against EACH conflicting
  // holder before anyone parks; kBlock and kDetect go straight to the
  // queue.
  std::vector<int> wounds;
  if (options_.policy == ConflictPolicy::kWoundWait ||
      options_.policy == ConflictPolicy::kWaitDie) {
    std::vector<int> blockers;
    if (upgrading) {
      for (int s : entry.sharers) {
        if (s != txn) blockers.push_back(s);
      }
    } else if (entry.holder >= 0) {
      blockers.push_back(entry.holder);
    } else if (mode == LockMode::kExclusive && !entry.sharers.empty()) {
      blockers = entry.sharers;
    } else {
      // Free entity but a non-empty queue (an X request, transiently
      // between a release and the winner waking): FIFO order still
      // applies — resolve against the queue head, the txn about to
      // become holder.
      blockers.push_back(entry.head);
    }
    bool requester_dies = false;
    for (int b : blockers) {
      ConflictAction action =
          ResolveConflict(options_.policy, timestamp_[txn], timestamp_[b]);
      if (action == ConflictAction::kAbortRequester) {
        requester_dies = true;
        break;
      }
      if (action == ConflictAction::kAbortHolder) wounds.push_back(b);
    }
    if (requester_dies) {
      policy_aborts_.fetch_add(1, std::memory_order_relaxed);
      if (upgrading) upgrade_aborts_.fetch_add(1, std::memory_order_relaxed);
      return AcquireStatus::kAborted;
    }
  }

  // An upgrade queues at the HEAD keeping its shared hold: granting any
  // later waiter first could never let the upgrade through, and two
  // queued upgrades on one entity are a genuine deadlock the policy (or
  // detector) resolves.
  if (upgrading) {
    EnqueueFront(entry, txn, mode, /*upgrading=*/true);
  } else {
    Enqueue(entry, txn, mode, /*upgrading=*/false);
  }
  nodes_[txn].parked_on.store(entity, std::memory_order_seq_cst);
  if (!wounds.empty()) {
    // Wounds are delivered AFTER this stripe's latch is dropped: a
    // wounded holder may be parked on a different stripe, and waking it
    // there while holding this latch would be a latch-order inversion.
    // The queue slot keeps our claim in the window.
    lk.unlock();
    for (int b : wounds) {
      if (abort_flag_[b].exchange(1, std::memory_order_seq_cst) == 0)
        policy_aborts_.fetch_add(1, std::memory_order_relaxed);
      WakeIfParked(b);
    }
    lk.lock();
  }
  return Park(txn, entity, lk);
}

StripedLockManager::AcquireStatus StripedLockManager::Park(
    int txn, EntityId entity, std::unique_lock<std::mutex>& lk) {
  WaitNode& node = nodes_[txn];
  const bool was_upgrading = node.upgrading != 0;
  const bool timed = options_.policy == ConflictPolicy::kDetect;
  const auto interval =
      std::chrono::microseconds(std::max<int64_t>(1, options_.detect_interval_us));
  if (timed && !node.granted && !AbortRequested(txn) &&
      !stop_.load(std::memory_order_acquire)) {
    // Scan on block (the industrial baseline: InnoDB-style detection on
    // every lock wait). A live system cannot observe quiescence the way
    // the discrete-event engine does, so the detector runs the moment a
    // waiter parks — that is detection's hot-path price — and then
    // re-arms every detect_interval_us for cycles that form later. The
    // scan latches every stripe, so ours drops first; the queue slot
    // keeps the claim while unlatched.
    lk.unlock();
    RunDetector();
    lk.lock();
  }
  for (;;) {
    if (node.granted) {
      // Granted — but a pending abort (wound delivered while parked, or
      // delivered in the grant-echo) wins: give the hold straight back.
      node.parked_on.store(kInvalidEntity, std::memory_order_seq_cst);
      if (AbortRequested(txn) || stop_.load(std::memory_order_acquire)) {
        Entry& entry = entries_[entity];
        node.granted = 0;
        if (entry.holder == txn) {
          entry.holder = -1;
        } else {
          RemoveSharer(entry, txn);  // A shared grant being returned.
        }
        std::vector<int> wounds;
        if (entry.holder < 0) GrantHead(entry, &wounds);
        const bool stopped = stop_.load(std::memory_order_acquire);
        if (!stopped && was_upgrading)
          upgrade_aborts_.fetch_add(1, std::memory_order_relaxed);
        if (!wounds.empty()) {
          lk.unlock();
          for (int b : wounds) WakeIfParked(b);
        }
        return stopped ? AcquireStatus::kStopped : AcquireStatus::kAborted;
      }
      grants_.fetch_add(1, std::memory_order_relaxed);
      if (was_upgrading) {
        upgrades_.fetch_add(1, std::memory_order_relaxed);
      } else if (node.mode == LockMode::kShared) {
        shared_grants_.fetch_add(1, std::memory_order_relaxed);
      }
      return AcquireStatus::kGranted;
    }
    if (stop_.load(std::memory_order_acquire) || AbortRequested(txn)) {
      Unlink(entries_[entity], txn);
      node.parked_on.store(kInvalidEntity, std::memory_order_seq_cst);
      if (stop_.load(std::memory_order_acquire)) return AcquireStatus::kStopped;
      if (was_upgrading)
        upgrade_aborts_.fetch_add(1, std::memory_order_relaxed);
      return AcquireStatus::kAborted;
    }
    if (timed) {
      if (node.cv.wait_for(lk, interval) == std::cv_status::timeout &&
          !node.granted && !AbortRequested(txn) &&
          !stop_.load(std::memory_order_acquire)) {
        // Still stuck after a full interval: scan for a cycle. The scan
        // latches every stripe, so ours must be dropped first; the queue
        // slot keeps our claim while unlatched.
        lk.unlock();
        RunDetector();
        lk.lock();
      }
    } else {
      node.cv.wait(lk);
    }
  }
}

void StripedLockManager::ReleaseLocked(int txn, Entry& entry,
                                       std::vector<int>* wounds) {
  if (entry.holder == txn) {
    entry.holder = -1;
    releases_.fetch_add(1, std::memory_order_relaxed);
    GrantHead(entry, wounds);
    return;
  }
  if (!RemoveSharer(entry, txn)) return;  // Stale release: tolerated.
  releases_.fetch_add(1, std::memory_order_relaxed);
  if (entry.holder < 0) GrantHead(entry, wounds);
}

void StripedLockManager::Release(int txn, EntityId entity) {
  std::vector<int> wounds;
  {
    Stripe& stripe = stripes_[StripeOf(entity)];
    std::lock_guard<std::mutex> lk(stripe.mu);
    ReleaseLocked(txn, entries_[entity], &wounds);
  }
  for (int b : wounds) WakeIfParked(b);
}

void StripedLockManager::ReleaseAll(int txn,
                                    const std::vector<EntityId>& held) {
  for (EntityId e : held) Release(txn, e);
}

void StripedLockManager::BeginAttempt(int txn) {
  abort_flag_[txn].store(0, std::memory_order_seq_cst);
}

void StripedLockManager::RequestAbort(int txn) {
  abort_flag_[txn].store(1, std::memory_order_seq_cst);
  WakeIfParked(txn);
}

void StripedLockManager::WakeIfParked(int txn) {
  // The abort-flag store and the parked_on stores in Acquire/Park are
  // all seq_cst, and the waiter re-checks the flag under the stripe
  // latch before every wait: either we observe its parking spot here and
  // notify under that latch, or the waiter's predicate check happens
  // after the flag store and sees the flag itself. The loop handles the
  // waiter migrating between the loads.
  for (;;) {
    EntityId e = nodes_[txn].parked_on.load(std::memory_order_seq_cst);
    if (e == kInvalidEntity) return;
    Stripe& stripe = stripes_[StripeOf(e)];
    std::lock_guard<std::mutex> lk(stripe.mu);
    if (nodes_[txn].parked_on.load(std::memory_order_seq_cst) == e) {
      nodes_[txn].cv.notify_all();
      return;
    }
  }
}

void StripedLockManager::RequestStop() {
  stop_.store(true, std::memory_order_seq_cst);
  // Notify every current waiter under its stripe latch: a waiter already
  // parked when we latch its entity's stripe gets the notify; one that
  // parks later re-checks stop_ under the latch first and never sleeps.
  for (size_t e = 0; e < entries_.size(); ++e) {
    Stripe& stripe = stripes_[StripeOf(static_cast<EntityId>(e))];
    std::lock_guard<std::mutex> lk(stripe.mu);
    for (int32_t w = entries_[e].head; w >= 0; w = nodes_[w].next) {
      nodes_[w].cv.notify_all();
    }
  }
}

void StripedLockManager::RunDetector() {
  std::lock_guard<std::mutex> detect_lk(detect_mu_);
  if (stop_.load(std::memory_order_acquire)) return;
  detector_runs_.fetch_add(1, std::memory_order_relaxed);
  // Latch all stripes in index order (the one place two stripe latches
  // are ever held together; ordered, so no latch cycle) for a consistent
  // wait-for snapshot.
  std::vector<std::unique_lock<std::mutex>> latches;
  latches.reserve(stripes_.size());
  for (Stripe& stripe : stripes_) latches.emplace_back(stripe.mu);

  const int n = static_cast<int>(timestamp_.size());
  Digraph wait_for(n);
  for (size_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    for (int32_t w = entry.head; w >= 0; w = nodes_[w].next) {
      if (entry.holder >= 0) {
        wait_for.AddArc(w, entry.holder);
      } else {
        // Blocked by shared holders: one edge per sharer. An upgrader is
        // itself a sharer — skip the self-edge, keep the edges to the
        // OTHER sharers (this is what makes an upgrade-deadlock between
        // two sharers a visible 2-cycle).
        for (int s : entry.sharers) {
          if (s != w) wait_for.AddArc(w, s);
        }
      }
    }
  }
  std::vector<NodeId> cycle = FindCycle(wait_for);
  if (cycle.empty()) return;
  // Abort the youngest (largest timestamp) transaction on the cycle.
  int victim = cycle.front();
  for (NodeId t : cycle) {
    if (timestamp_[t] > timestamp_[victim]) victim = t;
  }
  if (abort_flag_[victim].exchange(1, std::memory_order_seq_cst) == 0)
    policy_aborts_.fetch_add(1, std::memory_order_relaxed);
  nodes_[victim].cv.notify_all();  // Its stripe latch is held (all are).
}

int StripedLockManager::HolderOf(EntityId entity) const {
  const Stripe& stripe = stripes_[StripeOf(entity)];
  std::lock_guard<std::mutex> lk(stripe.mu);
  const Entry& entry = entries_[entity];
  if (entry.holder >= 0) return entry.holder;
  return entry.sharers.empty() ? -1 : entry.sharers.front();
}

bool StripedLockManager::IsHolding(int txn, EntityId entity) const {
  const Stripe& stripe = stripes_[StripeOf(entity)];
  std::lock_guard<std::mutex> lk(stripe.mu);
  const Entry& entry = entries_[entity];
  return entry.holder == txn || IsSharer(entry, txn);
}

int StripedLockManager::SharerCountOf(EntityId entity) const {
  const Stripe& stripe = stripes_[StripeOf(entity)];
  std::lock_guard<std::mutex> lk(stripe.mu);
  return static_cast<int>(entries_[entity].sharers.size());
}

size_t StripedLockManager::TotalWaiters() const {
  size_t count = 0;
  for (size_t s = 0; s < stripes_.size(); ++s) {
    std::lock_guard<std::mutex> lk(stripes_[s].mu);
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (StripeOf(static_cast<EntityId>(e)) != s) continue;
      for (int32_t w = entries_[e].head; w >= 0; w = nodes_[w].next) ++count;
    }
  }
  return count;
}

std::vector<StripedLockManager::WaitEdge> StripedLockManager::WaitForEdges()
    const {
  std::vector<std::unique_lock<std::mutex>> latches;
  latches.reserve(stripes_.size());
  for (const Stripe& stripe : stripes_) latches.emplace_back(stripe.mu);
  std::vector<WaitEdge> edges;
  for (size_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    for (int32_t w = entry.head; w >= 0; w = nodes_[w].next) {
      if (entry.holder >= 0) {
        edges.push_back(WaitEdge{w, entry.holder, static_cast<EntityId>(e)});
      } else {
        for (int s : entry.sharers) {
          if (s != w) {
            edges.push_back(WaitEdge{w, s, static_cast<EntityId>(e)});
          }
        }
      }
    }
  }
  return edges;
}

}  // namespace wydb
