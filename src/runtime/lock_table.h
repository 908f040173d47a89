// The one shared/exclusive grant/queue core behind both lock tables: the
// simulator's per-site LockManager drives it from the event loop, and the
// live engine's StripedLockManager drives it under its one latch. The core
// takes no latch and calls nothing back; it grants, queues, and reports.
//
// Mode semantics (DESIGN.md §11): any number of shared holders OR one
// exclusive holder. A shared request is granted whenever no transaction
// holds the entity exclusively, even past queued exclusive waiters — the
// paper's model has no queue, and a queue rule that parks a compatible S
// creates deadlocks the static certifier cannot see (DESIGN.md §11.5).
// Exclusive requests queue FIFO, and a freed entity grants one X or every
// queued S. An S->X upgrade keeps its shared hold and jumps to the queue
// HEAD; it is promoted the moment it is the sole remaining sharer. Two
// sharers upgrading the same entity therefore deadlock on each other —
// visible as wait-for edges (each waits on every conflicting holder, never
// on itself) and resolvable by the usual policies.
//
// Layout: a dense row per EntityId; queued requests AND shared-holder
// records live in one pooled free-list, linked by pool index, so the
// table stops allocating once the pool reaches its high-water mark.
//
// A transaction may have several requests queued on one entity (the
// simulator's stale attempts); each is granted on its own, with its own
// payload. A request from a transaction that already holds the entity is
// decided like any other — the core never turns it into a grant for the
// caller's benefit, since the grant record names the requesting attempt.
#ifndef WYDB_RUNTIME_LOCK_TABLE_H_
#define WYDB_RUNTIME_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/transaction.h"

namespace wydb {

class LockTable {
 public:
  /// A request the table granted: `node`/`attempt` echo the payload passed
  /// to Request.
  struct Grant {
    int32_t txn;
    int32_t node;
    int32_t attempt;
  };

  /// A (waiter, holder, entity) edge of the wait-for relation.
  struct WaitEdge {
    int waiter;
    int holder;
    EntityId entity;
  };

  enum class Outcome : uint8_t {
    /// Granted at once: S with nothing queued, X on a free entity, or a
    /// sole sharer's upgrade (its waiters already wait on it).
    kGranted,
    /// S granted while requests are queued: a new holder that every
    /// queued waiter must be re-resolved against.
    kGrantedPastWaiters,
    /// Queued: an upgrade at the head, anything else at the tail.
    kQueued,
  };

  explicit LockTable(int num_entities);

  int num_entities() const { return static_cast<int>(table_.size()); }

  /// Decides a request for `entity` in `mode`. An exclusive request by a
  /// current sharer is an UPGRADE. `node` and `attempt` are echoed in the
  /// Grant if the request is granted later.
  Outcome Request(int txn, EntityId entity, LockMode mode, int32_t node,
                  int32_t attempt);

  /// Drops `txn`'s hold on `entity` (the exclusive hold, or one shared
  /// record). False if it held nothing (stale releases are tolerated).
  /// Otherwise grants what the queue now allows — the first grantable X
  /// or promotable upgrade, or every queued S while no one holds X — and
  /// calls on_grant(const Grant&) for each grant, in queue order.
  template <typename OnGrant>
  bool Release(int txn, EntityId entity, OnGrant&& on_grant);

  /// Unlinks every queued request of `txn` on `entity`, counting abandoned
  /// upgrades. False if none was queued. Never makes anything grantable:
  /// whether a waiter is grantable depends on the holders only.
  bool Cancel(int txn, EntityId entity);

  /// Calls fn(holder) for every transaction whose hold on `entity`
  /// conflicts with a queued request of `txn`: the exclusive holder, or
  /// every sharer. `txn` itself is skipped (an upgrader never waits on its
  /// own shared hold).
  template <typename Fn>
  void ForEachConflictingHolder(EntityId entity, int txn, Fn&& fn) const {
    const LockState& state = table_[entity];
    if (state.holder != -1) {
      if (state.holder != txn) fn(static_cast<int>(state.holder));
      return;
    }
    for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
      if (pool_[s].txn != txn) fn(static_cast<int>(pool_[s].txn));
    }
  }

  /// Calls fn(waiter, holder) for every wait-for edge on `entity`: each
  /// queued request, in queue order, against each conflicting holder.
  template <typename Fn>
  void ForEachWaitEdge(EntityId entity, Fn&& fn) const {
    for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
      const int waiter = pool_[w].txn;
      ForEachConflictingHolder(entity, waiter,
                               [&](int holder) { fn(waiter, holder); });
    }
  }

  /// An exclusive holder if there is one, else an arbitrary shared holder,
  /// else -1.
  int HolderOf(EntityId entity) const {
    const LockState& s = table_[entity];
    if (s.holder != -1) return s.holder;
    return s.sharer_head == -1 ? -1 : pool_[s.sharer_head].txn;
  }
  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const {
    return table_[entity].holder == txn || IsSharer(table_[entity], txn);
  }
  /// True iff `txn`'s hold on `entity` already grants `mode` (an X hold
  /// covers S).
  bool Covers(int txn, EntityId entity, LockMode mode) const {
    return table_[entity].holder == txn ||
           (mode == LockMode::kShared && IsSharer(table_[entity], txn));
  }
  /// Number of shared-holder records of `entity`.
  int SharerCountOf(EntityId entity) const;
  bool IsWaitingOn(int txn, EntityId entity) const;
  /// Queued requests over all entities.
  size_t queued() const { return queued_; }

  /// Shared-mode grants (each granted S request counts once).
  uint64_t shared_grants() const { return shared_grants_; }
  /// Completed S->X upgrades.
  uint64_t upgrades() const { return upgrades_; }
  /// Queued upgrades abandoned through Cancel.
  uint64_t upgrade_aborts() const { return upgrade_aborts_; }

  /// Pool introspection (tests): the pool plateaus at the high-water mark
  /// of simultaneous queued requests + shared holders.
  size_t pool_size() const { return pool_.size(); }
  /// Free-listed slots; equals pool_size() when nothing is queued or
  /// shared anywhere.
  size_t free_count() const;

 private:
  /// A queued request, or a shared-holder record (mode S, no payload).
  struct Record {
    int32_t txn;
    int32_t node;
    int32_t attempt;
    int32_t next;  ///< Pool index of the next record in its list, or -1.
    LockMode mode;
    bool upgrade;  ///< Queued S->X upgrade: still holds S on the entity.
  };
  struct LockState {
    int32_t holder = -1;       ///< Exclusive holder, or -1.
    int32_t sharer_head = -1;  ///< Pool index of the first sharer, or -1.
    int32_t head = -1;         ///< Pool index of the first waiter, or -1.
    int32_t tail = -1;
  };

  int32_t Alloc(const Record& record);
  void Free(int32_t idx);
  void AddSharer(LockState& state, int txn);
  bool RemoveSharer(LockState& state, int txn);
  bool IsSharer(const LockState& state, int txn) const;
  bool SoleSharerIs(const LockState& state, int txn) const;
  /// Unlinks queued record `idx` (preceded by `prev`, or -1) and frees it.
  void Unlink(LockState& state, int32_t prev, int32_t idx);

  std::vector<LockState> table_;
  std::vector<Record> pool_;
  int32_t free_head_ = -1;
  size_t queued_ = 0;
  uint64_t shared_grants_ = 0;
  uint64_t upgrades_ = 0;
  uint64_t upgrade_aborts_ = 0;
};

// The operations every lock request and release runs are defined here, in
// the header, so that each manager compiles them inline: out of line, the
// call per operation cost the simulator's closed-loop series 10-18%.

inline int32_t LockTable::Alloc(const Record& record) {
  int32_t idx;
  if (free_head_ != -1) {
    idx = free_head_;
    free_head_ = pool_[idx].next;
  } else {
    idx = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx] = record;
  return idx;
}

inline void LockTable::Free(int32_t idx) {
  pool_[idx].next = free_head_;
  free_head_ = idx;
}

inline void LockTable::AddSharer(LockState& state, int txn) {
  state.sharer_head = Alloc(
      Record{txn, -1, 0, state.sharer_head, LockMode::kShared, false});
}

inline bool LockTable::RemoveSharer(LockState& state, int txn) {
  int32_t prev = -1;
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) {
      if (prev == -1) {
        state.sharer_head = pool_[s].next;
      } else {
        pool_[prev].next = pool_[s].next;
      }
      Free(s);
      return true;
    }
    prev = s;
  }
  return false;
}

inline bool LockTable::IsSharer(const LockState& state, int txn) const {
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) return true;
  }
  return false;
}

inline bool LockTable::SoleSharerIs(const LockState& state, int txn) const {
  return state.sharer_head != -1 && pool_[state.sharer_head].txn == txn &&
         pool_[state.sharer_head].next == -1;
}

inline void LockTable::Unlink(LockState& state, int32_t prev, int32_t idx) {
  if (prev == -1) {
    state.head = pool_[idx].next;
  } else {
    pool_[prev].next = pool_[idx].next;
  }
  if (state.tail == idx) state.tail = prev;
  --queued_;
  Free(idx);
}

inline LockTable::Outcome LockTable::Request(int txn, EntityId entity,
                                             LockMode mode, int32_t node,
                                             int32_t attempt) {
  LockState& state = table_[entity];
  if (mode == LockMode::kExclusive && IsSharer(state, txn)) {
    // S->X upgrade. Immediate if txn is the only sharer; otherwise it
    // keeps its shared hold and queues at the HEAD: granting any later
    // waiter first could never let the upgrade through, and two queued
    // upgrades on one entity are a genuine deadlock the caller resolves.
    if (state.holder == -1 && SoleSharerIs(state, txn)) {
      RemoveSharer(state, txn);
      state.holder = txn;
      ++upgrades_;
      return Outcome::kGranted;
    }
    state.head = Alloc(Record{txn, node, attempt, state.head, mode, true});
    if (state.tail == -1) state.tail = state.head;
    ++queued_;
    return Outcome::kQueued;
  }
  // A shared request is granted whenever no transaction holds x
  // exclusively, queued waiters or not: the paper's model has no queue,
  // and parking a compatible S behind a queued X creates deadlocks the
  // certifier cannot see (DESIGN.md §11.5). X requests queue FIFO.
  if (state.holder == -1 && mode == LockMode::kShared) {
    AddSharer(state, txn);
    ++shared_grants_;
    return state.head == -1 ? Outcome::kGranted
                            : Outcome::kGrantedPastWaiters;
  }
  if (state.holder == -1 && state.head == -1 && state.sharer_head == -1) {
    state.holder = txn;
    return Outcome::kGranted;
  }
  const int32_t idx = Alloc(Record{txn, node, attempt, -1, mode, false});
  if (state.tail == -1) {
    state.head = idx;
  } else {
    pool_[state.tail].next = idx;
  }
  state.tail = idx;
  ++queued_;
  return Outcome::kQueued;
}

inline bool LockTable::Cancel(int txn, EntityId entity) {
  LockState& state = table_[entity];
  bool removed = false;
  int32_t prev = -1;
  for (int32_t w = state.head; w != -1;) {
    const int32_t next = pool_[w].next;
    if (pool_[w].txn == txn) {
      if (pool_[w].upgrade) ++upgrade_aborts_;
      Unlink(state, prev, w);
      removed = true;
    } else {
      prev = w;
    }
    w = next;
  }
  return removed;
}

template <typename OnGrant>
bool LockTable::Release(int txn, EntityId entity, OnGrant&& on_grant) {
  LockState& state = table_[entity];
  if (state.holder == txn) {
    state.holder = -1;
  } else if (!RemoveSharer(state, txn)) {
    return false;
  }
  // While no one holds x exclusively, every queued S is grantable, not
  // only a leading run of them; an X (or an upgrade, promotable once its
  // txn is the sole sharer) ends the scan when granted.
  int32_t prev = -1;
  for (int32_t idx = state.head; idx != -1 && state.holder == -1;) {
    const Record w = pool_[idx];  // A copy: the slot is freed below.
    const bool grant = w.upgrade ? SoleSharerIs(state, w.txn)
                       : w.mode == LockMode::kExclusive
                           ? state.sharer_head == -1
                           : true;
    if (!grant) {
      prev = idx;
      idx = w.next;
      continue;
    }
    Unlink(state, prev, idx);
    if (w.upgrade) {
      RemoveSharer(state, w.txn);
      state.holder = w.txn;
      ++upgrades_;
    } else if (w.mode == LockMode::kExclusive) {
      state.holder = w.txn;
    } else {
      AddSharer(state, w.txn);
      ++shared_grants_;
    }
    on_grant(Grant{w.txn, w.node, w.attempt});
    idx = w.next;
  }
  return true;
}

/// kDetect's victim: the youngest (largest timestamp) transaction on a
/// cycle of the wait-for relation `edges` over transactions
/// 0..timestamp.size()-1, or -1 if the relation is acyclic.
int YoungestOnWaitCycle(const std::vector<LockTable::WaitEdge>& edges,
                        const std::vector<uint64_t>& timestamp);

}  // namespace wydb

#endif  // WYDB_RUNTIME_LOCK_TABLE_H_
