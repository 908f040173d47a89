#include "runtime/lock_manager.h"

namespace wydb {

LockManager::LockManager(SiteId site, int num_entities,
                         std::vector<LockEvent>* out)
    : site_(site),
      table_(num_entities),
      is_touched_(num_entities, 0),
      out_(out) {}

void LockManager::Touch(EntityId entity) {
  if (!is_touched_[entity]) {
    is_touched_[entity] = 1;
    touched_.push_back(entity);
  }
}

int32_t LockManager::AllocWaiter(int txn, int32_t node, int32_t attempt,
                                 LockMode mode, bool upgrade) {
  int32_t idx;
  if (free_head_ != -1) {
    idx = free_head_;
    free_head_ = pool_[idx].next;
  } else {
    idx = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[idx] = Waiter{txn, node, attempt, -1, mode, upgrade};
  return idx;
}

void LockManager::FreeWaiter(int32_t idx) {
  pool_[idx].next = free_head_;
  free_head_ = idx;
}

size_t LockManager::free_waiter_count() const {
  size_t count = 0;
  for (int32_t idx = free_head_; idx != -1; idx = pool_[idx].next) ++count;
  return count;
}

void LockManager::AddSharer(LockState& state, int txn) {
  int32_t idx = AllocWaiter(txn, -1, 0, LockMode::kShared, false);
  pool_[idx].next = state.sharer_head;
  state.sharer_head = idx;
}

bool LockManager::RemoveSharer(LockState& state, int txn) {
  int32_t prev = -1;
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) {
      if (prev == -1) {
        state.sharer_head = pool_[s].next;
      } else {
        pool_[prev].next = pool_[s].next;
      }
      FreeWaiter(s);
      return true;
    }
    prev = s;
  }
  return false;
}

bool LockManager::IsSharer(const LockState& state, int txn) const {
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn == txn) return true;
  }
  return false;
}

bool LockManager::SoleSharerIs(const LockState& state, int txn) const {
  return state.sharer_head != -1 && pool_[state.sharer_head].txn == txn &&
         pool_[state.sharer_head].next == -1;
}

void LockManager::EmitGrant(EntityId entity, const Waiter& w) {
  ++grants_;
  out_->push_back(LockEvent{LockEvent::Kind::kGrant, site_, w.txn, entity,
                            w.node, w.attempt, -1});
}

void LockManager::EmitBlock(EntityId entity, int32_t txn, int32_t holder) {
  out_->push_back(
      LockEvent{LockEvent::Kind::kBlock, site_, txn, entity, -1, 0, holder});
}

void LockManager::EmitBlocksAgainstHolders(EntityId entity, int32_t txn) {
  const LockState& state = table_[entity];
  if (state.holder != -1) {
    if (state.holder != txn) EmitBlock(entity, txn, state.holder);
    return;
  }
  for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
    if (pool_[s].txn != txn) EmitBlock(entity, txn, pool_[s].txn);
  }
}

void LockManager::Request(int txn, EntityId entity, LockMode mode,
                          int32_t node, int32_t attempt) {
  Touch(entity);
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
      EmitGrant(entity, Waiter{txn, node, attempt, -1, mode, false});
      return;
    }
    int32_t idx = AllocWaiter(txn, node, attempt, mode, /*upgrade=*/true);
    pool_[idx].next = state.head;
    state.head = idx;
    if (state.tail == -1) state.tail = idx;
    EmitBlocksAgainstHolders(entity, txn);
    return;
  }

  // A shared request is granted whenever no transaction holds x
  // exclusively, queued waiters or not: the paper's model has no queue,
  // and parking a compatible S behind a queued X creates deadlocks the
  // certifier cannot see (DESIGN.md §11.5). X requests queue FIFO.
  const bool grantable =
      state.holder == -1 &&
      (mode == LockMode::kShared ||
       (state.head == -1 && state.sharer_head == -1));
  if (grantable) {
    if (mode == LockMode::kShared) {
      AddSharer(state, txn);
      ++shared_grants_;
    } else {
      state.holder = txn;
    }
    EmitGrant(entity, Waiter{txn, node, attempt, -1, mode, false});
    // The new sharer is a new holder for every queued waiter: re-emit
    // their block records so the policy is applied against it too.
    for (int32_t w = state.head; w != -1; w = pool_[w].next) {
      EmitBlocksAgainstHolders(entity, pool_[w].txn);
    }
    return;
  }
  int32_t idx = AllocWaiter(txn, node, attempt, mode, /*upgrade=*/false);
  if (state.tail == -1) {
    state.head = state.tail = idx;
  } else {
    pool_[state.tail].next = idx;
    state.tail = idx;
  }
  EmitBlocksAgainstHolders(entity, txn);
}

void LockManager::Release(int txn, EntityId entity) {
  LockState& state = table_[entity];
  if (state.holder == txn) {
    state.holder = -1;
    GrantHead(entity);
    return;
  }
  if (RemoveSharer(state, txn)) GrantHead(entity);
}

void LockManager::GrantHead(EntityId entity) {
  LockState& state = table_[entity];
  bool granted_any = false;
  // While no one holds x exclusively, every queued S is grantable, not
  // only a leading run of them; an X (or an upgrade, promotable once its
  // txn is the sole sharer) ends the scan when granted.
  int32_t prev = -1;
  for (int32_t idx = state.head; idx != -1 && state.holder == -1;) {
    const Waiter w = pool_[idx];  // A copy: AddSharer may grow pool_.
    const bool grant = w.upgrade ? SoleSharerIs(state, w.txn)
                       : w.mode == LockMode::kExclusive
                           ? state.sharer_head == -1
                           : true;
    if (!grant) {
      prev = idx;
      idx = w.next;
      continue;
    }
    if (prev == -1) {
      state.head = w.next;
    } else {
      pool_[prev].next = w.next;
    }
    if (state.tail == idx) state.tail = prev;
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
    EmitGrant(entity, w);
    FreeWaiter(idx);
    granted_any = true;
    idx = w.next;
  }
  if (!granted_any) return;
  // Holdership changed: re-emit block records for the remaining waiters so
  // the caller re-applies the conflict policy against the NEW holders.
  // Without this, wound-wait admits wait cycles: an old transaction queued
  // behind a young one inherits an old->young wait edge when the young
  // waiter is granted first.
  for (int32_t w = state.head; w != -1; w = pool_[w].next) {
    EmitBlocksAgainstHolders(entity, pool_[w].txn);
  }
}

void LockManager::Abort(int txn) {
  for (EntityId entity : touched_) {
    LockState& state = table_[entity];
    bool changed = false;
    int32_t prev = -1;
    for (int32_t w = state.head; w != -1;) {
      int32_t next = pool_[w].next;
      if (pool_[w].txn == txn) {
        if (pool_[w].upgrade) ++upgrade_aborts_;
        if (prev == -1) {
          state.head = next;
        } else {
          pool_[prev].next = next;
        }
        if (state.tail == w) state.tail = prev;
        FreeWaiter(w);
        changed = true;
      } else {
        prev = w;
      }
      w = next;
    }
    if (RemoveSharer(state, txn)) changed = true;
    if (state.holder == txn) {
      state.holder = -1;
      changed = true;
    }
    // Any removal can unblock the head (e.g. dropping a queued X exposes
    // a grantable shared batch, or dropping a sharer promotes an
    // upgrade). GrantHead is a no-op when nothing is grantable.
    if (changed) GrantHead(entity);
  }
}

bool LockManager::IsHolding(int txn, EntityId entity) const {
  const LockState& state = table_[entity];
  return state.holder == txn || IsSharer(state, txn);
}

int LockManager::SharerCountOf(EntityId entity) const {
  int count = 0;
  for (int32_t s = table_[entity].sharer_head; s != -1; s = pool_[s].next) {
    ++count;
  }
  return count;
}

bool LockManager::IsWaiting(int txn) const {
  for (EntityId entity : touched_) {
    for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
      if (pool_[w].txn == txn) return true;
    }
  }
  return false;
}

bool LockManager::IsWaitingOn(int txn, EntityId entity) const {
  for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
    if (pool_[w].txn == txn) return true;
  }
  return false;
}

std::vector<LockManager::WaitEdge> LockManager::WaitForEdges() const {
  std::vector<WaitEdge> edges;
  AppendWaitForEdges(&edges);
  return edges;
}

void LockManager::AppendWaitForEdges(std::vector<WaitEdge>* out) const {
  for (EntityId entity : touched_) {
    const LockState& state = table_[entity];
    for (int32_t w = state.head; w != -1; w = pool_[w].next) {
      if (state.holder != -1) {
        if (state.holder != pool_[w].txn) {
          out->push_back(WaitEdge{pool_[w].txn, state.holder, entity});
        }
        continue;
      }
      for (int32_t s = state.sharer_head; s != -1; s = pool_[s].next) {
        if (pool_[s].txn != pool_[w].txn) {
          out->push_back(WaitEdge{pool_[w].txn, pool_[s].txn, entity});
        }
      }
    }
  }
}

}  // namespace wydb
