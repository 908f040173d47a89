#include "runtime/lock_manager.h"

namespace wydb {

LockManager::LockManager(SiteId site, int num_entities,
                         std::vector<LockEvent>* out)
    : site_(site),
      table_(num_entities),
      is_touched_(num_entities, 0),
      out_(out) {}

void LockManager::EmitGrant(EntityId entity, int32_t txn, int32_t node,
                            int32_t attempt) {
  ++grants_;
  out_->push_back(LockEvent{LockEvent::Kind::kGrant, site_, txn, entity,
                            node, attempt, -1});
}

void LockManager::ReemitBlocks(EntityId entity) {
  table_.ForEachWaitEdge(entity, [&](int waiter, int holder) {
    EmitBlock(entity, waiter, holder);
  });
}

void LockManager::Request(int txn, EntityId entity, LockMode mode,
                          int32_t node, int32_t attempt) {
  if (!is_touched_[entity]) {
    is_touched_[entity] = 1;
    touched_.push_back(entity);
  }
  const LockTable::Outcome outcome =
      table_.Request(txn, entity, mode, node, attempt);
  if (outcome == LockTable::Outcome::kQueued) {
    table_.ForEachConflictingHolder(
        entity, txn, [&](int holder) { EmitBlock(entity, txn, holder); });
    return;
  }
  EmitGrant(entity, txn, node, attempt);
  if (outcome == LockTable::Outcome::kGrantedPastWaiters) {
    ReemitBlocks(entity);
  }
}

void LockManager::Release(int txn, EntityId entity) {
  bool granted = false;
  table_.Release(txn, entity, [&](const LockTable::Grant& g) {
    EmitGrant(entity, g.txn, g.node, g.attempt);
    granted = true;
  });
  if (granted) ReemitBlocks(entity);
}

void LockManager::Abort(int txn) {
  for (EntityId entity : touched_) {
    table_.Cancel(txn, entity);
    Release(txn, entity);
  }
}

bool LockManager::IsWaiting(int txn) const {
  for (EntityId entity : touched_) {
    if (table_.IsWaitingOn(txn, entity)) return true;
  }
  return false;
}

void LockManager::AppendWaitForEdges(std::vector<WaitEdge>* out) const {
  for (EntityId entity : touched_) {
    table_.ForEachWaitEdge(entity, [&](int waiter, int holder) {
      out->push_back(WaitEdge{waiter, holder, entity});
    });
  }
}

}  // namespace wydb
