#include "runtime/lock_table.h"

#include "graph/algorithms.h"
#include "graph/digraph.h"

namespace wydb {

LockTable::LockTable(int num_entities) : table_(num_entities) {}

size_t LockTable::free_count() const {
  size_t count = 0;
  for (int32_t idx = free_head_; idx != -1; idx = pool_[idx].next) ++count;
  return count;
}

int LockTable::SharerCountOf(EntityId entity) const {
  int count = 0;
  for (int32_t s = table_[entity].sharer_head; s != -1; s = pool_[s].next) {
    ++count;
  }
  return count;
}

bool LockTable::IsWaitingOn(int txn, EntityId entity) const {
  for (int32_t w = table_[entity].head; w != -1; w = pool_[w].next) {
    if (pool_[w].txn == txn) return true;
  }
  return false;
}

int YoungestOnWaitCycle(const std::vector<LockTable::WaitEdge>& edges,
                        const std::vector<uint64_t>& timestamp) {
  Digraph wait_for(static_cast<int>(timestamp.size()));
  for (const LockTable::WaitEdge& e : edges) {
    wait_for.AddArc(e.waiter, e.holder);
  }
  const std::vector<NodeId> cycle = FindCycle(wait_for);
  if (cycle.empty()) return -1;
  int victim = cycle.front();
  for (NodeId t : cycle) {
    if (timestamp[t] > timestamp[victim]) victim = t;
  }
  return victim;
}

}  // namespace wydb
