// Per-site shared/exclusive lock table with FIFO wait queues — the
// substrate a 1985 distributed DBMS would run at each site.
//
// The grant rules, queues and counters are the shared LockTable core
// (runtime/lock_table.h, DESIGN.md §11). This layer adds what the
// discrete-event engine needs: operations never call back into the
// engine; instead they append POD LockEvent records to an output buffer
// the engine drains after each call, and a touched-entity list lets Abort
// and WaitForEdges skip the rows of other sites.
#ifndef WYDB_RUNTIME_LOCK_MANAGER_H_
#define WYDB_RUNTIME_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/transaction.h"
#include "runtime/lock_table.h"

namespace wydb {

/// \brief POD record emitted by lock-table operations.
///
/// `kGrant`: `txn` now holds `entity`; `node`/`attempt` echo the waiter
/// payload passed to Request (the Lock step being served). The engine must
/// validate `attempt` against the executor and give the lock back if the
/// attempt went stale while the grant was pending.
///
/// `kBlock`: `txn` is queued on `entity` behind `holder`. With shared
/// holders one record is emitted PER conflicting holder, so a timestamp
/// policy resolves the request against each of them. Emitted when a
/// request queues and re-emitted for every remaining waiter when
/// holdership changes. The engine must re-validate the edge (holder still
/// holds, txn still waiting) at processing time: the table may have moved
/// on while the record sat in the buffer.
struct LockEvent {
  enum class Kind : uint8_t { kGrant, kBlock };
  Kind kind;
  SiteId site;
  int32_t txn;
  EntityId entity;
  int32_t node;     ///< Grant only: waiter payload.
  int32_t attempt;  ///< Grant only: waiter payload.
  int32_t holder;   ///< Block only: the transaction being waited on.
};

/// \brief Shared/exclusive locks for the entities of one site.
///
/// The manager is purely mechanical: grant if compatible, queue if not.
/// Policy (wound-wait etc.) is applied by the caller by reacting to the
/// kBlock records and issuing Abort.
class LockManager {
 public:
  using WaitEdge = LockTable::WaitEdge;

  /// `num_entities` sizes the dense table (global entity id space; rows
  /// for entities of other sites stay untouched). Events are appended to
  /// `*out`, which must outlive the manager.
  LockManager(SiteId site, int num_entities, std::vector<LockEvent>* out);

  /// Requests a lock in `mode` for transaction `txn`. Emits kGrant
  /// (immediately if compatible) or queues and emits kBlock per
  /// conflicting holder. An exclusive request by a current sharer is an
  /// UPGRADE: granted at once if `txn` is the sole sharer, otherwise
  /// queued at the head while the shared hold is kept. `node` and
  /// `attempt` are opaque payload echoed in the grant record.
  void Request(int txn, EntityId entity, LockMode mode, int32_t node = -1,
               int32_t attempt = 0);
  /// Back-compat: exclusive request.
  void Request(int txn, EntityId entity, int32_t node = -1,
               int32_t attempt = 0) {
    Request(txn, entity, LockMode::kExclusive, node, attempt);
  }

  /// Releases `entity` if `txn` holds it in either mode (no-op otherwise —
  /// stale release messages from aborted attempts are tolerated). Grants
  /// the next waiter batch, if any.
  void Release(int txn, EntityId entity);

  /// Aborts `txn` at this site: drops its queued requests (counting
  /// abandoned upgrades) and releases all locks it holds in either mode
  /// (granting waiters).
  void Abort(int txn);

  /// An exclusive holder if there is one, else an arbitrary shared holder,
  /// else -1. Use IsHolding for membership tests under shared modes.
  int HolderOf(EntityId entity) const { return table_.HolderOf(entity); }
  /// True iff `txn` holds `entity` in either mode.
  bool IsHolding(int txn, EntityId entity) const {
    return table_.IsHolding(txn, entity);
  }
  /// Number of shared holders of `entity` (0 when exclusively held/free).
  int SharerCountOf(EntityId entity) const {
    return table_.SharerCountOf(entity);
  }

  bool IsWaiting(int txn) const;
  bool IsWaitingOn(int txn, EntityId entity) const {
    return table_.IsWaitingOn(txn, entity);
  }

  /// Edges of this site's wait-for relation: one edge per conflicting
  /// holder (all sharers for a queued X request; an upgrader never waits
  /// on itself).
  void AppendWaitForEdges(std::vector<WaitEdge>* out) const;
  std::vector<WaitEdge> WaitForEdges() const {
    std::vector<WaitEdge> edges;
    AppendWaitForEdges(&edges);
    return edges;
  }

  uint64_t grants() const { return grants_; }
  /// Shared-mode grants (each granted S request counts once).
  uint64_t shared_grants() const { return table_.shared_grants(); }
  /// Completed S->X upgrades.
  uint64_t upgrades() const { return table_.upgrades(); }
  /// Queued upgrades abandoned by Abort.
  uint64_t upgrade_aborts() const { return table_.upgrade_aborts(); }

  /// Waiter-pool introspection (tests): the pool must plateau at the
  /// high-water mark of simultaneous waiters + shared holders — churn
  /// recycles slots through the free list instead of growing the vector.
  size_t waiter_pool_size() const { return table_.pool_size(); }
  /// Free-listed (recyclable) slots; equals waiter_pool_size() when no
  /// transaction is queued or sharing anywhere.
  size_t free_waiter_count() const { return table_.free_count(); }

 private:
  void EmitGrant(EntityId entity, int32_t txn, int32_t node,
                 int32_t attempt);
  void EmitBlock(EntityId entity, int32_t txn, int32_t holder) {
    out_->push_back(LockEvent{LockEvent::Kind::kBlock, site_, txn, entity,
                              -1, 0, holder});
  }
  /// Holdership of `entity` grew: re-emit a kBlock for every remaining
  /// waiter against every conflicting holder, so the caller re-applies
  /// the conflict policy against the NEW holders. Without this,
  /// wound-wait admits wait cycles: an old transaction queued behind a
  /// young one inherits an old->young wait edge when the young waiter is
  /// granted first.
  void ReemitBlocks(EntityId entity);

  SiteId site_;
  LockTable table_;
  /// Entities this manager has ever touched (sparse iteration support for
  /// Abort / WaitForEdges without scanning the whole dense table).
  std::vector<EntityId> touched_;
  std::vector<uint8_t> is_touched_;
  std::vector<LockEvent>* out_;
  uint64_t grants_ = 0;
};

}  // namespace wydb

#endif  // WYDB_RUNTIME_LOCK_MANAGER_H_
