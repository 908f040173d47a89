// Locked transactions (Section 2 of the paper): a transaction is a partial
// order of Lock/Unlock steps such that
//   * for each accessed entity x there is exactly one Lx and one Ux, with
//     Lx preceding Ux, and
//   * steps on entities residing at the same site are totally ordered.
// Action nodes are omitted, as justified in Section 2 of the paper: safety
// and deadlock-freedom depend only on the Lock/Unlock structure.
#ifndef WYDB_CORE_TRANSACTION_H_
#define WYDB_CORE_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/database.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"

namespace wydb {

/// Kind of a transaction step.
enum class StepKind : uint8_t {
  kLock,
  kUnlock,
};

/// Mode of a Lock step. The paper's alphabet is exclusive-only; shared
/// (read) locks are the standard S/X extension: two S locks on the same
/// entity are compatible, every other combination conflicts.
enum class LockMode : uint8_t {
  kShared,
  kExclusive,
};

/// True iff locks of modes `a` and `b` on the same entity conflict
/// (i.e. unless both are shared).
inline bool LockModesConflict(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

const char* LockModeName(LockMode mode);

/// One node of the transaction partial order.
struct Step {
  StepKind kind;
  EntityId entity;
  /// Meaningful on kLock steps; kUnlock releases whatever mode was taken.
  LockMode mode = LockMode::kExclusive;

  bool operator==(const Step&) const = default;
};

/// The `.wydb` token letter of a step: 'L' (exclusive lock), 'S' (shared
/// lock) or 'U' (unlock).
inline char StepLetter(const Step& s) {
  if (s.kind == StepKind::kUnlock) return 'U';
  return s.mode == LockMode::kShared ? 'S' : 'L';
}

/// \brief A validated locked transaction: a DAG of Lock/Unlock steps.
///
/// Instances are immutable after creation and cache the transitive closure
/// of their precedence relation, so `Precedes` is O(1). Create via
/// Transaction::Create or TransactionBuilder.
class Transaction {
 public:
  /// Validates the model constraints and builds the closure.
  ///
  /// `arcs` are precedence pairs (from-step-index, to-step-index); they may
  /// contain redundant (transitively implied) arcs. Per-site total order is
  /// *checked*, not inferred: two same-site steps unrelated by `arcs` make
  /// validation fail with InvalidModel.
  static Result<Transaction> Create(const Database* db, std::string name,
                                    std::vector<Step> steps,
                                    std::vector<std::pair<int, int>> arcs);

  const std::string& name() const { return name_; }
  const Database& db() const { return *db_; }

  int num_steps() const { return static_cast<int>(steps_.size()); }
  const Step& step(NodeId v) const { return steps_[v]; }

  /// The given precedence arcs (not transitively closed).
  const Digraph& graph() const { return graph_; }

  /// True iff step u strictly precedes step v in the partial order.
  bool Precedes(NodeId u, NodeId v) const { return closure_.Reaches(u, v); }

  /// True iff u and v are ordered one way or the other.
  bool Comparable(NodeId u, NodeId v) const {
    return Precedes(u, v) || Precedes(v, u);
  }

  /// Entities accessed by this transaction: the set R(T), ascending.
  const std::vector<EntityId>& entities() const { return entities_; }

  bool Accesses(EntityId e) const {
    return lock_node_.count(e) > 0;
  }

  /// The Lx / Ux node for entity e; kInvalidNode if e is not accessed.
  NodeId LockNode(EntityId e) const;
  NodeId UnlockNode(EntityId e) const;

  /// Mode of this transaction's (unique) lock on e; kExclusive if e is
  /// not accessed.
  LockMode LockModeOf(EntityId e) const;

  /// True iff this transaction's access of e conflicts with an access of
  /// e in `other_mode` (i.e. unless both are shared). False if e is not
  /// accessed at all.
  bool ConflictsOn(EntityId e, LockMode other_mode) const {
    return Accesses(e) && LockModesConflict(LockModeOf(e), other_mode);
  }

  SiteId SiteOfStep(NodeId v) const { return db_->SiteOf(steps_[v].entity); }

  /// R_T(s): entities z whose Lz strictly precedes step s (paper §5).
  std::vector<EntityId> EntitiesLockedBefore(NodeId s) const;

  /// L_T(s): entities z such that s precedes Uz but s does not precede Lz
  /// (paper §5) — what is held right before s in the *laziest* extension.
  std::vector<EntityId> EntitiesHeldAt(NodeId s) const;

  /// One fixed linear extension (topological order with deterministic
  /// tie-breaking by node id).
  std::vector<NodeId> SomeLinearExtension() const;

  /// A uniformly-ish random linear extension (random tie-breaking; not
  /// exactly uniform over extensions, but covers all of them with positive
  /// probability).
  std::vector<NodeId> SampleLinearExtension(Rng* rng) const;

  /// All linear extensions, stopping after `max_count` (0 = unbounded;
  /// beware, the count is exponential in general).
  std::vector<std::vector<NodeId>> AllLinearExtensions(
      uint64_t max_count = 0) const;

  /// Calls `visit` for each linear extension until it returns false or all
  /// extensions are exhausted. Returns false iff `visit` stopped early.
  bool ForEachLinearExtension(
      const std::function<bool(const std::vector<NodeId>&)>& visit) const;

  /// The Hasse diagram (transitive reduction) of the precedence relation.
  Digraph HasseDiagram() const;

  /// "Lx" (exclusive lock) / "Sx" (shared lock) / "Ux" (unlock) with the
  /// entity name from the database — the `.wydb` step-token syntax.
  std::string StepLabel(NodeId v) const;

  /// Multi-line dump: one line per step with its direct successors.
  std::string DebugString() const;

 private:
  Transaction() = default;

  const Database* db_ = nullptr;
  std::string name_;
  std::vector<Step> steps_;
  Digraph graph_;
  ReachabilityMatrix closure_;
  std::vector<EntityId> entities_;
  std::unordered_map<EntityId, NodeId> lock_node_;
  std::unordered_map<EntityId, NodeId> unlock_node_;
};

}  // namespace wydb

#endif  // WYDB_CORE_TRANSACTION_H_
