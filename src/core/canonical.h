// Symmetry-invariant canonical form of a transaction system, used as the
// verdict-cache key of the analysis server (docs/SERVE.md).
//
// The key is the system renamed onto canonical names — sites s0.., entities
// e0.., transactions t0.. — in a canonical order and rendered in the .wydb
// text format. The canonical order comes from color refinement over the
// tripartite structure (sites / entities / transactions) followed by
// bounded individualization-refinement on residual entity ties, so it is
// invariant under site/entity renaming and transaction permutation and
// renaming. Equal text implies the systems are isomorphic (the text *is* a
// full description of one), so a cache keyed on it can never conflate two
// systems with different verdicts.
#ifndef WYDB_CORE_CANONICAL_H_
#define WYDB_CORE_CANONICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/system.h"

namespace wydb {

/// Canonical cache key plus the isomorphism that produced it (needed to
/// map cached witnesses back onto a concrete resubmission).
struct SystemKey {
  /// Canonical .wydb serialization; parseable by ParseWorkload, which is
  /// how cache entries are preloaded from disk.
  std::string text;
  /// FNV-1a of `text`, mixed; a cheap first-stage cache probe.
  uint64_t hash = 0;
  /// False when the individualization budget ran out and remaining entity
  /// ties were broken by original id. The key is still sound (equal text
  /// still implies isomorphic); it may merely miss a possible cache hit.
  bool complete = true;
  /// Canonical transaction slot -> original transaction index.
  std::vector<int> txn_perm;
  /// Canonical entity id -> original EntityId.
  std::vector<int> entity_perm;
};

/// Computes the canonical key of `sys`. The key is invariant under
/// site/entity renaming, transaction permutation and renaming, and the
/// order unordered steps were *listed* in (node ids are scrubbed: colors
/// hash only order-theoretic invariants, and the rendering breaks ties by
/// canonical entity and step kind). In particular, for complete keys the
/// canonical text is a fixpoint: parsing `text` and canonicalizing again
/// reproduces the same text, so a client may resubmit a previously
/// returned canonical form and still hit. Every key's text is also what
/// SerializeSystem prints for its own reparse.
Result<SystemKey> CanonicalSystemKey(const TransactionSystem& sys);

}  // namespace wydb

#endif  // WYDB_CORE_CANONICAL_H_
