#include "core/canonical.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/hash_util.h"
#include "common/string_util.h"
#include "core/database.h"
#include "core/transaction.h"
#include "io/text_format.h"

namespace wydb {
namespace {

/// Incremental FNV-1a over 64-bit words, mixed on read-out. All color
/// arithmetic goes through this so colors depend on structure only —
/// never on names, original ids, or the order steps happened to be
/// listed in (node ids are scrubbed: every per-step input is an
/// order-theoretic invariant or a sorted multiset).
struct ColorHash {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Add(uint64_t w) {
    h ^= w;
    h *= 0x100000001B3ULL;
  }
  uint64_t Get() const { return MixHash64(h); }
};

struct Colors {
  std::vector<uint64_t> site;
  std::vector<uint64_t> entity;
  std::vector<uint64_t> txn;
};

uint64_t StepKindCode(const Step& st) {
  if (st.kind == StepKind::kUnlock) return 3;
  return st.mode == LockMode::kShared ? 2 : 1;
}

/// (predecessor count << 32) | successor count of `v` in its
/// transaction's partial order — a position descriptor that does not
/// depend on node ids.
uint64_t PositionSig(const Transaction& txn, NodeId v) {
  uint64_t pred = 0, succ = 0;
  for (NodeId u = 0; u < txn.num_steps(); ++u) {
    if (u == v) continue;
    if (txn.Precedes(u, v)) ++pred;
    if (txn.Precedes(v, u)) ++succ;
  }
  return (pred << 32) | succ;
}

/// Color refinement over one system. The structure-only inputs — each
/// step's (kind, position) and each accessor's (mode, lock position,
/// unlock position) — are hashed once per key here; a round only mixes
/// them with the current colors.
class Refiner {
 public:
  Refiner(const TransactionSystem& sys, const std::vector<Digraph>& hasse)
      : sys_(sys), hasse_(hasse) {
    step_shape_.resize(sys.num_transactions());
    accessor_shape_.resize(sys.db().num_entities());
    for (int t = 0; t < sys.num_transactions(); ++t) {
      const Transaction& txn = sys.txn(t);
      std::vector<uint64_t> position(txn.num_steps());
      for (NodeId v = 0; v < txn.num_steps(); ++v) {
        position[v] = PositionSig(txn, v);
        ColorHash s;
        s.Add(StepKindCode(txn.step(v)));
        s.Add(position[v]);
        step_shape_[t].push_back(s.Get());
      }
      for (EntityId e : txn.entities()) {
        ColorHash a;
        a.Add(txn.LockModeOf(e) == LockMode::kShared ? 2 : 1);
        a.Add(position[txn.LockNode(e)]);
        a.Add(position[txn.UnlockNode(e)]);
        accessor_shape_[e].emplace_back(t, a.Get());
      }
    }
  }

  /// Refines until the partitions stop splitting. Every new color hashes
  /// the old one, so a round can only split classes: an unchanged class
  /// count means an unchanged partition, and every later round would
  /// leave it unchanged too. The round count is itself
  /// structure-determined, so isomorphic systems end with corresponding
  /// color values. The cap only guards against hash collisions.
  void RefineToFixpoint(Colors* c) {
    const int max_rounds = static_cast<int>(c->site.size() +
                                            c->entity.size() + c->txn.size()) +
                           2;
    int classes = CountClasses(*c);
    for (int round = 0; round < max_rounds; ++round) {
      RefineOnce(c);
      const int next = CountClasses(*c);
      if (next == classes) break;
      classes = next;
    }
  }

 private:
  int CountDistinct(const std::vector<uint64_t>& col) {
    scratch_.assign(col.begin(), col.end());
    std::sort(scratch_.begin(), scratch_.end());
    return static_cast<int>(std::unique(scratch_.begin(), scratch_.end()) -
                            scratch_.begin());
  }

  int CountClasses(const Colors& c) {
    return CountDistinct(c.site) + CountDistinct(c.entity) +
           CountDistinct(c.txn);
  }

  /// One round: every object rehashes its old color with the colors of
  /// its structural neighborhood (multisets sorted, so the result is
  /// order-free).
  void RefineOnce(Colors* c) {
    const Database& db = sys_.db();
    ntxn_.resize(sys_.num_transactions());
    for (int t = 0; t < sys_.num_transactions(); ++t) {
      const Transaction& txn = sys_.txn(t);
      // Per-step signature: (kind, position, entity color). Signatures
      // may collide while entity colors are still tied; the
      // individualization search below splits those ties later.
      sig_.resize(txn.num_steps());
      for (NodeId v = 0; v < txn.num_steps(); ++v) {
        ColorHash s;
        s.Add(step_shape_[t][v]);
        s.Add(c->entity[txn.step(v).entity]);
        sig_[v] = s.Get();
      }
      ColorHash h;
      h.Add(c->txn[t]);
      scratch_.assign(sig_.begin(), sig_.end());
      std::sort(scratch_.begin(), scratch_.end());
      for (uint64_t s : scratch_) h.Add(s);
      h.Add(0x5EC0ULL);  // Separator: step multiset | arc multiset.
      scratch_.clear();
      for (NodeId v = 0; v < txn.num_steps(); ++v) {
        for (NodeId w : hasse_[t].OutNeighbors(v)) {
          ColorHash a;
          a.Add(sig_[v]);
          a.Add(sig_[w]);
          scratch_.push_back(a.Get());
        }
      }
      std::sort(scratch_.begin(), scratch_.end());
      for (uint64_t a : scratch_) h.Add(a);
      ntxn_[t] = h.Get();
    }

    nentity_.resize(db.num_entities());
    for (EntityId e = 0; e < db.num_entities(); ++e) {
      ColorHash h;
      h.Add(c->entity[e]);
      h.Add(c->site[db.SiteOf(e)]);
      scratch_.clear();
      for (const auto& [t, shape] : accessor_shape_[e]) {
        ColorHash a;
        a.Add(c->txn[t]);
        a.Add(shape);
        scratch_.push_back(a.Get());
      }
      std::sort(scratch_.begin(), scratch_.end());
      for (uint64_t a : scratch_) h.Add(a);
      nentity_[e] = h.Get();
    }

    nsite_.resize(db.num_sites());
    for (SiteId s = 0; s < db.num_sites(); ++s) {
      ColorHash h;
      h.Add(c->site[s]);
      scratch_.clear();
      for (EntityId e : db.EntitiesAt(s)) scratch_.push_back(c->entity[e]);
      std::sort(scratch_.begin(), scratch_.end());
      for (uint64_t r : scratch_) h.Add(r);
      nsite_[s] = h.Get();
    }

    c->txn.swap(ntxn_);
    c->entity.swap(nentity_);
    c->site.swap(nsite_);
  }

  const TransactionSystem& sys_;
  const std::vector<Digraph>& hasse_;
  /// Per transaction, per step: hash of (kind, position).
  std::vector<std::vector<uint64_t>> step_shape_;
  /// Per entity: (accessor, hash of (mode, lock and unlock positions)).
  std::vector<std::vector<std::pair<int, uint64_t>>> accessor_shape_;
  // Per-round buffers, reused across rounds.
  std::vector<uint64_t> sig_, scratch_, ntxn_, nentity_, nsite_;
};

/// Renders the canonical text for a fixed entity order
/// (canonical id -> original EntityId) and derives the transaction order
/// from it: bodies under the canonical entity names, sorted. Each body is
/// written by the serializer's own AppendTransactionBody, with steps
/// prioritized by (canonical entity, kind) — unique per step — so the
/// rendering depends only on the partial order, never on the order the
/// caller happened to list unordered steps in, and the text is exactly
/// what SerializeSystem prints for its own reparse.
std::pair<std::string, std::vector<int>> Render(
    const TransactionSystem& sys, const std::vector<Digraph>& hasse,
    const std::vector<int>& entity_order) {
  const Database& db = sys.db();
  const int num_entities = db.num_entities();
  std::vector<int> canon_of_entity(num_entities, -1);
  std::vector<std::string> entity_names(num_entities);
  for (int canon = 0; canon < num_entities; ++canon) {
    canon_of_entity[entity_order[canon]] = canon;
    entity_names[entity_order[canon]] = StrFormat("e%d", canon);
  }

  // Site order: by smallest canonical entity resident there (site entity
  // sets are disjoint, so this is a total order); entity-less sites are
  // all interchangeable and go last — their mutual order cannot show in
  // the text. The header is what SerializeSystem prints for sites s0..
  // in that order: a `sites:` line for the empty ones, then one `site`
  // line per non-empty site listing its entities by canonical id.
  std::vector<std::pair<int, SiteId>> site_rank;
  for (SiteId s = 0; s < db.num_sites(); ++s) {
    int min_canon = num_entities + s;
    for (EntityId e : db.EntitiesAt(s)) {
      min_canon = std::min(min_canon, canon_of_entity[e]);
    }
    site_rank.emplace_back(min_canon, s);
  }
  std::sort(site_rank.begin(), site_rank.end());
  std::string bare_sites;
  for (size_t rank = 0; rank < site_rank.size(); ++rank) {
    if (db.EntitiesAt(site_rank[rank].second).empty()) {
      bare_sites += StrFormat(" s%d", (int)rank);
    }
  }
  std::string text = bare_sites.empty() ? "" : "sites:" + bare_sites + "\n";
  for (size_t rank = 0; rank < site_rank.size(); ++rank) {
    std::vector<int> residents;
    for (EntityId e : db.EntitiesAt(site_rank[rank].second)) {
      residents.push_back(canon_of_entity[e]);
    }
    if (residents.empty()) continue;
    std::sort(residents.begin(), residents.end());
    text += StrFormat("site s%d:", (int)rank);
    for (int canon : residents) text += StrFormat(" e%d", canon);
    text += "\n";
  }

  std::vector<std::string> bodies(sys.num_transactions());
  for (int t = 0; t < sys.num_transactions(); ++t) {
    const Transaction& txn = sys.txn(t);
    std::vector<NodeId> by_rank(txn.num_steps());
    std::iota(by_rank.begin(), by_rank.end(), 0);
    auto rank = [&](NodeId v) {
      return canon_of_entity[txn.step(v).entity] * 4 +
             static_cast<int>(StepKindCode(txn.step(v)));
    };
    std::sort(by_rank.begin(), by_rank.end(),
              [&](NodeId a, NodeId b) { return rank(a) < rank(b); });
    AppendTransactionBody(txn, hasse[t], by_rank, entity_names, &bodies[t]);
  }

  // Canonical slot order: sort by body. Equal bodies are structurally
  // identical transactions — either order yields the same text, and any
  // witness remap through the resulting perm rides a genuine system
  // automorphism.
  std::vector<int> txn_order(sys.num_transactions());
  for (int t = 0; t < sys.num_transactions(); ++t) txn_order[t] = t;
  std::sort(txn_order.begin(), txn_order.end(), [&](int a, int b) {
    if (bodies[a] != bodies[b]) return bodies[a] < bodies[b];
    return a < b;
  });

  for (size_t slot = 0; slot < txn_order.size(); ++slot) {
    text += StrFormat("txn t%d:", (int)slot);
    text += bodies[txn_order[slot]];
    text += "\n";
  }
  return {std::move(text), std::move(txn_order)};
}

struct LeafSearch {
  LeafSearch(const TransactionSystem& s, const std::vector<Digraph>& h,
             Refiner* r)
      : sys(s), hasse(h), refiner(r) {}

  const TransactionSystem& sys;
  const std::vector<Digraph>& hasse;
  Refiner* refiner;
  /// Remaining leaves the individualization search may render.
  int leaf_budget = 64;
  bool complete = true;
  bool have_best = false;
  std::string best_text;
  std::vector<int> best_entity_order;
  std::vector<int> best_txn_order;

  /// Recursive individualization-refinement over entity ties. `c` must
  /// already be at a refinement fixpoint.
  void Search(const Colors& c) {
    if (!complete) return;
    // Group entities by color; branch on the non-singleton class with
    // the smallest color value (color values are structure-only, so
    // isomorphic systems branch on corresponding classes).
    std::vector<std::pair<uint64_t, EntityId>> by_color;
    for (EntityId e = 0; e < (EntityId)c.entity.size(); ++e) {
      by_color.emplace_back(c.entity[e], e);
    }
    std::sort(by_color.begin(), by_color.end());
    uint64_t branch_color = 0;
    bool tie = false;
    for (size_t i = 0; i + 1 < by_color.size(); ++i) {
      if (by_color[i].first == by_color[i + 1].first) {
        branch_color = by_color[i].first;
        tie = true;
        break;
      }
    }
    if (!tie) {
      if (leaf_budget-- <= 0) {
        complete = false;
        return;
      }
      std::vector<int> order;
      order.reserve(by_color.size());
      for (const auto& [color, e] : by_color) order.push_back(e);
      auto [text, txn_order] = Render(sys, hasse, order);
      if (!have_best || text < best_text) {
        have_best = true;
        best_text = std::move(text);
        best_txn_order = std::move(txn_order);
        best_entity_order = std::move(order);
      }
      return;
    }
    for (const auto& [color, e] : by_color) {
      if (color != branch_color) continue;
      Colors child = c;
      child.entity[e] = MixHash64(child.entity[e] ^ 0x9E3779B97F4A7C15ULL);
      refiner->RefineToFixpoint(&child);
      Search(child);
      if (!complete) return;
    }
  }
};

}  // namespace

Result<SystemKey> CanonicalSystemKey(const TransactionSystem& sys) {
  const Database& db = sys.db();
  std::vector<Digraph> hasse;
  hasse.reserve(sys.num_transactions());
  for (int t = 0; t < sys.num_transactions(); ++t) {
    hasse.push_back(sys.txn(t).HasseDiagram());
  }

  Colors colors;
  colors.site.assign(db.num_sites(), 1);
  colors.entity.assign(db.num_entities(), 2);
  colors.txn.assign(sys.num_transactions(), 3);
  Refiner refiner(sys, hasse);
  refiner.RefineToFixpoint(&colors);

  LeafSearch search{sys, hasse, &refiner};
  search.Search(colors);

  // The first leaf is always rendered (the budget only runs out after
  // 64 of them), so there is always a best leaf.
  SystemKey key;
  key.complete = search.complete;
  key.text = std::move(search.best_text);
  key.txn_perm = std::move(search.best_txn_order);
  key.entity_perm = std::move(search.best_entity_order);

  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char ch : key.text) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  key.hash = MixHash64(h);
  return key;
}

}  // namespace wydb
