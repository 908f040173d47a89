#include "core/transaction.h"

#include <algorithm>

#include "common/string_util.h"

namespace wydb {

Result<Transaction> Transaction::Create(
    const Database* db, std::string name, std::vector<Step> steps,
    std::vector<std::pair<int, int>> arcs) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  Transaction t;
  t.db_ = db;
  t.name_ = std::move(name);
  t.steps_ = std::move(steps);
  const int n = t.num_steps();
  t.graph_.Resize(n);

  for (const auto& [from, to] : arcs) {
    if (from < 0 || from >= n || to < 0 || to >= n || from == to) {
      return Status::InvalidArgument(
          StrFormat("arc (%d,%d) out of range in transaction '%s'", from, to,
                    t.name_.c_str()));
    }
    t.graph_.AddArc(from, to);
  }
  t.graph_.DeduplicateArcs();

  // Exactly one Lx and one Ux per accessed entity.
  for (NodeId v = 0; v < n; ++v) {
    const Step& s = t.steps_[v];
    if (s.entity < 0 || s.entity >= db->num_entities()) {
      return Status::InvalidArgument(
          StrFormat("step %d of '%s' names an unknown entity", v,
                    t.name_.c_str()));
    }
    auto& table = s.kind == StepKind::kLock ? t.lock_node_ : t.unlock_node_;
    if (!table.emplace(s.entity, v).second) {
      return Status::InvalidModel(StrFormat(
          "transaction '%s' has two %s steps on entity '%s'",
          t.name_.c_str(), s.kind == StepKind::kLock ? "Lock" : "Unlock",
          db->EntityName(s.entity).c_str()));
    }
  }
  for (const auto& [e, lv] : t.lock_node_) {
    if (!t.unlock_node_.count(e)) {
      return Status::InvalidModel(
          StrFormat("transaction '%s' locks '%s' but never unlocks it",
                    t.name_.c_str(), db->EntityName(e).c_str()));
    }
  }
  for (const auto& [e, uv] : t.unlock_node_) {
    if (!t.lock_node_.count(e)) {
      return Status::InvalidModel(
          StrFormat("transaction '%s' unlocks '%s' but never locks it",
                    t.name_.c_str(), db->EntityName(e).c_str()));
    }
  }

  // Acyclicity, then closure.
  if (HasCycle(t.graph_)) {
    return Status::InvalidModel(StrFormat(
        "precedence graph of transaction '%s' has a cycle", t.name_.c_str()));
  }
  t.closure_ = TransitiveClosure(t.graph_);

  // Lx precedes Ux.
  for (const auto& [e, lv] : t.lock_node_) {
    NodeId uv = t.unlock_node_.at(e);
    if (!t.closure_.Reaches(lv, uv)) {
      return Status::InvalidModel(StrFormat(
          "in transaction '%s', L%s does not precede U%s", t.name_.c_str(),
          db->EntityName(e).c_str(), db->EntityName(e).c_str()));
    }
  }

  // Same-site steps must be totally ordered.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (t.SiteOfStep(u) == t.SiteOfStep(v) && !t.Comparable(u, v)) {
        return Status::InvalidModel(StrFormat(
            "steps %s and %s of '%s' are at site '%s' but unordered",
            t.StepLabel(u).c_str(), t.StepLabel(v).c_str(), t.name_.c_str(),
            db->SiteName(t.SiteOfStep(u)).c_str()));
      }
    }
  }

  // Normalize: an Unlock releases whatever mode its Lock took, so give
  // every Ux the mode of the matching Lx. Keeps Step equality (and the
  // structural-symmetry detection built on it) well-defined regardless of
  // what the caller put on the unlock steps.
  for (NodeId v = 0; v < n; ++v) {
    Step& s = t.steps_[v];
    if (s.kind == StepKind::kUnlock) {
      s.mode = t.steps_[t.lock_node_.at(s.entity)].mode;
    }
  }

  t.entities_.reserve(t.lock_node_.size());
  for (const auto& [e, lv] : t.lock_node_) t.entities_.push_back(e);
  std::sort(t.entities_.begin(), t.entities_.end());
  return t;
}

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kShared ? "shared" : "exclusive";
}

LockMode Transaction::LockModeOf(EntityId e) const {
  auto it = lock_node_.find(e);
  return it == lock_node_.end() ? LockMode::kExclusive
                                : steps_[it->second].mode;
}

NodeId Transaction::LockNode(EntityId e) const {
  auto it = lock_node_.find(e);
  return it == lock_node_.end() ? kInvalidNode : it->second;
}

NodeId Transaction::UnlockNode(EntityId e) const {
  auto it = unlock_node_.find(e);
  return it == unlock_node_.end() ? kInvalidNode : it->second;
}

std::vector<EntityId> Transaction::EntitiesLockedBefore(NodeId s) const {
  std::vector<EntityId> out;
  for (EntityId e : entities_) {
    if (Precedes(lock_node_.at(e), s)) out.push_back(e);
  }
  return out;
}

std::vector<EntityId> Transaction::EntitiesHeldAt(NodeId s) const {
  std::vector<EntityId> out;
  for (EntityId e : entities_) {
    NodeId le = lock_node_.at(e);
    // "Locked but not unlocked right before s": Lz = s itself means z is
    // being locked AT s, not before it.
    if (le == s) continue;
    if (Precedes(s, unlock_node_.at(e)) && !Precedes(s, le)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<NodeId> Transaction::SomeLinearExtension() const {
  auto order = TopologicalSort(graph_);
  return *order;  // Guaranteed acyclic by Create().
}

std::vector<NodeId> Transaction::SampleLinearExtension(Rng* rng) const {
  const int n = num_steps();
  std::vector<int> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph_.OutNeighbors(v)) indeg[w]++;
  }
  std::vector<NodeId> frontier, order;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    size_t pick = static_cast<size_t>(rng->NextBelow(frontier.size()));
    NodeId v = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (NodeId w : graph_.OutNeighbors(v)) {
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  return order;
}

bool Transaction::ForEachLinearExtension(
    const std::function<bool(const std::vector<NodeId>&)>& visit) const {
  const int n = num_steps();
  std::vector<int> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph_.OutNeighbors(v)) indeg[w]++;
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> used(n, false);

  // Recursive enumeration with in-degree bookkeeping.
  std::function<bool()> rec = [&]() -> bool {
    if (static_cast<int>(order.size()) == n) return visit(order);
    for (NodeId v = 0; v < n; ++v) {
      if (used[v] || indeg[v] != 0) continue;
      used[v] = true;
      order.push_back(v);
      for (NodeId w : graph_.OutNeighbors(v)) indeg[w]--;
      bool keep_going = rec();
      for (NodeId w : graph_.OutNeighbors(v)) indeg[w]++;
      order.pop_back();
      used[v] = false;
      if (!keep_going) return false;
    }
    return true;
  };
  return rec();
}

std::vector<std::vector<NodeId>> Transaction::AllLinearExtensions(
    uint64_t max_count) const {
  std::vector<std::vector<NodeId>> out;
  ForEachLinearExtension([&](const std::vector<NodeId>& ext) {
    out.push_back(ext);
    return max_count == 0 || out.size() < max_count;
  });
  return out;
}

Digraph Transaction::HasseDiagram() const {
  return TransitiveReduction(graph_, closure_);
}

std::string Transaction::StepLabel(NodeId v) const {
  return StepLetter(steps_[v]) + db_->EntityName(steps_[v].entity);
}

std::string Transaction::DebugString() const {
  std::string out = name_ + ":\n";
  Digraph hasse = HasseDiagram();
  for (NodeId v = 0; v < num_steps(); ++v) {
    out += StrFormat("  [%d] %s @%s ->", v, StepLabel(v).c_str(),
                     db_->SiteName(SiteOfStep(v)).c_str());
    for (NodeId w : hasse.OutNeighbors(v)) {
      out += StrFormat(" %s", StepLabel(w).c_str());
    }
    out += "\n";
  }
  return out;
}

}  // namespace wydb
