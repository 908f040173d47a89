#include "io/text_format.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/transaction_builder.h"

namespace wydb {
namespace {

Status LineError(int line, const std::string& msg) {
  return Status::InvalidArgument(StrFormat("line %d: %s", line, msg.c_str()));
}

std::vector<std::string> Tokens(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Parses a non-negative SimTime token; false on garbage or values large
/// enough to wrap the accumulator. The guard must account for the incoming
/// digit: at value == max/10 a final digit above max%10 still wraps.
bool ParseSimTime(const std::string& tok, SimTime* out) {
  if (tok.empty()) return false;
  SimTime value = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    const SimTime digit = static_cast<SimTime>(c - '0');
    if (value > (std::numeric_limits<SimTime>::max() - digit) / 10) {
      return false;  // Would wrap.
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Parses a 1-based step ordinal (capped well below INT_MAX so arithmetic
/// on it can't overflow).
bool ParseOrdinal(const std::string& s, int* out) {
  if (s.empty() || s.size() > 9) return false;
  int v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

/// Parses an explicit precedence token '<i>-><j>' (1-based step ordinals).
bool ParseArcToken(const std::string& tok, int* from, int* to) {
  size_t pos = tok.find("->");
  if (pos == std::string::npos) return false;
  return ParseOrdinal(tok.substr(0, pos), from) &&
         ParseOrdinal(tok.substr(pos + 2), to);
}

}  // namespace

Result<WorkloadSpec> ParseWorkload(const std::string& text) {
  WorkloadSpec spec;
  OwnedSystem& out = spec.owned;
  out.db = std::make_unique<Database>();
  struct PendingTxn {
    std::string name;
    std::vector<std::vector<std::string>> segments;  // Step tokens.
    int line;
  };
  std::vector<PendingTxn> pending;
  // `copies` lines, resolved after all sites exist (stanza order between
  // copies and sites/site lines is free as long as the entity exists).
  struct PendingCopies {
    std::string entity;
    std::vector<std::string> sites;
    int line;
  };
  std::vector<PendingCopies> pending_copies;
  // Sites declared by a `site ...:` header (to reject duplicates of the
  // header itself while allowing a prior bare `sites:` declaration).
  std::vector<std::string> site_headers;

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::vector<std::string> toks = Tokens(line);
    if (toks.empty()) continue;

    if (toks[0] == "sites:") {
      if (toks.size() < 2) {
        return LineError(lineno, "expected 'sites: <name> <name> ...'");
      }
      for (size_t i = 1; i < toks.size(); ++i) {
        auto added = out.db->AddSite(toks[i]);
        if (!added.ok()) return LineError(lineno, added.status().message());
      }
    } else if (toks[0] == "site") {
      if (toks.size() < 2 || toks[1].back() != ':') {
        return LineError(lineno, "expected 'site <name>: <entities...>'");
      }
      std::string site = toks[1].substr(0, toks[1].size() - 1);
      if (site.empty()) return LineError(lineno, "empty site name");
      for (const std::string& seen : site_headers) {
        if (seen == site) {
          return LineError(lineno, "duplicate site '" + site + "'");
        }
      }
      site_headers.push_back(site);
      if (out.db->FindSite(site) == kInvalidSite) {
        auto added = out.db->AddSite(site);
        if (!added.ok()) return LineError(lineno, added.status().message());
      }
      for (size_t i = 2; i < toks.size(); ++i) {
        auto added = out.db->AddEntityAtSite(toks[i], site);
        if (!added.ok()) return LineError(lineno, added.status().message());
      }
    } else if (toks[0] == "copies") {
      if (toks.size() < 3 || toks[1].back() != ':') {
        return LineError(lineno, "expected 'copies <entity>: <sites...>'");
      }
      PendingCopies c;
      c.entity = toks[1].substr(0, toks[1].size() - 1);
      c.line = lineno;
      if (c.entity.empty()) return LineError(lineno, "empty entity name");
      for (const PendingCopies& prev : pending_copies) {
        if (prev.entity == c.entity) {
          return LineError(lineno, "duplicate copies stanza for entity '" +
                                       c.entity + "'");
        }
      }
      c.sites.assign(toks.begin() + 2, toks.end());
      pending_copies.push_back(std::move(c));
    } else if (toks[0] == "latency:") {
      if (spec.has_latency) {
        return LineError(lineno, "duplicate latency stanza");
      }
      if (toks.size() != 4 || !ParseSimTime(toks[1], &spec.latency.base) ||
          !ParseSimTime(toks[2], &spec.latency.jitter) ||
          !ParseSimTime(toks[3], &spec.latency.local)) {
        return LineError(lineno,
                         "expected 'latency: <base> <jitter> <local>' with "
                         "non-negative integers");
      }
      spec.has_latency = true;
    } else if (toks[0] == "txn") {
      if (toks.size() < 2 || toks[1].back() != ':') {
        return LineError(lineno, "expected 'txn <name>: <steps...>'");
      }
      PendingTxn t;
      t.name = toks[1].substr(0, toks[1].size() - 1);
      t.line = lineno;
      if (t.name.empty()) return LineError(lineno, "empty transaction name");
      for (const PendingTxn& prev : pending) {
        if (prev.name == t.name) {
          return LineError(
              lineno, StrFormat("duplicate transaction '%s' (first defined "
                                "at line %d)",
                                t.name.c_str(), prev.line));
        }
      }
      t.segments.emplace_back();
      for (size_t i = 2; i < toks.size(); ++i) {
        if (toks[i] == ";") {
          t.segments.emplace_back();
        } else {
          t.segments.back().push_back(toks[i]);
        }
      }
      pending.push_back(std::move(t));
    } else {
      return LineError(lineno, "unknown directive '" + toks[0] + "'");
    }
  }

  if (!pending_copies.empty()) {
    out.placement = std::make_unique<CopyPlacement>(*out.db);
    for (const PendingCopies& c : pending_copies) {
      EntityId e = out.db->FindEntity(c.entity);
      if (e == kInvalidEntity) {
        return LineError(c.line, "unknown entity '" + c.entity + "'");
      }
      std::vector<SiteId> sites;
      sites.reserve(c.sites.size());
      for (const std::string& name : c.sites) {
        SiteId s = out.db->FindSite(name);
        if (s == kInvalidSite) {
          return LineError(c.line, "unknown site '" + name + "'");
        }
        sites.push_back(s);
      }
      Status set = out.placement->SetCopies(*out.db, e, std::move(sites));
      if (!set.ok()) return LineError(c.line, set.message());
    }
  }

  std::vector<Transaction> txns;
  for (const PendingTxn& p : pending) {
    TransactionBuilder b(out.db.get(), p.name);
    b.set_auto_site_chain(false);
    bool any = false;
    // Explicit '<i>-><j>' precedence tokens, as 1-based ordinals over the
    // step tokens of this txn line (in order of appearance, across
    // segments). Collected first so arcs may reference later steps.
    std::vector<std::pair<int, int>> arc_ordinals;
    std::vector<int> ordinal_to_step;  // 1-based ordinal - 1 -> builder idx.
    for (const auto& segment : p.segments) {
      int prev = -1;
      for (const std::string& tok : segment) {
        if (tok[0] >= '0' && tok[0] <= '9') {
          int from = 0;
          int to = 0;
          if (!ParseArcToken(tok, &from, &to)) {
            return LineError(p.line,
                             "bad arc token '" + tok +
                                 "' (want <i>-><j> with 1-based step "
                                 "ordinals)");
          }
          arc_ordinals.emplace_back(from, to);
          continue;  // Arc tokens do not participate in segment chaining.
        }
        if (tok.size() < 2 ||
            (tok[0] != 'L' && tok[0] != 'S' && tok[0] != 'U')) {
          return LineError(p.line,
                           "bad step token '" + tok +
                               "' (want L<entity>, S<entity> or U<entity>)");
        }
        std::string entity = tok.substr(1);
        int cur = tok[0] == 'L'   ? b.Lock(entity)
                  : tok[0] == 'S' ? b.LockShared(entity)
                                  : b.Unlock(entity);
        if (prev >= 0) b.Arc(prev, cur);
        prev = cur;
        ordinal_to_step.push_back(cur);
        any = true;
      }
    }
    if (!any) return LineError(p.line, "transaction with no steps");
    const int num_steps = static_cast<int>(ordinal_to_step.size());
    for (const auto& [from, to] : arc_ordinals) {
      if (from < 1 || from > num_steps || to < 1 || to > num_steps) {
        return LineError(
            p.line, StrFormat("arc %d->%d out of range (transaction has %d "
                              "steps)",
                              from, to, num_steps));
      }
      if (from == to) {
        return LineError(p.line,
                         StrFormat("arc %d->%d is a self-loop", from, to));
      }
      b.Arc(ordinal_to_step[from - 1], ordinal_to_step[to - 1]);
    }
    auto built = b.Build();
    if (!built.ok()) {
      return LineError(
          p.line, "transaction '" + p.name + "': " + built.status().message());
    }
    txns.push_back(std::move(*built));
  }

  WYDB_ASSIGN_OR_RETURN(
      TransactionSystem sys,
      TransactionSystem::Create(out.db.get(), std::move(txns)));
  out.system = std::make_unique<TransactionSystem>(std::move(sys));
  return spec;
}

Result<OwnedSystem> ParseSystem(const std::string& text) {
  WYDB_ASSIGN_OR_RETURN(WorkloadSpec spec, ParseWorkload(text));
  return std::move(spec.owned);
}

void AppendTransactionBody(const Transaction& txn, const Digraph& hasse,
                           const std::vector<NodeId>& by_priority,
                           const std::vector<std::string>& entity_names,
                           std::string* out) {
  const int k = txn.num_steps();
  std::vector<int> rank(k);
  for (int r = 0; r < k; ++r) rank[by_priority[r]] = r;
  // Decompose the Hasse diagram into chains. A chain starts at the
  // highest-priority unplaced step whose Hasse predecessors are all
  // placed, and grows along the highest-priority unplaced Hasse
  // successor until there is none. Within-chain adjacency then encodes
  // exactly those Hasse arcs; the remaining (cross-chain) Hasse arcs are
  // emitted as explicit '<i>-><j>' tokens, so parse∘serialize is the
  // identity on the step partial order. Both rules read only the order
  // and the placed set, and the emitted chains are contiguous in token
  // order, so with priority = node id the decomposition of a reparse
  // reproduces the same chains: serialize∘parse∘serialize ==
  // serialize. A totally ordered transaction is a single chain with no
  // leftover arcs.
  std::vector<int> unplaced_preds(k);
  for (NodeId v = 0; v < k; ++v) unplaced_preds[v] = hasse.InDegree(v);
  std::vector<char> placed(k, 0);
  std::vector<std::vector<NodeId>> chains;
  for (int remaining = k; remaining > 0;) {
    NodeId v = kInvalidNode;
    for (NodeId u : by_priority) {
      if (!placed[u] && unplaced_preds[u] == 0) {
        v = u;
        break;
      }
    }
    chains.emplace_back();
    for (; v != kInvalidNode; --remaining) {
      chains.back().push_back(v);
      placed[v] = 1;
      NodeId next = kInvalidNode;
      for (NodeId w : hasse.OutNeighbors(v)) {
        --unplaced_preds[w];
        if (!placed[w] && (next == kInvalidNode || rank[w] < rank[next])) {
          next = w;
        }
      }
      v = next;
    }
  }
  // 1-based ordinal of each node in the emitted token stream, and the
  // chain successor covered by segment chaining.
  std::vector<int> ordinal(k, 0);
  std::vector<NodeId> chain_succ(k, kInvalidNode);
  int next_ordinal = 1;
  for (const auto& chain : chains) {
    for (size_t i = 0; i < chain.size(); ++i) {
      ordinal[chain[i]] = next_ordinal++;
      if (i + 1 < chain.size()) chain_succ[chain[i]] = chain[i + 1];
    }
  }
  for (size_t c = 0; c < chains.size(); ++c) {
    if (c > 0) *out += " ;";
    for (NodeId v : chains[c]) {
      *out += ' ';
      *out += StepLetter(txn.step(v));
      *out += entity_names[txn.step(v).entity];
    }
  }
  for (const auto& chain : chains) {
    for (NodeId v : chain) {
      std::vector<NodeId> heads = hasse.OutNeighbors(v);
      std::sort(heads.begin(), heads.end(),
                [&](NodeId a, NodeId b) { return ordinal[a] < ordinal[b]; });
      for (NodeId w : heads) {
        if (w == chain_succ[v]) continue;
        *out += StrFormat(" %d->%d", ordinal[v], ordinal[w]);
      }
    }
  }
}

std::string SerializeSystem(const TransactionSystem& sys) {
  return SerializeWorkload(sys, nullptr, nullptr);
}

std::string SerializeWorkload(const TransactionSystem& sys,
                              const CopyPlacement* placement,
                              const LatencyModel* latency) {
  const Database& db = sys.db();
  std::string out;
  // Sites without a primary entity (copy-only or spare sites) would be
  // lost by the `site` lines alone; declare them up front.
  std::string bare_sites;
  for (SiteId s = 0; s < db.num_sites(); ++s) {
    if (db.EntitiesAt(s).empty()) bare_sites += " " + db.SiteName(s);
  }
  if (!bare_sites.empty()) out += "sites:" + bare_sites + "\n";
  for (SiteId s = 0; s < db.num_sites(); ++s) {
    std::vector<EntityId> entities = db.EntitiesAt(s);
    if (entities.empty()) continue;
    out += "site " + db.SiteName(s) + ":";
    for (EntityId e : entities) out += " " + db.EntityName(e);
    out += "\n";
  }
  if (placement != nullptr) {
    for (EntityId e = 0; e < db.num_entities() && e < placement->num_entities();
         ++e) {
      const std::vector<SiteId>& copies = placement->CopiesOf(e);
      if (copies.size() == 1 && copies[0] == db.SiteOf(e)) continue;
      out += "copies " + db.EntityName(e) + ":";
      for (SiteId s : copies) out += " " + db.SiteName(s);
      out += "\n";
    }
  }
  if (latency != nullptr) {
    out += StrFormat("latency: %llu %llu %llu\n",
                     static_cast<unsigned long long>(latency->base),
                     static_cast<unsigned long long>(latency->jitter),
                     static_cast<unsigned long long>(latency->local));
  }
  std::vector<std::string> entity_names(db.num_entities());
  for (EntityId e = 0; e < db.num_entities(); ++e) {
    entity_names[e] = db.EntityName(e);
  }
  for (int i = 0; i < sys.num_transactions(); ++i) {
    const Transaction& t = sys.txn(i);
    std::vector<NodeId> by_id(t.num_steps());
    std::iota(by_id.begin(), by_id.end(), 0);
    out += "txn " + t.name() + ":";
    AppendTransactionBody(t, t.HasseDiagram(), by_id, entity_names, &out);
    out += "\n";
  }
  return out;
}

}  // namespace wydb
