#include "gen.h"

#include <functional>
#include <map>
#include <set>

namespace perfbench {
namespace {

std::string Num(const std::string& prefix, int i) {
  return prefix + std::to_string(i);
}

/// prefix + a + "_" + b, built by appending (GCC 12 misreports the
/// equivalent chain of operator+ on temporaries under -Wrestrict).
std::string Num2(const char* prefix, int a, int b) {
  std::string out = prefix;
  out += std::to_string(a);
  out += '_';
  out += std::to_string(b);
  return out;
}

std::vector<std::string> Sample(std::vector<std::string> from, int n,
                                Rng* rng) {
  rng->Shuffle(&from);
  if (static_cast<int>(from.size()) > n) from.resize(n);
  return from;
}

/// Inserts `extra` at random positions of `phase`, keeping phase's order.
void Scatter(std::vector<std::string>* phase,
             const std::vector<std::string>& extra, Rng* rng) {
  for (const std::string& step : extra) {
    const int at = rng->Below(static_cast<int>(phase->size()) + 1);
    phase->insert(phase->begin() + at, step);
  }
}

/// One two-phase chain: `locks` (plus private locks scattered in), then
/// `unlocks` (plus the private unlocks scattered in).
std::vector<std::string> TwoPhase(std::vector<std::string> locks,
                                  std::vector<std::string> unlocks,
                                  const std::vector<std::string>& privates,
                                  Rng* rng) {
  std::vector<std::string> pl, pu;
  for (const std::string& p : privates) {
    pl.push_back("L" + p);
    pu.push_back("U" + p);
  }
  Scatter(&locks, pl, rng);
  Scatter(&unlocks, pu, rng);
  locks.insert(locks.end(), unlocks.begin(), unlocks.end());
  return locks;
}

GenTxn Chain(std::string name, std::vector<std::string> steps) {
  GenTxn t;
  t.name = std::move(name);
  t.segments.push_back(std::move(steps));
  return t;
}

}  // namespace

std::string Render(const GenSystem& sys) {
  std::string out;
  for (const auto& [site, entities] : sys.sites) {
    out += "site " + site + ":";
    for (const std::string& e : entities) out += " " + e;
    out += "\n";
  }
  for (const auto& [entity, sites] : sys.copies) {
    out += "copies " + entity + ":";
    for (const std::string& s : sites) out += " " + s;
    out += "\n";
  }
  for (const GenTxn& t : sys.txns) {
    out += "txn " + t.name + ":";
    for (size_t s = 0; s < t.segments.size(); ++s) {
      if (s > 0) out += " ;";
      for (const std::string& step : t.segments[s]) out += " " + step;
    }
    for (const auto& [from, to] : t.arcs) {
      out += " " + std::to_string(from) + "->" + std::to_string(to);
    }
    out += "\n";
  }
  return out;
}

namespace {

/// All entity names of `sys`, in listing order.
std::vector<std::string> Entities(const GenSystem& sys) {
  std::vector<std::string> out;
  for (const auto& site : sys.sites) {
    out.insert(out.end(), site.second.begin(), site.second.end());
  }
  return out;
}

/// A random lock/unlock interleaving over `entities` (each locked once,
/// unlocked after), as one chain.
std::vector<std::string> RandomBody(const std::vector<std::string>& entities,
                                    Rng* rng) {
  std::vector<std::string> unlocked = entities;
  rng->Shuffle(&unlocked);
  std::vector<std::string> held;
  std::vector<std::string> body;
  while (!unlocked.empty() || !held.empty()) {
    if (!unlocked.empty() && (held.empty() || rng->Below(2) == 0)) {
      body.push_back("L" + unlocked.back());
      held.push_back(unlocked.back());
      unlocked.pop_back();
    } else {
      const int i = rng->Below(static_cast<int>(held.size()));
      body.push_back("U" + held[i]);
      held.erase(held.begin() + i);
    }
  }
  return body;
}

/// Renames every site, entity and transaction (names carry `tag`, so two
/// disguises with different tags never share a name) and relists sites,
/// entities, transactions and unordered segments in a random order. The
/// result is isomorphic to `sys`.
GenSystem Disguise(const GenSystem& sys, const std::string& tag, Rng* rng) {
  auto names = [&](const std::vector<std::string>& old,
                   const std::string& kind) {
    std::vector<int> ids(old.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    rng->Shuffle(&ids);
    std::map<std::string, std::string> m;
    for (size_t i = 0; i < old.size(); ++i) m[old[i]] = Num(tag + kind, ids[i]);
    return m;
  };
  std::vector<std::string> site_names, txn_names;
  for (const auto& site : sys.sites) site_names.push_back(site.first);
  for (const GenTxn& t : sys.txns) txn_names.push_back(t.name);
  auto ent = names(Entities(sys), "x");
  auto site = names(site_names, "s");
  auto txn = names(txn_names, "t");
  auto step = [&](const std::string& s) { return s.substr(0, 1) + ent.at(s.substr(1)); };

  GenSystem out;
  out.family = sys.family;
  out.deadlock_free = sys.deadlock_free;
  out.safe = sys.safe;
  out.latch = sys.latch.empty() ? "" : ent.at(sys.latch);
  for (const auto& [s, entities] : sys.sites) {
    std::vector<std::string> renamed;
    for (const std::string& e : entities) renamed.push_back(ent.at(e));
    rng->Shuffle(&renamed);
    out.sites.emplace_back(site.at(s), std::move(renamed));
  }
  rng->Shuffle(&out.sites);
  for (const auto& [e, sites] : sys.copies) {
    std::vector<std::string> renamed;
    for (const std::string& s : sites) renamed.push_back(site.at(s));
    out.copies.emplace_back(ent.at(e), std::move(renamed));
  }
  rng->Shuffle(&out.copies);
  for (const GenTxn& t : sys.txns) {
    GenTxn r;
    r.name = txn.at(t.name);
    std::vector<int> order(t.segments.size());
    std::vector<int> old_offset(t.segments.size());
    int total = 0;
    for (size_t s = 0; s < t.segments.size(); ++s) {
      order[s] = static_cast<int>(s);
      old_offset[s] = total;
      total += static_cast<int>(t.segments[s].size());
    }
    rng->Shuffle(&order);
    std::vector<int> remap(total + 1, 0);
    int next = 0;
    for (int s : order) {
      std::vector<std::string> seg;
      for (size_t j = 0; j < t.segments[s].size(); ++j) {
        seg.push_back(step(t.segments[s][j]));
        remap[old_offset[s] + static_cast<int>(j) + 1] = ++next;
      }
      r.segments.push_back(std::move(seg));
    }
    for (const auto& [from, to] : t.arcs) r.arcs.emplace_back(remap[from], remap[to]);
    out.txns.push_back(std::move(r));
  }
  rng->Shuffle(&out.txns);
  return out;
}

/// Every transaction locks `g` first and unlocks it last: g dominates every
/// conflict, so the system is safe and deadlock-free (Theorem 4).
GenSystem LatchSystem(int k, int entities, int per_txn, int sites, Rng* rng) {
  GenSystem sys;
  sys.family = "latch";
  sys.latch = "g";
  for (int s = 0; s < sites; ++s) sys.sites.emplace_back(Num("s", s), std::vector<std::string>{});
  sys.sites[0].second.push_back("g");
  std::vector<std::string> xs;
  for (int i = 0; i < entities; ++i) {
    xs.push_back(Num("x", i));
    sys.sites[(i + 1) % sites].second.push_back(xs.back());
  }
  for (int t = 0; t < k; ++t) {
    std::vector<std::string> body = {"Lg"};
    for (std::string& s : RandomBody(Sample(xs, per_txn, rng), rng)) body.push_back(std::move(s));
    body.push_back("Ug");
    sys.txns.push_back(Chain(Num("T", t), std::move(body)));
  }
  return sys;
}

/// k disjoint transactions of m lock/unlock pairs: (2m+1)^k states.
GenSystem GridSystem(int k, int m) {
  GenSystem sys;
  sys.family = "grid";
  for (int i = 0; i < k; ++i) {
    std::vector<std::string> ents, body;
    for (int j = 0; j < m; ++j) {
      ents.push_back(Num2("e", i, j));
      body.push_back("L" + ents.back());
      body.push_back("U" + ents.back());
    }
    sys.sites.emplace_back(Num("s", i), ents);
    sys.txns.push_back(Chain(Num("T", i), std::move(body)));
  }
  return sys;
}

/// Two-phase transactions sharing one entity with each neighbour on a
/// path: safe (2PL) and deadlock-free (acyclic interaction graph).
/// Each transaction also locks up to `decor` private entities inside.
GenSystem ChainSystem(int k, int decor, Rng* rng) {
  GenSystem sys;
  sys.family = "chain";
  for (int i = 0; i < k; ++i) {
    std::vector<std::string> ents = {Num("o", i)};
    for (int d = 0, n = rng->Below(decor + 1); d < n; ++d) ents.push_back(Num2("p", i, d));
    sys.sites.emplace_back(Num("so", i), ents);
  }
  for (int i = 0; i + 1 < k; ++i) sys.sites.emplace_back(Num("ss", i), std::vector<std::string>{Num("s", i)});
  for (int i = 0; i < k; ++i) {
    std::vector<std::string> locks, unlocks;
    if (i > 0) locks.push_back(Num("Ls", i - 1));
    locks.push_back(Num("Lo", i));
    if (i + 1 < k) locks.push_back(Num("Ls", i));
    if (i + 1 < k) unlocks.push_back(Num("Us", i));
    unlocks.push_back(Num("Uo", i));
    if (i > 0) unlocks.push_back(Num("Us", i - 1));
    std::vector<std::string> privates(sys.sites[i].second.begin() + 1, sys.sites[i].second.end());
    sys.txns.push_back(Chain(Num("T", i), TwoPhase(locks, unlocks, privates, rng)));
  }
  return sys;
}

/// Transaction i locks e_i then e_(i+1 mod k), two-phase: safe, but the
/// circular wait deadlocks. `decor` as for chains.
GenSystem RingSystem(int k, int decor, Rng* rng) {
  GenSystem sys;
  sys.family = "ring";
  sys.deadlock_free = false;
  for (int i = 0; i < k; ++i) {
    std::vector<std::string> ents = {Num("e", i)};
    for (int d = 0, n = rng->Below(decor + 1); d < n; ++d) ents.push_back(Num2("p", i, d));
    sys.sites.emplace_back(Num("s", i), ents);
  }
  for (int i = 0; i < k; ++i) {
    const int j = (i + 1) % k;
    std::vector<std::string> privates(sys.sites[i].second.begin() + 1, sys.sites[i].second.end());
    sys.txns.push_back(Chain(Num("T", i), TwoPhase({Num("Le", i), Num("Le", j)},
                                                   {Num("Ue", j), Num("Ue", i)}, privates, rng)));
  }
  return sys;
}

/// w copies of one template over e entities, each entity replicated on two
/// sites. Certified: lock e0 first, hold it to the end. Cyclic: locks are
/// mutually unordered and each held across the next entity's unlock; for
/// w >= 3 and e >= 3 the copies can deadlock and have non-serializable
/// schedules (with e = 2 every lock precedes every unlock: two-phase).
GenSystem FarmSystem(int w, int e, bool certified) {
  GenSystem sys;
  sys.family = certified ? "farm" : "cyclic-farm";
  sys.deadlock_free = certified;
  sys.safe = certified;
  for (int i = 0; i < e; ++i) {
    sys.sites.emplace_back(Num("s", i), std::vector<std::string>{Num("e", i)});
    sys.copies.emplace_back(Num("e", i), std::vector<std::string>{Num("s", i), Num("s", (i + 1) % e)});
  }
  for (int x = 0; x < w; ++x) {
    GenTxn t;
    t.name = Num("W", x);
    if (certified) {
      std::vector<std::string> body;
      for (int i = 0; i < e; ++i) body.push_back(Num("Le", i));
      for (int i = 1; i < e; ++i) body.push_back(Num("Ue", i));
      body.push_back("Ue0");
      t.segments.push_back(std::move(body));
    } else {
      // Segment i holds the pair (L e_i, U e_i) at ordinals 2i+1, 2i+2.
      for (int i = 0; i < e; ++i) {
        t.segments.push_back({Num("Le", i), Num("Ue", i)});
        t.arcs.emplace_back(2 * i + 1, 2 * ((i + 1) % e) + 2);
      }
    }
    sys.txns.push_back(std::move(t));
  }
  return sys;
}

/// Removes declared entities that no step touches.
void DropIdleEntities(GenSystem* sys) {
  std::set<std::string> used;
  for (const GenTxn& t : sys->txns) {
    for (const auto& seg : t.segments) {
      for (const std::string& step : seg) used.insert(step.substr(1));
    }
  }
  for (auto& site : sys->sites) {
    std::vector<std::string>& ents = site.second;
    ents.erase(std::remove_if(ents.begin(), ents.end(),
                              [&](const std::string& e) { return used.count(e) == 0; }),
               ents.end());
  }
}

}  // namespace

std::vector<GenSystem> AnalyzeBatch(uint64_t seed, bool smoke) {
  // The shapes come from a fixed stream, so the batch's work is the same
  // for every seed; the seed picks names, listing orders and batch order.
  Rng shape(SubSeed(0, 1));
  Rng rng(SubSeed(seed, 1));
  std::vector<GenSystem> batch;
  auto add = [&](GenSystem sys) { batch.push_back(std::move(sys)); };
  // Grids span 10^2..1.6*10^5 states ((2m+1)^k); the other families add
  // real conflicts, up to chain 7's 5.7*10^5 states over both searches.
  // Larger systems would stretch a pass past a few seconds and leave too
  // few passes per run for steady figures. The ten costliest systems sit
  // within 2x of each other (0.1-0.2 s), so the 95th percentile falls
  // inside that group rather than on the edge of a gap.
  const std::vector<std::pair<int, int>> grids =
      smoke ? std::vector<std::pair<int, int>>{{2, 2}, {3, 2}, {3, 3}}
            : std::vector<std::pair<int, int>>{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {3, 4}, {4, 2},
                                               {4, 3}, {4, 4}, {5, 2}, {5, 3}, {4, 5}, {6, 2},
                                               {5, 4}, {7, 2}, {5, 5}, {6, 3}, {5, 5}, {6, 3}};
  for (auto [k, m] : grids) add(GridSystem(k, m));
  const std::vector<int> chains = smoke ? std::vector<int>{2, 3, 4}
                                        : std::vector<int>{2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 7};
  for (int k : chains) add(ChainSystem(k, 0, &shape));
  const std::vector<int> rings = smoke ? std::vector<int>{2, 3, 4}
                                       : std::vector<int>{2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7};
  for (int k : rings) add(RingSystem(k, 0, &shape));
  const std::vector<std::pair<int, int>> farms =
      smoke ? std::vector<std::pair<int, int>>{{2, 2}, {3, 3}}
            : std::vector<std::pair<int, int>>{{2, 2}, {3, 2}, {4, 2}, {5, 2}, {2, 3}, {3, 3}, {4, 3},
                                               {5, 3}, {6, 3}, {7, 3}, {7, 3}, {3, 4}, {4, 4}, {5, 4}};
  for (auto [w, e] : farms) add(FarmSystem(w, e, true));
  const std::vector<std::pair<int, int>> cyclic =
      smoke ? std::vector<std::pair<int, int>>{{3, 3}}
            : std::vector<std::pair<int, int>>{{3, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3}, {8, 3},
                                               {3, 4}, {4, 4}, {5, 4}, {6, 4}, {3, 5}, {4, 5}};
  for (auto [w, e] : cyclic) add(FarmSystem(w, e, false));
  // Latch systems stay at k <= 6, where every random structure is cheap.
  const int latches = smoke ? 4 : 34;
  for (int i = 0; i < latches; ++i) {
    const int k = 3 + i % 4;
    add(LatchSystem(k, 6 + shape.Below(8), 2 + shape.Below(2), 1 + shape.Below(3), &shape));
  }
  for (GenSystem& sys : batch) sys = Disguise(sys, "", &rng);
  rng.Shuffle(&batch);
  return batch;
}

namespace {

/// One small system of the serve families: latch (certified), ring
/// (refuted) or chain (certified). Only entities some step touches are
/// declared.
GenSystem ServeSystem(int family, int k, Rng* rng) {
  // Private entities stretch the search before the conflicts; one per
  // transaction past k = 3 keeps every search under about 10^4 states.
  const int decor = k <= 3 ? 2 : 1;
  GenSystem sys;
  if (family == 0) {
    sys = LatchSystem(k, 4 + rng->Below(8), 1 + rng->Below(3), 1 + rng->Below(3), rng);
  } else if (family == 1) {
    sys = RingSystem(k, decor, rng);
  } else {
    sys = ChainSystem(k, decor, rng);
  }
  DropIdleEntities(&sys);
  return sys;
}

/// An isomorphism invariant: equal signatures are necessary for two
/// systems to be isomorphic, so distinct ones prove they are not.
std::string Signature(const GenSystem& sys) {
  std::vector<int> lengths, sites;
  for (const GenTxn& t : sys.txns) {
    int n = 0;
    for (const auto& seg : t.segments) n += static_cast<int>(seg.size());
    lengths.push_back(n);
  }
  for (const auto& site : sys.sites) sites.push_back(static_cast<int>(site.second.size()));
  std::sort(lengths.begin(), lengths.end());
  std::sort(sites.begin(), sites.end());
  std::string sig = sys.family;
  for (int n : lengths) sig += " " + std::to_string(n);
  sig += " |";
  for (int n : sites) sig += " " + std::to_string(n);
  return sig;
}

}  // namespace

std::vector<GenSystem> ServePool(uint64_t seed, bool smoke) {
  // As in AnalyzeBatch: fixed shapes, seeded names and listing orders.
  Rng shape(SubSeed(0, 2));
  Rng rng(SubSeed(seed, 2));
  const int n = smoke ? 16 : 64;
  std::vector<GenSystem> pool;
  std::set<std::string> seen;
  for (int i = 0; i < n; ++i) {
    static constexpr int kFamilyOf[4] = {0, 0, 1, 2};
    GenSystem sys;
    // Redraw until the signature is new: the pool is then pairwise
    // non-isomorphic, so each of its systems is a distinct cache entry.
    // (The bound only guards the loop; every family has room for its
    // share of the pool.)
    for (int attempt = 0; attempt < 10000; ++attempt) {
      sys = ServeSystem(kFamilyOf[i % 4], 3 + (i / 4) % 3, &shape);
      if (seen.insert(Signature(sys)).second) break;
    }
    pool.push_back(Disguise(sys, "p" + std::to_string(i) + "_", &rng));
  }
  return pool;
}

RequestStream::RequestStream(const std::vector<GenSystem>* pool, uint64_t seed,
                             int conn, int conns)
    : pool_(pool),
      rng_(SubSeed(seed, 1000 + conn)),
      latch_shape_(SubSeed(0, 1000 + conn)),
      refuted_shape_(SubSeed(0, 2000 + conn)),
      fresh_shape_(SubSeed(0, 3000 + conn)),
      conn_(conn),
      conns_(conns) {
  for (size_t i = 0; i < pool->size(); ++i) {
    const GenSystem& sys = (*pool)[i];
    if (!sys.latch.empty()) latch_items_.push_back(static_cast<int>(i));
    if (!sys.certified()) refuted_items_.push_back(static_cast<int>(i));
    hit_order_.push_back(static_cast<int>(i));
  }
  // One order shared by every connection: together they sweep the whole
  // pool every pool-size hits, so each entry stays recently used.
  Rng order(SubSeed(seed, 3));
  order.Shuffle(&hit_order_);
}

Request RequestStream::Next() {
  if (block_pos_ == block_.size()) {
    block_.assign(14, RequestKind::kHit);
    block_.insert(block_.end(), {RequestKind::kAddLatch, RequestKind::kAddRefuted,
                                 RequestKind::kRemove, RequestKind::kFresh,
                                 RequestKind::kFresh, RequestKind::kFresh});
    rng_.Shuffle(&block_);
    auto add = std::find(block_.begin(), block_.end(), RequestKind::kAddLatch);
    auto remove = std::find(block_.begin(), block_.end(), RequestKind::kRemove);
    if (remove < add) std::iter_swap(add, remove);
    block_pos_ = 0;
  }
  const RequestKind kind = block_[block_pos_++];
  const std::string tag = std::to_string(conn_) + "_" + std::to_string(serial_++) + "_";
  const auto& pool = *pool_;
  Request req;
  req.kind = kind;
  switch (kind) {
    case RequestKind::kHit: {
      const GenSystem& sys = pool[hit_order_[(hits_++ * conns_ + conn_) % pool.size()]];
      req.text = Render(Disguise(sys, "h" + tag, &rng_));
      req.expect_certified = sys.certified();
      break;
    }
    case RequestKind::kAddLatch: {
      GenSystem sys = pool[latch_items_[(latch_cursor_++ * conns_ + conn_) % latch_items_.size()]];
      std::vector<std::string> others = Entities(sys);
      others.erase(std::find(others.begin(), others.end(), sys.latch));
      std::vector<std::string> body = {"L" + sys.latch};
      for (std::string& s : RandomBody(Sample(others, 2 + latch_shape_.Below(2), &latch_shape_), &latch_shape_)) body.push_back(std::move(s));
      body.push_back("U" + sys.latch);
      sys.txns.push_back(Chain("A" + tag, std::move(body)));
      req.text = Render(sys);
      req.expect_certified = true;  // g still dominates every conflict.
      last_latch_add_ = std::move(sys);
      break;
    }
    case RequestKind::kAddRefuted: {
      GenSystem sys = pool[refuted_items_[(refuted_cursor_++ * conns_ + conn_) % refuted_items_.size()]];
      sys.txns.push_back(Chain("A" + tag, RandomBody(Sample(Entities(sys), 2 + refuted_shape_.Below(2), &refuted_shape_), &refuted_shape_)));
      req.text = Render(sys);
      req.expect_certified = false;  // The refuting schedule stays legal.
      break;
    }
    case RequestKind::kRemove: {
      // An original transaction of this block's certified addition: a
      // subsystem of a certified system is certified.
      GenSystem sys = last_latch_add_;
      sys.txns.erase(sys.txns.begin() + latch_shape_.Below(static_cast<int>(sys.txns.size()) - 1));
      req.text = Render(sys);
      req.expect_certified = true;
      break;
    }
    case RequestKind::kFresh: {
      // Families and sizes in a fixed rotation.
      const int n = static_cast<int>(fresh_++ % 9);
      GenSystem sys = ServeSystem(n % 3, 3 + n / 3, &fresh_shape_);
      req.expect_certified = sys.certified();
      req.text = Render(Disguise(sys, "f" + tag, &rng_));
      break;
    }
  }
  return req;
}

GenSystem LiveSystem(uint64_t seed, bool smoke) {
  Rng rng(SubSeed(seed, 4));
  const int sites = smoke ? 4 : 64;
  GenSystem sys;
  sys.family = "live-latch";
  sys.latch = "latch";
  std::vector<std::string> all;
  for (int s = 0; s < sites; ++s) {
    std::vector<std::string> ents;
    for (int i = 0; i < 1024; ++i) ents.push_back(Num2("e", s, i));
    all.insert(all.end(), ents.begin(), ents.end());
    sys.sites.emplace_back(Num("s", s), std::move(ents));
  }
  sys.sites[0].second.insert(sys.sites[0].second.begin(), "latch");
  for (int t = 0; t < 16; ++t) {
    std::vector<std::string> picks;
    while (picks.size() < 5) {
      const std::string& e = all[rng.Below(static_cast<int>(all.size()))];
      if (std::find(picks.begin(), picks.end(), e) == picks.end()) picks.push_back(e);
    }
    std::vector<std::string> body = {"Llatch"};
    for (std::string& s : RandomBody(picks, &rng)) body.push_back(std::move(s));
    body.push_back("Ulatch");
    sys.txns.push_back(Chain(Num("T", t + 1), std::move(body)));
  }
  return sys;
}

uint64_t InputDigest(const std::string& workload, uint64_t seed, bool smoke) {
  uint64_t h = Fnv1a(workload);
  if (workload == "analyze-exact") {
    for (const GenSystem& sys : AnalyzeBatch(seed, smoke)) h = Fnv1a(Render(sys), h);
  } else if (workload == "serve-mix") {
    const std::vector<GenSystem> pool = ServePool(seed, smoke);
    for (const GenSystem& sys : pool) h = Fnv1a(Render(sys), h);
    for (int c = 0; c < 4; ++c) {
      RequestStream stream(&pool, seed, c, 4);
      for (int i = 0; i < 100; ++i) h = Fnv1a(stream.Next().text, h);
    }
  } else {
    h = Fnv1a(Render(LiveSystem(seed, smoke)), h);
  }
  return h;
}

}  // namespace perfbench
