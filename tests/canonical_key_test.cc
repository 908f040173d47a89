// Property tests for the symmetry-invariant canonical cache key
// (docs/SERVE.md): invariance under entity/site renaming and transaction
// permutation, sensitivity to verdict-relevant edits, and idempotence of
// the canonical rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/canonical.h"
#include "gen/system_gen.h"
#include "io/text_format.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

using testutil::MakeDb;
using testutil::MakeSeq;
using testutil::MakeSystem;

/// Rebuilds `sys` with renamed sites/entities (declared in reversed site
/// order, so raw ids shift too) and transactions rotated by `rot` with
/// fresh names — an isomorphic system under the symmetries the serving
/// cache must absorb.
OwnedSystem RenameAndPermute(const TransactionSystem& sys, int rot) {
  const Database& db = sys.db();
  OwnedSystem out;
  out.db = std::make_unique<Database>();
  std::vector<EntityId> emap(db.num_entities(), kInvalidEntity);
  for (SiteId s = db.num_sites() - 1; s >= 0; --s) {
    SiteId ns = *out.db->AddSite("renamed_" + db.SiteName(s));
    for (EntityId e : db.EntitiesAt(s)) {
      emap[e] = *out.db->AddEntity("moved_" + db.EntityName(e), ns);
    }
  }
  const int n = sys.num_transactions();
  std::vector<Transaction> txns;
  for (int i = 0; i < n; ++i) {
    const Transaction& t = sys.txn((i + rot) % n);
    std::vector<Step> steps;
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      Step s = t.step(v);
      s.entity = emap[s.entity];
      steps.push_back(s);
    }
    std::vector<std::pair<int, int>> arcs;
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      for (NodeId w : t.graph().OutNeighbors(v)) arcs.emplace_back(v, w);
    }
    txns.push_back(*Transaction::Create(
        out.db.get(), "fresh" + std::to_string(i), steps, arcs));
  }
  out.system = std::make_unique<TransactionSystem>(
      *TransactionSystem::Create(out.db.get(), std::move(txns)));
  return out;
}

TEST(CanonicalKeyTest, InvariantUnderRenamingAndPermutation) {
  int distinct_keys = 0;
  std::string last_text;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 3;
    opts.entities_per_site = 2;
    opts.num_transactions = 4;
    opts.entities_per_txn = 3;
    opts.shared_fraction = seed % 2 == 0 ? 0.5 : 0.0;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    auto key = CanonicalSystemKey(*sys->system);
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    EXPECT_TRUE(key->complete) << "seed " << seed;
    // The canonical text is a parseable .wydb description.
    ASSERT_TRUE(ParseWorkload(key->text).ok()) << key->text;

    for (int rot = 1; rot < 4; ++rot) {
      OwnedSystem variant = RenameAndPermute(*sys->system, rot);
      auto vkey = CanonicalSystemKey(*variant.system);
      ASSERT_TRUE(vkey.ok());
      EXPECT_EQ(vkey->text, key->text) << "seed " << seed << " rot " << rot;
      EXPECT_EQ(vkey->hash, key->hash) << "seed " << seed << " rot " << rot;
    }

    // txn_perm really is the isomorphism: slot bodies must match the
    // originals they map to (checked via the serialized step labels).
    ASSERT_EQ(static_cast<int>(key->txn_perm.size()),
              sys->system->num_transactions());
    if (key->text != last_text) ++distinct_keys;
    last_text = key->text;
  }
  EXPECT_GT(distinct_keys, 30);  // The generator isn't collapsing.
}

TEST(CanonicalKeyTest, IdempotentOnItsOwnRendering) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 2;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    auto key = CanonicalSystemKey(*sys->system);
    ASSERT_TRUE(key.ok());
    auto reparsed = ParseWorkload(key->text);
    ASSERT_TRUE(reparsed.ok()) << key->text;
    auto again = CanonicalSystemKey(*reparsed->owned.system);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->text, key->text) << "seed " << seed;
  }
}

TEST(CanonicalKeyTest, VerdictChangingEditsChangeTheKey) {
  // Base: two-segment transaction plus a chained partner.
  auto parse_key = [](const char* text) {
    auto sys = ParseSystem(text);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    auto key = CanonicalSystemKey(*sys->system);
    EXPECT_TRUE(key.ok());
    return key->text;
  };
  const std::string base = parse_key(
      "site s1: x\nsite s2: y\n"
      "txn T1: Lx Ux ; Ly Uy\n"
      "txn T2: Lx Ly Ux Uy\n");
  // Adding a precedence arc (T1 becomes the chain) changes the key...
  const std::string chained = parse_key(
      "site s1: x\nsite s2: y\n"
      "txn T1: Lx Ux Ly Uy\n"
      "txn T2: Lx Ly Ux Uy\n");
  EXPECT_NE(chained, base);
  // ...demoting an X lock to S changes the key...
  const std::string shared = parse_key(
      "site s1: x\nsite s2: y\n"
      "txn T1: Sx Ux ; Ly Uy\n"
      "txn T2: Lx Ly Ux Uy\n");
  EXPECT_NE(shared, base);
  // ...and moving an entity to the other site changes the key (the
  // distribution is part of the model).
  const std::string moved = parse_key(
      "site s1: x y\n"
      "txn T1: Lx Ux Ly Uy\n"
      "txn T2: Lx Ly Ux Uy\n");
  EXPECT_NE(moved, chained);
}

TEST(CanonicalKeyTest, HighlySymmetricSystemsStillCanonicalize) {
  // Six identical disjoint transactions: the entity classes stay tied
  // through refinement, forcing individualization; whether or not the
  // leaf budget suffices, the key must come back usable and stable
  // across transaction permutation.
  auto db = MakeDb({{"s1", {"a", "b", "c", "d", "e", "f"}}});
  std::vector<Transaction> txns;
  const char* names[] = {"a", "b", "c", "d", "e", "f"};
  for (int i = 0; i < 6; ++i) {
    txns.push_back(MakeSeq(db.get(), "T" + std::to_string(i),
                           {std::string("L") + names[i],
                            std::string("U") + names[i]}));
  }
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto key = CanonicalSystemKey(sys);
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(ParseWorkload(key->text).ok()) << key->text;
  for (int rot = 1; rot < 6; ++rot) {
    OwnedSystem variant = RenameAndPermute(sys, rot);
    auto vkey = CanonicalSystemKey(*variant.system);
    ASSERT_TRUE(vkey.ok());
    // Full symmetry: every individualization leaf renders the same text,
    // so even a truncated search agrees across permutations.
    EXPECT_EQ(vkey->text, key->text) << "rot " << rot;
  }
}

/// The renderer and the serializer must agree: the canonical text is
/// exactly what SerializeSystem prints for its own reparse. For complete
/// keys (and whenever `expect_stable`), re-keying the reparse reproduces
/// the text, and renamed/permuted copies key to it. Returns whether the
/// key was complete.
bool ExpectRendererMatchesSerializer(const TransactionSystem& sys,
                                     const std::string& label,
                                     bool expect_stable = false) {
  SCOPED_TRACE(label);
  auto key = CanonicalSystemKey(sys);
  EXPECT_TRUE(key.ok()) << key.status().ToString();
  if (!key.ok()) return false;
  auto reparsed = ParseWorkload(key->text);
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << key->text;
  if (!reparsed.ok()) return false;
  EXPECT_EQ(SerializeSystem(*reparsed->owned.system), key->text);
  if (!key->complete && !expect_stable) return false;
  auto again = CanonicalSystemKey(*reparsed->owned.system);
  EXPECT_TRUE(again.ok());
  if (again.ok()) EXPECT_EQ(again->text, key->text);
  const int n = sys.num_transactions();
  for (int rot = 1; rot < std::min(n, 4); ++rot) {
    OwnedSystem variant = RenameAndPermute(sys, rot);
    auto vkey = CanonicalSystemKey(*variant.system);
    EXPECT_TRUE(vkey.ok());
    if (vkey.ok()) EXPECT_EQ(vkey->text, key->text) << "rot " << rot;
  }
  return key->complete;
}

TEST(CanonicalKeyTest, RendererAgreesWithTheSerializer) {
  int complete = 0;
  int total = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 3;
    opts.entities_per_site = 2;
    opts.num_transactions = 4;
    opts.entities_per_txn = 3;
    opts.extra_arc_prob = seed % 3 == 0 ? 0.0 : 0.3;
    opts.shared_fraction = seed % 2 == 0 ? 0.5 : 0.0;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    ++total;
    complete += ExpectRendererMatchesSerializer(
        *sys->system, "random seed " + std::to_string(seed));
  }
  for (int k = 2; k <= 6; ++k) {
    auto ring = GenerateRingSystem(k);
    ASSERT_TRUE(ring.ok());
    ++total;
    complete += ExpectRendererMatchesSerializer(
        *ring->system, "ring " + std::to_string(k));
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto chorded = GenerateChordedCycleSystem(5, 2, seed);
    ASSERT_TRUE(chorded.ok());
    ++total;
    complete += ExpectRendererMatchesSerializer(
        *chorded->system, "chorded seed " + std::to_string(seed));
  }
  // Entity-less sites render as a `sites:` line, as the serializer does.
  auto spare = ParseSystem(
      "sites: spare other\n"
      "site s1: x y\n"
      "site s2: z\n"
      "txn A: Lx Ly Uy Ux ; Lz Uz 1->4\n"
      "txn B: Sz Lx Ux Uz\n");
  ASSERT_TRUE(spare.ok()) << spare.status().ToString();
  ++total;
  complete += ExpectRendererMatchesSerializer(*spare->system, "spare sites");
  // The fixpoint checks above must not have been skipped wholesale.
  EXPECT_GT(complete * 4, total * 3) << complete << " of " << total;

  // Six identical disjoint transactions exhaust the leaf budget, but every
  // leaf renders the same text, so the key is still stable.
  auto db = MakeDb({{"s1", {"a", "b", "c", "d", "e", "f"}}});
  std::vector<Transaction> txns;
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    txns.push_back(MakeSeq(db.get(), std::string("T") + name,
                           {std::string("L") + name,
                            std::string("U") + name}));
  }
  TransactionSystem six = MakeSystem(db.get(), std::move(txns));
  ExpectRendererMatchesSerializer(six, "six identical", /*expect_stable=*/true);
}

}  // namespace
}  // namespace wydb
