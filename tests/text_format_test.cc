// Tests for the workload text format and its round-tripping, including
// the replication stanzas (`sites`, `copies`, `latency`), the arc-token
// partial-order syntax, and the parse∘serialize identity on the step
// partial order.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "analysis/multi_analyzer.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "gen/system_gen.h"
#include "io/text_format.h"

namespace wydb {
namespace {

constexpr char kBanking[] = R"(
# two branches
site branch1: alice bob
site branch2: carol dave

txn transfer: Lalice Lcarol Ualice Ucarol
txn audit: Lcarol Ldave Lalice Lbob Ucarol Udave Ualice Ubob
)";

TEST(TextFormatTest, ParsesSitesAndTransactions) {
  auto sys = ParseSystem(kBanking);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_EQ(sys->db->num_sites(), 2);
  EXPECT_EQ(sys->db->num_entities(), 4);
  EXPECT_EQ(sys->system->num_transactions(), 2);
  EXPECT_EQ(sys->system->txn(0).name(), "transfer");
  EXPECT_EQ(sys->system->txn(0).num_steps(), 4);
  EXPECT_EQ(sys->db->SiteOf(sys->db->FindEntity("dave")),
            sys->db->FindSite("branch2"));
}

TEST(TextFormatTest, ParsedSystemIsAnalyzable) {
  auto sys = ParseSystem(kBanking);
  ASSERT_TRUE(sys.ok());
  auto report = CheckSystemSafeAndDeadlockFree(*sys->system);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->safe_and_deadlock_free);  // Opposite orders.
}

TEST(TextFormatTest, SegmentsAreUnordered) {
  auto sys = ParseSystem(
      "site s1: x\n"
      "site s2: y\n"
      "txn T: Lx Ux ; Ly Uy\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const Transaction& t = sys->system->txn(0);
  NodeId lx = t.LockNode(sys->db->FindEntity("x"));
  NodeId ly = t.LockNode(sys->db->FindEntity("y"));
  EXPECT_FALSE(t.Comparable(lx, ly));
}

TEST(TextFormatTest, CommentsAndBlanksIgnored) {
  auto sys = ParseSystem(
      "# header\n"
      "\n"
      "site s: x   # trailing comment\n"
      "txn T: Lx Ux\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_EQ(sys->system->num_transactions(), 1);
}

TEST(TextFormatTest, ErrorsCarryLineNumbers) {
  auto bad = ParseSystem("site s: x\nbogus directive\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(TextFormatTest, RejectsBadStepToken) {
  auto bad = ParseSystem("site s: x\ntxn T: Zx\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("bad step"), std::string::npos);
  // The misuse contract: the diagnostic names the failing line and spells
  // out the accepted tokens, shared mode included.
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(bad.status().message().find("S<entity>"), std::string::npos);
}

TEST(TextFormatTest, ParsesSharedSteps) {
  auto sys = ParseSystem(
      "site s1: g x\n"
      "site s2: y\n"
      "txn T: Lg Sx Sy Uy Ux Ug\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const Transaction& t = sys->system->txn(0);
  const Database& db = *sys->db;
  EXPECT_EQ(t.LockModeOf(db.FindEntity("g")), LockMode::kExclusive);
  EXPECT_EQ(t.LockModeOf(db.FindEntity("x")), LockMode::kShared);
  EXPECT_EQ(t.LockModeOf(db.FindEntity("y")), LockMode::kShared);
  // The Unlock steps carry their Lock's mode (Create normalization).
  NodeId ux = t.UnlockNode(db.FindEntity("x"));
  EXPECT_EQ(t.step(ux).mode, LockMode::kShared);
  NodeId ug = t.UnlockNode(db.FindEntity("g"));
  EXPECT_EQ(t.step(ug).mode, LockMode::kExclusive);
}

TEST(TextFormatTest, SharedStepsRoundTrip) {
  auto sys = ParseSystem(
      "site s1: g x\n"
      "site s2: y\n"
      "txn R: Lg Sx Sy Uy Ux Ug\n"
      "txn W: Lg Lx Ux Ug\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  std::string text = SerializeSystem(*sys->system);
  // S tokens survive serialization...
  EXPECT_NE(text.find("Sx"), std::string::npos);
  EXPECT_NE(text.find("Sy"), std::string::npos);
  // ...and X steps are NOT rewritten as shared.
  EXPECT_NE(text.find("Lg"), std::string::npos);
  auto again = ParseSystem(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  for (int i = 0; i < sys->system->num_transactions(); ++i) {
    EXPECT_EQ(again->system->txn(i).DebugString(),
              sys->system->txn(i).DebugString());
  }
}

TEST(TextFormatTest, SharedAndExclusiveAccessOfOneEntityStillUnique) {
  // S and L on the same entity are two locks of it — rejected like any
  // duplicate access, with the line named.
  auto bad = ParseSystem("site s: x\ntxn T: Sx Lx Ux\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(TextFormatTest, RejectsUnknownEntity) {
  auto bad = ParseSystem("site s: x\ntxn T: Ly Uy\n");
  EXPECT_FALSE(bad.ok());
}

TEST(TextFormatTest, RejectsModelViolations) {
  // Unlock before lock within a segment chain.
  auto bad = ParseSystem("site s: x\ntxn T: Ux Lx\n");
  EXPECT_FALSE(bad.ok());
  // Same-site steps in unordered segments violate the site total order.
  auto bad2 = ParseSystem("site s: x y\ntxn T: Lx Ux ; Ly Uy\n");
  EXPECT_FALSE(bad2.ok());
}

TEST(TextFormatTest, RejectsDuplicateSite) {
  EXPECT_FALSE(ParseSystem("site s: x\nsite s: y\n").ok());
}

TEST(TextFormatTest, RejectsEmptyTransaction) {
  EXPECT_FALSE(ParseSystem("site s: x\ntxn T:\n").ok());
}

TEST(TextFormatTest, RoundTripsTotalOrders) {
  auto sys = ParseSystem(kBanking);
  ASSERT_TRUE(sys.ok());
  std::string text = SerializeSystem(*sys->system);
  auto again = ParseSystem(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  ASSERT_EQ(again->system->num_transactions(),
            sys->system->num_transactions());
  for (int i = 0; i < sys->system->num_transactions(); ++i) {
    EXPECT_EQ(again->system->txn(i).DebugString(),
              sys->system->txn(i).DebugString());
  }
}

// ---------------------------------------------------------------------
// Replication stanzas.

constexpr char kReplicated[] = R"(
sites: backup
site s1: x
site s2: y
copies x: s1 backup
copies y: s2 backup s1
latency: 20 7 2
txn T: Lx Ly Ux Uy
)";

TEST(TextFormatTest, ParsesReplicationStanzas) {
  auto spec = ParseWorkload(kReplicated);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Database& db = *spec->owned.db;
  EXPECT_EQ(db.num_sites(), 3);
  EXPECT_TRUE(db.EntitiesAt(db.FindSite("backup")).empty());

  ASSERT_NE(spec->owned.placement, nullptr);
  const CopyPlacement& placement = *spec->owned.placement;
  EXPECT_TRUE(placement.IsReplicated());
  EXPECT_EQ(placement.DegreeOf(db.FindEntity("x")), 2);
  EXPECT_EQ(placement.DegreeOf(db.FindEntity("y")), 3);
  // The first listed site is the primary.
  EXPECT_EQ(placement.PrimaryOf(db.FindEntity("y")), db.FindSite("s2"));

  EXPECT_TRUE(spec->has_latency);
  EXPECT_EQ(spec->latency.base, 20u);
  EXPECT_EQ(spec->latency.jitter, 7u);
  EXPECT_EQ(spec->latency.local, 2u);
}

TEST(TextFormatTest, BareSiteLineCreatesTheSite) {
  auto sys = ParseSystem("site lonely:\nsite s: x\ntxn T: Lx Ux\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_NE(sys->db->FindSite("lonely"), kInvalidSite);
}

TEST(TextFormatTest, RejectsBadReplicationStanzas) {
  // Unknown entity / site.
  EXPECT_FALSE(ParseWorkload("site s: x\ncopies z: s\ntxn T: Lx Ux\n").ok());
  EXPECT_FALSE(ParseWorkload("site s: x\ncopies x: nope\ntxn T: Lx Ux\n").ok());
  // Duplicate copy site and duplicate stanza.
  EXPECT_FALSE(ParseWorkload("site s: x\ncopies x: s s\ntxn T: Lx Ux\n").ok());
  EXPECT_FALSE(ParseWorkload("sites: a\nsite s: x\ncopies x: s\ncopies x: a\n"
                             "txn T: Lx Ux\n")
                   .ok());
  // Malformed latency.
  EXPECT_FALSE(ParseWorkload("site s: x\nlatency: 1 2\ntxn T: Lx Ux\n").ok());
  EXPECT_FALSE(
      ParseWorkload("site s: x\nlatency: a b c\ntxn T: Lx Ux\n").ok());
  EXPECT_FALSE(ParseWorkload("site s: x\nlatency: 1 2 3\nlatency: 1 2 3\n"
                             "txn T: Lx Ux\n")
                   .ok());
  // Duplicate site declarations across stanza kinds.
  EXPECT_FALSE(ParseWorkload("sites: s\nsites: s\ntxn T: Lx Ux\n").ok());
  EXPECT_FALSE(ParseSystem("site s: x\nsite s: y\n").ok());
}

// Every malformed stanza class must surface as a Status that names the
// failing line — no crash, no silent default. Table-driven so each new
// stanza kind picks up a negative case alongside its parser.
TEST(TextFormatTest, NegativeStanzasNameTheFailingLine) {
  struct Case {
    const char* label;
    const char* text;
    int line;
  };
  const Case kCases[] = {
      {"sites with no names", "site s: x\nsites:\ntxn T: Lx Ux\n", 2},
      {"site header missing colon", "site s x\ntxn T: Lx Ux\n", 1},
      {"site with empty name", "site :\ntxn T: Lx Ux\n", 1},
      {"duplicate entity at one site", "site s: x x\ntxn T: Lx Ux\n", 1},
      {"duplicate entity across sites",
       "site s: x\nsite t: x\ntxn T: Lx Ux\n", 2},
      {"duplicate site header", "site s: x\nsite s: y\ntxn T: Lx Ux\n", 2},
      {"copies missing colon", "site s: x\ncopies x s\ntxn T: Lx Ux\n", 2},
      {"copies with no sites", "site s: x\ncopies x:\ntxn T: Lx Ux\n", 2},
      {"copies with empty entity", "site s: x\ncopies :\ntxn T: Lx Ux\n",
       2},
      {"copies of unknown entity", "site s: x\ncopies z: s\ntxn T: Lx Ux\n",
       2},
      {"copies at out-of-range site",
       "site s: x\ncopies x: s9\ntxn T: Lx Ux\n", 2},
      {"copies repeating a site", "site s: x\ncopies x: s s\ntxn T: Lx Ux\n",
       2},
      {"duplicate copies stanza",
       "sites: a\nsite s: x\ncopies x: s\ncopies x: a\ntxn T: Lx Ux\n", 4},
      {"latency wrong arity", "site s: x\nlatency: 1 2\ntxn T: Lx Ux\n", 2},
      {"latency non-numeric", "site s: x\nlatency: a b c\ntxn T: Lx Ux\n",
       2},
      {"latency negative", "site s: x\nlatency: -1 0 0\ntxn T: Lx Ux\n", 2},
      {"latency overflow",
       "site s: x\nlatency: 99999999999999999999999 0 0\ntxn T: Lx Ux\n",
       2},
      {"duplicate latency stanza",
       "site s: x\nlatency: 1 2 3\nlatency: 1 2 3\ntxn T: Lx Ux\n", 3},
      {"txn header missing colon", "site s: x\ntxn T Lx Ux\n", 2},
      {"txn with empty name", "site s: x\ntxn : Lx Ux\n", 2},
      {"txn with no steps", "site s: x\ntxn T:\n", 2},
      {"bad step token", "site s: x\ntxn T: Qx\n", 2},
      {"bare L step token", "site s: x\ntxn T: L\n", 2},
      {"unknown directive", "site s: x\nfrobnicate: 1\ntxn T: Lx Ux\n", 2},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    auto parsed = ParseWorkload(c.text);
    ASSERT_FALSE(parsed.ok());
    const std::string want = "line " + std::to_string(c.line);
    EXPECT_NE(parsed.status().message().find(want), std::string::npos)
        << "got: " << parsed.status().ToString();
  }
}

TEST(TextFormatTest, ReplicatedRoundTripPreservesEverything) {
  auto spec = ParseWorkload(kReplicated);
  ASSERT_TRUE(spec.ok());
  std::string text =
      SerializeWorkload(*spec->owned.system, spec->owned.placement.get(),
                        &spec->latency);
  auto again = ParseWorkload(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;

  const Database& db = *spec->owned.db;
  const Database& db2 = *again->owned.db;
  EXPECT_EQ(db2.num_sites(), db.num_sites());
  ASSERT_NE(again->owned.placement, nullptr);
  for (EntityId e = 0; e < db.num_entities(); ++e) {
    EntityId e2 = db2.FindEntity(db.EntityName(e));
    ASSERT_NE(e2, kInvalidEntity);
    const auto& sites = spec->owned.placement->CopiesOf(e);
    const auto& sites2 = again->owned.placement->CopiesOf(e2);
    ASSERT_EQ(sites2.size(), sites.size());
    for (size_t k = 0; k < sites.size(); ++k) {
      EXPECT_EQ(db2.SiteName(sites2[k]), db.SiteName(sites[k]));
    }
  }
  EXPECT_TRUE(again->has_latency);
  EXPECT_EQ(again->latency.base, spec->latency.base);
  EXPECT_EQ(again->latency.jitter, spec->latency.jitter);
  EXPECT_EQ(again->latency.local, spec->latency.local);
}

// Property test: random systems with random placements and latency
// models survive parse -> print -> parse with all structure intact.
TEST(TextFormatTest, RandomReplicatedWorkloadsRoundTrip) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    RandomSystemOptions gopts;
    gopts.num_sites = 3;
    gopts.entities_per_site = 2;
    gopts.num_transactions = 3;
    gopts.entities_per_txn = 3;
    gopts.seed = seed;
    auto sys = GenerateRandomSystem(gopts);
    ASSERT_TRUE(sys.ok());
    Rng rng(seed * 7919);
    ASSERT_TRUE(
        ReplicateRoundRobin(&*sys, 1 + static_cast<int>(rng.NextBelow(3)))
            .ok());
    LatencyModel latency;
    latency.base = 1 + rng.NextBelow(50);
    latency.jitter = rng.NextBelow(20);
    latency.local = 1 + rng.NextBelow(3);

    std::string text = SerializeWorkload(*sys->system, sys->placement.get(),
                                         &latency);
    auto again = ParseWorkload(text);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;

    // Transactions round-trip (total orders exactly).
    ASSERT_EQ(again->owned.system->num_transactions(),
              sys->system->num_transactions());
    EXPECT_TRUE(again->has_latency);
    EXPECT_EQ(again->latency.base, latency.base);
    EXPECT_EQ(again->latency.jitter, latency.jitter);
    EXPECT_EQ(again->latency.local, latency.local);
    const Database& db = *sys->db;
    const Database& db2 = *again->owned.db;
    if (!sys->placement->IsReplicated()) {
      // A single-copy placement serializes to no `copies` lines and
      // round-trips to the equivalent null placement.
      EXPECT_EQ(again->owned.placement, nullptr);
      continue;
    }
    // Placement round-trips by name.
    ASSERT_NE(again->owned.placement, nullptr);
    for (EntityId e = 0; e < db.num_entities(); ++e) {
      EntityId e2 = db2.FindEntity(db.EntityName(e));
      ASSERT_NE(e2, kInvalidEntity);
      const auto& sites = sys->placement->CopiesOf(e);
      const auto& sites2 = again->owned.placement->CopiesOf(e2);
      ASSERT_EQ(sites2.size(), sites.size()) << "seed " << seed;
      for (size_t k = 0; k < sites.size(); ++k) {
        EXPECT_EQ(db2.SiteName(sites2[k]), db.SiteName(sites[k]));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Partial-order round-tripping (the lossy-linearization fix) and the
// `<i>-><j>` arc-token syntax.

// A transaction's Hasse arcs as step-label pairs; node ids may be
// renumbered across a round trip, but each entity is accessed once, so
// labels identify steps.
std::set<std::pair<std::string, std::string>> HasseArcLabels(
    const Transaction& t) {
  std::set<std::pair<std::string, std::string>> arcs;
  Digraph hasse = t.HasseDiagram();
  for (NodeId v = 0; v < hasse.num_nodes(); ++v) {
    for (NodeId w : hasse.OutNeighbors(v)) {
      arcs.emplace(t.StepLabel(v), t.StepLabel(w));
    }
  }
  return arcs;
}

TEST(TextFormatTest, TwoSegmentTxnRoundTripsTheExactPartialOrder) {
  // Regression for the lossy serializer: a two-segment transaction used
  // to come back totally ordered. The round trip must preserve the arc
  // set exactly.
  auto sys = ParseSystem(
      "site s1: x\n"
      "site s2: y\n"
      "txn T: Lx Ux ; Ly Uy\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  std::string text = SerializeSystem(*sys->system);
  auto again = ParseSystem(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  EXPECT_EQ(HasseArcLabels(again->system->txn(0)),
            HasseArcLabels(sys->system->txn(0)))
      << text;
  // The reparse must keep Lx and Ly incomparable — the exact structure
  // the old serializer destroyed.
  const Transaction& t = again->system->txn(0);
  EXPECT_FALSE(t.Comparable(t.LockNode(again->db->FindEntity("x")),
                            t.LockNode(again->db->FindEntity("y"))));
}

TEST(TextFormatTest, ArcTokensBuildTheDiamond) {
  // La/Lb incomparable, both before both unlocks: segments give the two
  // chains, arc tokens (1-based step ordinals) add the cross arcs.
  auto sys = ParseSystem(
      "site s1: a\n"
      "site s2: b\n"
      "txn T: La Ua ; Lb Ub 3->2 1->4\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const Transaction& t = sys->system->txn(0);
  const Database& db = *sys->db;
  NodeId la = t.LockNode(db.FindEntity("a"));
  NodeId lb = t.LockNode(db.FindEntity("b"));
  NodeId ua = t.UnlockNode(db.FindEntity("a"));
  NodeId ub = t.UnlockNode(db.FindEntity("b"));
  EXPECT_FALSE(t.Comparable(la, lb));
  EXPECT_FALSE(t.Comparable(ua, ub));
  EXPECT_TRUE(t.Precedes(la, ub));
  EXPECT_TRUE(t.Precedes(lb, ua));
}

TEST(TextFormatTest, DiamondRoundTripsWithIdenticalArcSet) {
  auto sys = ParseSystem(
      "site s1: a\n"
      "site s2: b\n"
      "txn T: La Ua ; Lb Ub 3->2 1->4\n");
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  std::string text = SerializeSystem(*sys->system);
  auto again = ParseSystem(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  EXPECT_EQ(HasseArcLabels(again->system->txn(0)),
            HasseArcLabels(sys->system->txn(0)))
      << text;
}

TEST(TextFormatTest, RandomPartialOrdersRoundTripExactly) {
  // Random three-segment transactions (one per site) with random forward
  // cross-segment arcs: arcs from a lower to a higher step ordinal in a
  // different segment keep the order acyclic and the per-site chains
  // intact, so every generated text is a valid partial order.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 6151);
    std::string text =
        "site s1: a\nsite s2: b\nsite s3: c\ntxn T: La Ua ; Lb Ub ; Lc Uc";
    const auto segment_of = [](int ordinal) { return (ordinal - 1) / 2; };
    for (int from = 1; from <= 6; ++from) {
      for (int to = from + 1; to <= 6; ++to) {
        if (segment_of(from) == segment_of(to)) continue;
        if (rng.NextBelow(3) == 0) {
          text += " " + std::to_string(from) + "->" + std::to_string(to);
        }
      }
    }
    text += "\n";
    auto sys = ParseSystem(text);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString() << "\n" << text;
    std::string rendered = SerializeSystem(*sys->system);
    auto again = ParseSystem(rendered);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << rendered;
    EXPECT_EQ(HasseArcLabels(again->system->txn(0)),
              HasseArcLabels(sys->system->txn(0)))
        << "seed " << seed << "\nsource:\n"
        << text << "rendered:\n"
        << rendered;
    // The serializer's chain decomposition reads only the order and node
    // ids, so its output is a serialize∘parse fixpoint.
    EXPECT_EQ(SerializeSystem(*again->system), rendered) << "seed " << seed;
  }
}

TEST(TextFormatTest, PreFixLinearizationPinned) {
  // Pins what the lossy serializer used to do — and why it mattered.
  // T1 is the 2PL diamond (locks a and b in either order, unlocks only
  // after both); T2 locks a then b. The true system deadlocks (T1 grabs
  // b first, T2 grabs a), so the exact checker refutes it.
  const char* kTrue =
      "site s1: a\n"
      "site s2: b\n"
      "txn T1: La Ua ; Lb Ub 3->2 1->4\n"
      "txn T2: La Lb Ua Ub\n";
  auto sys = ParseSystem(kTrue);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto verdict = CheckSafeAndDeadlockFree(*sys->system);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict->holds);

  // The old serializer flattened T1 into one of its linear extensions.
  // Under the reading "La Lb Ua Ub", both transactions acquire a before
  // b and are 2PL — the flattened system is CERTIFIED. A round trip
  // through the old format silently turned a refuted system into a
  // certified one; that is the bug the arc tokens fix.
  const char* kLossy =
      "site s1: a\n"
      "site s2: b\n"
      "txn T1: La Lb Ua Ub\n"
      "txn T2: La Lb Ua Ub\n";
  auto lossy = ParseSystem(kLossy);
  ASSERT_TRUE(lossy.ok()) << lossy.status().ToString();
  auto lossy_verdict = CheckSafeAndDeadlockFree(*lossy->system);
  ASSERT_TRUE(lossy_verdict.ok()) << lossy_verdict.status().ToString();
  EXPECT_TRUE(lossy_verdict->holds);

  // And the old rendering really was lossy: joining SomeLinearExtension
  // labels (the pre-fix serializer) yields a totally ordered reparse,
  // while the true T1 keeps its incomparable pairs.
  const Transaction& t1 = sys->system->txn(0);
  std::string flat = "site s1: a\nsite s2: b\ntxn T1:";
  for (NodeId v : t1.SomeLinearExtension()) flat += " " + t1.StepLabel(v);
  flat += "\n";
  auto flat_sys = ParseSystem(flat);
  ASSERT_TRUE(flat_sys.ok()) << flat_sys.status().ToString();
  const Transaction& flat_t1 = flat_sys->system->txn(0);
  int incomparable_true = 0;
  int incomparable_flat = 0;
  for (NodeId u = 0; u < t1.num_steps(); ++u) {
    for (NodeId v = u + 1; v < t1.num_steps(); ++v) {
      incomparable_true += t1.Comparable(u, v) ? 0 : 1;
      incomparable_flat += flat_t1.Comparable(u, v) ? 0 : 1;
    }
  }
  EXPECT_GT(incomparable_true, 0);
  EXPECT_EQ(incomparable_flat, 0);
}

TEST(TextFormatTest, ArcTokenNegativeCases) {
  struct Case {
    const char* label;
    const char* text;
    const char* want;
  };
  const Case kCases[] = {
      {"malformed arc token", "site s: x\ntxn T: Lx Ux 1-2\n",
       "bad arc token"},
      {"arc missing target", "site s: x\ntxn T: Lx Ux 1->\n",
       "bad arc token"},
      {"arc with garbage target", "site s: x\ntxn T: Lx Ux 1->y\n",
       "bad arc token"},
      {"arc out of range", "site s: x\ntxn T: Lx Ux 1->3\n",
       "out of range"},
      {"arc from ordinal zero", "site s: x\ntxn T: Lx Ux 0->1\n",
       "out of range"},
      {"arc self-loop", "site s: x\ntxn T: Lx Ux 2->2\n", "self-loop"},
      {"arc creating a cycle", "site s: x\ntxn T: Lx Ux 2->1\n",
       "transaction 'T'"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.label);
    auto parsed = ParseSystem(c.text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << "got: " << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find(c.want), std::string::npos)
        << "got: " << parsed.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Duplicate transaction names.

TEST(TextFormatTest, DuplicateTxnNamesRejectedNamingBothLines) {
  auto bad = ParseSystem(
      "site s: x y\n"
      "txn T: Lx Ux\n"
      "txn U: Ly Uy\n"
      "txn T: Ly Uy\n");
  ASSERT_FALSE(bad.ok());
  // The diagnostic names the duplicate's line AND the first definition.
  EXPECT_NE(bad.status().message().find("line 4"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("duplicate transaction 'T'"),
            std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().ToString();
}

// ---------------------------------------------------------------------
// SimTime parsing at the 64-bit boundary.

TEST(TextFormatTest, LatencyParsesUpToExactly64Bits) {
  // 2^64 - 1 is representable...
  auto ok = ParseWorkload(
      "site s: x\nlatency: 18446744073709551615 0 1\ntxn T: Lx Ux\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->latency.base, 18446744073709551615ull);
  // ...2^64 is not. The old check accepted it and wrapped to 0: with
  // value == max/10 before the final digit, `value > max/10` was false
  // even though appending the digit overflows.
  auto over = ParseWorkload(
      "site s: x\nlatency: 18446744073709551616 0 1\ntxn T: Lx Ux\n");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("line 2"), std::string::npos)
      << over.status().ToString();
}

}  // namespace
}  // namespace wydb
