// The small-level cutoff (DESIGN.md §7.3): ranges and commit batches
// below a fixed size run on the calling thread, larger ones on the
// worker pool. Which side of the cutoff a level falls on must change no
// id, witness or count, at any thread count, in either level-synchronous
// engine, in the plain, delta and spilling stores. The systems here have
// BFS levels on both sides of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/state_store.h"
#include "gen/system_gen.h"
#include "io/text_format.h"

namespace wydb {
namespace {

// ---------------------------------------------------------------------
// The two rules, each in its one place.

TEST(LevelCutoffTest, ParallelForRunsSmallRangesOnTheCaller) {
  ThreadPool pool(4);
  const size_t small = ThreadPool::kInlineBelow - 1;
  std::vector<int> worker_of(4096, -1);
  auto record = [&](size_t begin, size_t end, int worker) {
    for (size_t i = begin; i < end; ++i) worker_of[i] = worker;
  };
  pool.ParallelFor(small, 1, record);
  EXPECT_EQ(pool.dispatches(), 0u);
  for (size_t i = 0; i < small; ++i) EXPECT_EQ(worker_of[i], 0) << i;

  pool.ParallelFor(ThreadPool::kInlineBelow, 1, record);
  EXPECT_EQ(pool.dispatches(), 1u);
  // A caller with heavy items sets its own threshold.
  pool.ParallelFor(16, 1, record, /*inline_below=*/0);
  EXPECT_EQ(pool.dispatches(), 2u);
  // One thread never dispatches.
  ThreadPool serial(1);
  serial.ParallelFor(4096, 1, record);
  EXPECT_EQ(serial.dispatches(), 0u);
}

// Stages `n` keys (about a third duplicates) as one chunked batch into
// `store` and commits it on `pool`.
size_t StageAndCommit(ShardedStateStore* store, ThreadPool* pool, size_t n,
                      uint64_t seed) {
  Rng rng(seed);
  ShardedStateStore::KeyDecodeCache decode;
  std::vector<ShardedStateStore::Staging> chunks;
  uint64_t key[2];
  uint64_t aux = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 64 == 0) {
      chunks.emplace_back();
      store->ResetStaging(&chunks.back());
    }
    const uint64_t v = rng.NextBelow(2 * n / 3 + 1) + 1;
    key[0] = v * 0x9E3779B97F4A7C15ULL;
    key[1] = v;
    aux = v ^ 5;
    const uint32_t parent =
        static_cast<uint32_t>(rng.NextBelow(store->size()));
    store->Stage(&chunks.back(), key, &aux, parent,
                 GlobalNode{static_cast<int>(i), 0},
                 store->KeyView(parent, &decode));
  }
  return store->CommitStaged(&chunks, chunks.size(), pool);
}

TEST(LevelCutoffTest, StoreCommitIdsMatchOnBothSidesOfTheCutoff) {
  for (auto encoding : {StoreOptions::KeyEncoding::kPlain,
                        StoreOptions::KeyEncoding::kDelta}) {
    SCOPED_TRACE(encoding == StoreOptions::KeyEncoding::kPlain ? "plain"
                                                               : "delta");
    StoreOptions options;
    options.encoding = encoding;
    ThreadPool pool(4);
    ShardedStateStore pooled(2, 1, 16, options);
    ShardedStateStore serial(2, 1, 16, options);
    const uint64_t root[2] = {0, 0};
    pooled.InternRoot(root);
    serial.InternRoot(root);
    uint64_t seed = 7;
    // Batches on both sides of kInlineCommitTuples (1,024).
    for (size_t n : {1000u, 3000u, 40u, 5000u}) {
      const uint64_t before = pool.dispatches();
      const size_t fresh = StageAndCommit(&pooled, &pool, n, seed);
      EXPECT_EQ(pool.dispatches() != before,
                n >= ShardedStateStore::kInlineCommitTuples)
          << n;
      EXPECT_EQ(StageAndCommit(&serial, nullptr, n, seed), fresh) << n;
      ++seed;
    }
    ASSERT_EQ(pooled.size(), serial.size());
    ShardedStateStore::KeyDecodeCache ca, cb;
    for (uint32_t id = 0; id < pooled.size(); ++id) {
      ASSERT_EQ(std::memcmp(pooled.KeyView(id, &ca), serial.KeyView(id, &cb),
                            2 * sizeof(uint64_t)),
                0)
          << id;
      ASSERT_EQ(pooled.AuxOf(id)[0], serial.AuxOf(id)[0]) << id;
      ASSERT_EQ(pooled.ParentOf(id), serial.ParentOf(id)) << id;
      ASSERT_EQ(pooled.MoveOf(id), serial.MoveOf(id)) << id;
    }
  }
}

// ---------------------------------------------------------------------
// Whole checks across the cutoff.

// Three 4-entity grid transactions plus a two-transaction deadlock: the
// stuck state needs every grid step done, so the witness sits deep in
// the search, after levels of up to a few hundred states.
constexpr char kGridWithDeadlock[] =
    "site s0: a0 a1 a2 a3\n"
    "site s1: b0 b1 b2 b3\n"
    "site s2: c0 c1 c2 c3\n"
    "site s3: x y\n"
    "txn G1: La0 Ua0 La1 Ua1 La2 Ua2 La3 Ua3\n"
    "txn G2: Lb0 Ub0 Lb1 Ub1 Lb2 Ub2 Lb3 Ub3\n"
    "txn G3: Lc0 Uc0 Lc1 Uc1 Lc2 Uc2 Lc3 Uc3\n"
    "txn D1: Lx Ly Ux Uy\n"
    "txn D2: Ly Lx Uy Ux\n";

// A chain of overlapping two-entity transactions plus the same deadlock:
// few moves commute and no two transactions are alike, so the reduced
// engine still meets levels above the cutoff.
constexpr char kChainWithDeadlock[] =
    "site s0: a b c d e f\n"
    "site s1: x y\n"
    "txn T1: La Lb Ua Ub\n"
    "txn T2: Lb Lc Ub Uc\n"
    "txn T3: Lc Ld Uc Ud\n"
    "txn T4: Ld Le Ud Ue\n"
    "txn T5: Le Lf Ue Uf\n"
    "txn D1: Lx Ly Ux Uy\n"
    "txn D2: Ly Lx Uy Ux\n";

struct Outcome {
  bool holds = false;
  Schedule witness;
  std::vector<int> cycle;
  uint64_t visited = 0;
  uint64_t interned = 0;
  uint64_t parallel_levels = 0;
  uint64_t spilled_levels = 0;  ///< Not thread-invariant: bytes are.

  bool SameResult(const Outcome& o) const {
    return holds == o.holds && witness == o.witness && cycle == o.cycle &&
           visited == o.visited && interned == o.interned;
  }
};

enum class Check { kDeadlock, kSafety, kSafeAndDeadlockFree };

Outcome RunCheck(const TransactionSystem& sys, Check check, SearchEngine engine,
            const StoreOptions& store, int threads) {
  Outcome out;
  if (check == Check::kDeadlock) {
    DeadlockCheckOptions o;
    o.engine = engine;
    o.search_threads = threads;
    o.store = store;
    auto r = CheckDeadlockFreedom(sys, o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
    out.holds = r->deadlock_free;
    if (r->witness) out.witness = r->witness->schedule;
    out.visited = r->states_visited;
    out.interned = r->states_interned;
    out.parallel_levels = r->parallel_levels;
    out.spilled_levels = r->spilled_levels;
    return out;
  }
  SafetyCheckOptions o;
  o.engine = engine;
  o.search_threads = threads;
  o.store = store;
  auto r = check == Check::kSafety ? CheckSafety(sys, o)
                                   : CheckSafeAndDeadlockFree(sys, o);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  out.holds = r->holds;
  if (r->violation) {
    out.witness = r->violation->schedule;
    out.cycle = r->violation->txn_cycle;
  }
  out.visited = r->states_visited;
  out.interned = r->states_interned;
  out.parallel_levels = r->parallel_levels;
  out.spilled_levels = r->spilled_levels;
  return out;
}

struct StoreCase {
  const char* name;
  StoreOptions options;
};

std::vector<StoreCase> StoreCases() {
  StoreOptions plain;
  StoreOptions delta;
  delta.encoding = StoreOptions::KeyEncoding::kDelta;
  StoreOptions spill;
  spill.mem_budget_mb = 1;  // Well below these stores: levels spill.
  return {{"plain", plain}, {"delta", delta}, {"spill", spill}};
}

// Runs `check` at 1, 2 and 4 threads in every store and requires one
// result throughout. Returns parallel_levels of every run at more than
// one thread, after checking that one thread never used the pool.
std::vector<uint64_t> ExpectThreadInvariant(const TransactionSystem& sys,
                                            Check check,
                                            SearchEngine engine) {
  std::vector<uint64_t> parallel;
  for (const StoreCase& sc : StoreCases()) {
    SCOPED_TRACE(sc.name);
    const Outcome base = RunCheck(sys, check, engine, sc.options, 1);
    EXPECT_EQ(base.parallel_levels, 0u);
    if (sc.options.mem_budget_mb > 0 && base.visited > 4096) {
      EXPECT_GT(base.spilled_levels, 0u) << "spill store never spilled";
    }
    for (int threads : {2, 4}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads);
      const Outcome o = RunCheck(sys, check, engine, sc.options, threads);
      EXPECT_TRUE(o.SameResult(base))
          << "visited " << o.visited << " vs " << base.visited
          << ", interned " << o.interned << " vs " << base.interned
          << ", witness length " << o.witness.size() << " vs "
          << base.witness.size();
      parallel.push_back(o.parallel_levels);
    }
  }
  return parallel;
}

// True when some run handed a level to the pool.
bool PoolRan(const std::vector<uint64_t>& parallel) {
  return std::any_of(parallel.begin(), parallel.end(),
                     [](uint64_t levels) { return levels > 0; });
}

OwnedSystem Parse(const char* text) {
  auto parsed = ParseWorkload(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed->owned);
}

// The BFS levels of the k-transaction, m-entity disjoint grid that reach
// the pool: a level is the set of step-count vectors with one sum, and
// it stages one child per unfinished transaction of each state.
uint64_t GridParallelLevels(int k, int m) {
  const int steps = 2 * m;
  std::vector<uint64_t> states(k * steps + 1, 0), staged(k * steps + 1, 0);
  std::vector<int> done(k, 0);
  while (true) {
    int level = 0, unfinished = 0;
    for (int d : done) {
      level += d;
      unfinished += d < steps;
    }
    ++states[level];
    staged[level] += unfinished;
    int t = 0;
    while (t < k && done[t] == steps) done[t++] = 0;
    if (t == k) break;
    ++done[t];
  }
  uint64_t parallel = 0;
  for (size_t level = 0; level < states.size(); ++level) {
    parallel += states[level] >= ThreadPool::kInlineBelow ||
                staged[level] >= ShardedStateStore::kInlineCommitTuples;
  }
  return parallel;
}

TEST(LevelCutoffTest, DisjointGridIsThreadInvariantAcrossTheCutoff) {
  // k=4, m=4: 9^4 = 6,561 states over 33 levels of 1 to 489 states.
  auto grid = GenerateDisjointGridSystem(4, 4);
  ASSERT_TRUE(grid.ok());
  const TransactionSystem& sys = *grid->system;
  const uint64_t expected = GridParallelLevels(4, 4);
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, 4u * 8 + 1);  // Both sides of the cutoff.
  for (Check check : {Check::kDeadlock, Check::kSafety}) {
    SCOPED_TRACE(check == Check::kDeadlock ? "deadlock" : "safety");
    for (uint64_t parallel :
         ExpectThreadInvariant(sys, check, SearchEngine::kParallelSharded)) {
      EXPECT_EQ(parallel, expected);
    }
  }
}

TEST(LevelCutoffTest, DeepWitnessIsThreadInvariantAcrossTheCutoff) {
  const OwnedSystem owned = Parse(kGridWithDeadlock);
  const TransactionSystem& sys = *owned.system;
  for (Check check :
       {Check::kDeadlock, Check::kSafety, Check::kSafeAndDeadlockFree}) {
    SCOPED_TRACE(static_cast<int>(check));
    const std::vector<uint64_t> parallel =
        ExpectThreadInvariant(sys, check, SearchEngine::kParallelSharded);
    if (check != Check::kSafeAndDeadlockFree) {  // Its violation is shallow.
      EXPECT_TRUE(PoolRan(parallel)) << "no level reached the pool";
    }
  }
  const Outcome df = RunCheck(sys, Check::kDeadlock,
                         SearchEngine::kParallelSharded, StoreOptions{}, 4);
  EXPECT_FALSE(df.holds);
  EXPECT_EQ(df.witness.size(), 3u * 8 + 2);  // Every grid step, Lx, Ly.
}

TEST(LevelCutoffTest, ReducedEngineIsThreadInvariantAcrossTheCutoff) {
  const OwnedSystem owned = Parse(kChainWithDeadlock);
  const TransactionSystem& sys = *owned.system;
  for (Check check :
       {Check::kDeadlock, Check::kSafety, Check::kSafeAndDeadlockFree}) {
    SCOPED_TRACE(static_cast<int>(check));
    const std::vector<uint64_t> parallel =
        ExpectThreadInvariant(sys, check, SearchEngine::kReduced);
    if (check != Check::kSafeAndDeadlockFree) {
      EXPECT_TRUE(PoolRan(parallel)) << "no level reached the pool";
    }
  }
}

// One pool serves several checks in turn, as wydb_analyze runs them; the
// results match checks that build their own pool.
TEST(LevelCutoffTest, SharedPoolMatchesCheckOwnedPools) {
  const OwnedSystem owned = Parse(kGridWithDeadlock);
  const TransactionSystem& sys = *owned.system;
  ThreadPool pool(4);
  DeadlockCheckOptions d;
  d.engine = SearchEngine::kParallelSharded;
  d.search_threads = 4;
  SafetyCheckOptions s;
  s.engine = SearchEngine::kParallelSharded;
  s.search_threads = 4;
  auto df_own = CheckDeadlockFreedom(sys, d);
  auto safe_own = CheckSafety(sys, s);
  d.pool = &pool;
  s.pool = &pool;
  auto df_shared = CheckDeadlockFreedom(sys, d);
  auto safe_shared = CheckSafety(sys, s);
  ASSERT_TRUE(df_own.ok() && safe_own.ok() && df_shared.ok() &&
              safe_shared.ok());
  EXPECT_EQ(df_shared->deadlock_free, df_own->deadlock_free);
  EXPECT_EQ(df_shared->witness->schedule, df_own->witness->schedule);
  EXPECT_EQ(df_shared->states_visited, df_own->states_visited);
  EXPECT_EQ(df_shared->states_interned, df_own->states_interned);
  EXPECT_EQ(df_shared->parallel_levels, df_own->parallel_levels);
  EXPECT_EQ(safe_shared->holds, safe_own->holds);
  EXPECT_EQ(safe_shared->states_visited, safe_own->states_visited);
  EXPECT_EQ(safe_shared->parallel_levels, safe_own->parallel_levels);
  EXPECT_GE(pool.dispatches(),
            df_shared->parallel_levels + safe_shared->parallel_levels);
}

}  // namespace
}  // namespace wydb
