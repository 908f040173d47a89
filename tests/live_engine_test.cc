// Tests for the wall-clock runtime: StripedLockManager invariants under
// real thread contention (run these under TSan — the CI thread-sanitize
// job does) and LiveEngine session behaviour, including single-thread /
// MPL-1 determinism and the watchdog's deadlock classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gen/system_gen.h"
#include "runtime/live_engine.h"
#include "runtime/scheduler.h"
#include "runtime/striped_lock_manager.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

using testutil::MakeDb;
using testutil::MakeSeq;
using testutil::MakeSystem;
using AcquireStatus = StripedLockManager::AcquireStatus;

StripedLockManager::Options ManagerOptions(ConflictPolicy policy) {
  StripedLockManager::Options o;
  o.policy = policy;
  o.detect_interval_us = 500;
  return o;
}

// ---------------------------------------------------------------------------
// StripedLockManager stress: N threads over overlapping entity sets,
// every policy. The mutual-exclusion oracle is a side array of atomic
// owners checked at grant and release time: a double grant trips it
// immediately. Ascending acquisition order keeps kBlock deadlock-free,
// so termination doubles as the no-lost-wakeup check.
// ---------------------------------------------------------------------------

struct StressOutcome {
  uint64_t granted_rounds = 0;
  uint64_t aborts = 0;
};

StressOutcome RunStress(ConflictPolicy policy, int threads, int entities,
                        int locks_per_round, int rounds) {
  StripedLockManager mgr(entities, threads, ManagerOptions(policy));
  std::vector<std::atomic<int>> owner(entities);
  for (auto& o : owner) o.store(-1);
  std::atomic<uint64_t> granted_rounds{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<bool> double_grant{false};

  auto worker = [&](int txn) {
    mgr.SetTimestamp(txn, static_cast<uint64_t>(txn));
    Rng rng(0xC0FFEEull + static_cast<uint64_t>(txn));
    for (int r = 0; r < rounds; ++r) {
      // Distinct entities, ascending: an ordered-acquisition round can
      // block but never join a circular wait.
      std::vector<EntityId> want;
      while (static_cast<int>(want.size()) < locks_per_round) {
        EntityId e = static_cast<EntityId>(
            rng.NextBelow(static_cast<uint64_t>(entities)));
        if (std::find(want.begin(), want.end(), e) == want.end())
          want.push_back(e);
      }
      std::sort(want.begin(), want.end());

      for (;;) {
        mgr.BeginAttempt(txn);
        std::vector<EntityId> held;
        bool aborted = false;
        for (EntityId e : want) {
          AcquireStatus st = mgr.Acquire(txn, e);
          if (st == AcquireStatus::kAborted) {
            aborted = true;
            break;
          }
          ASSERT_EQ(st, AcquireStatus::kGranted);
          int expected = -1;
          if (!owner[e].compare_exchange_strong(expected, txn))
            double_grant.store(true);
          held.push_back(e);
        }
        for (EntityId e : held) {
          if (owner[e].load() != txn) double_grant.store(true);
          owner[e].store(-1);
          mgr.Release(txn, e);
        }
        if (!aborted) {
          granted_rounds.fetch_add(1);
          break;
        }
        aborts.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  EXPECT_FALSE(double_grant.load()) << ConflictPolicyName(policy);
  // Waiter-pool accounting: every queue drained, every entity free.
  EXPECT_EQ(mgr.TotalWaiters(), 0u);
  for (int e = 0; e < entities; ++e) EXPECT_EQ(mgr.HolderOf(e), -1);
  EXPECT_TRUE(mgr.WaitForEdges().empty());
  return StressOutcome{granted_rounds.load(), aborts.load()};
}

TEST(StripedLockManagerStress, BlockPolicy) {
  StressOutcome out = RunStress(ConflictPolicy::kBlock, 8, 12, 3, 150);
  EXPECT_EQ(out.granted_rounds, 8u * 150u);
  EXPECT_EQ(out.aborts, 0u);  // kBlock never aborts anyone.
}

TEST(StripedLockManagerStress, WoundWaitPolicy) {
  StressOutcome out = RunStress(ConflictPolicy::kWoundWait, 8, 12, 3, 150);
  EXPECT_EQ(out.granted_rounds, 8u * 150u);
}

TEST(StripedLockManagerStress, WaitDiePolicy) {
  StressOutcome out = RunStress(ConflictPolicy::kWaitDie, 8, 12, 3, 150);
  EXPECT_EQ(out.granted_rounds, 8u * 150u);
}

TEST(StripedLockManagerStress, DetectPolicy) {
  StressOutcome out = RunStress(ConflictPolicy::kDetect, 8, 12, 3, 150);
  EXPECT_EQ(out.granted_rounds, 8u * 150u);
}

TEST(StripedLockManagerStress, SingleEntityConvoy) {
  // Max contention on one entity: FIFO handoff must pass the lock
  // through every round of every thread — completion is the proof that
  // no wakeup is ever lost, the count that none is duplicated.
  StressOutcome out = RunStress(ConflictPolicy::kBlock, 8, 1, 1, 400);
  EXPECT_EQ(out.granted_rounds, 8u * 400u);
}

// ---------------------------------------------------------------------------
// Targeted protocol tests.
// ---------------------------------------------------------------------------

TEST(StripedLockManager, GrantAndReleaseSingleThread) {
  StripedLockManager mgr(4, 2, ManagerOptions(ConflictPolicy::kBlock));
  EXPECT_EQ(mgr.Acquire(0, 2), AcquireStatus::kGranted);
  EXPECT_EQ(mgr.HolderOf(2), 0);
  mgr.Release(0, 2);
  EXPECT_EQ(mgr.HolderOf(2), -1);
  mgr.Release(0, 2);  // Stale release: tolerated.
  EXPECT_EQ(mgr.lock_ops(), 2u);
}

TEST(StripedLockManager, RequestAbortWakesParkedWaiter) {
  StripedLockManager mgr(2, 2, ManagerOptions(ConflictPolicy::kBlock));
  ASSERT_EQ(mgr.Acquire(0, 0), AcquireStatus::kGranted);
  std::atomic<int> status{-1};
  std::thread waiter([&] {
    mgr.BeginAttempt(1);
    status.store(static_cast<int>(mgr.Acquire(1, 0)));
  });
  while (mgr.TotalWaiters() == 0) std::this_thread::yield();
  mgr.RequestAbort(1);
  waiter.join();
  EXPECT_EQ(status.load(), static_cast<int>(AcquireStatus::kAborted));
  EXPECT_EQ(mgr.TotalWaiters(), 0u);
  EXPECT_EQ(mgr.HolderOf(0), 0);  // The holder is untouched.
}

TEST(StripedLockManager, RequestStopWakesParkedWaiter) {
  StripedLockManager mgr(2, 2, ManagerOptions(ConflictPolicy::kBlock));
  ASSERT_EQ(mgr.Acquire(0, 1), AcquireStatus::kGranted);
  std::atomic<int> status{-1};
  std::thread waiter(
      [&] { status.store(static_cast<int>(mgr.Acquire(1, 1))); });
  while (mgr.TotalWaiters() == 0) std::this_thread::yield();
  mgr.RequestStop();
  waiter.join();
  EXPECT_EQ(status.load(), static_cast<int>(AcquireStatus::kStopped));
  EXPECT_EQ(mgr.Acquire(0, 0), AcquireStatus::kStopped);  // Post-stop.
}

TEST(StripedLockManager, WaitDieYoungerRequesterDiesImmediately) {
  StripedLockManager mgr(2, 2, ManagerOptions(ConflictPolicy::kWaitDie));
  mgr.SetTimestamp(0, 0);  // Older.
  mgr.SetTimestamp(1, 1);  // Younger.
  ASSERT_EQ(mgr.Acquire(0, 0), AcquireStatus::kGranted);
  EXPECT_EQ(mgr.Acquire(1, 0), AcquireStatus::kAborted);
  EXPECT_EQ(mgr.TotalWaiters(), 0u);
  EXPECT_EQ(mgr.policy_aborts(), 1u);
}

TEST(StripedLockManager, WoundWaitOlderRequesterWoundsHolder) {
  StripedLockManager mgr(2, 2, ManagerOptions(ConflictPolicy::kWoundWait));
  mgr.SetTimestamp(0, 0);  // Older.
  mgr.SetTimestamp(1, 1);  // Younger.
  mgr.BeginAttempt(1);
  ASSERT_EQ(mgr.Acquire(1, 0), AcquireStatus::kGranted);
  std::atomic<int> status{-1};
  std::thread older([&] {
    mgr.BeginAttempt(0);
    status.store(static_cast<int>(mgr.Acquire(0, 0)));
  });
  // The wound lands on the younger holder: its next Acquire aborts, and
  // once it releases, the parked older transaction gets the grant.
  while (mgr.policy_aborts() == 0) std::this_thread::yield();
  EXPECT_EQ(mgr.Acquire(1, 1), AcquireStatus::kAborted);
  mgr.Release(1, 0);
  older.join();
  EXPECT_EQ(status.load(), static_cast<int>(AcquireStatus::kGranted));
  EXPECT_EQ(mgr.HolderOf(0), 0);
}

// The wounded holder is parked on ANOTHER entity: the wound must wake it
// there, or the older requester would wait on a sleeping victim forever.
TEST(StripedLockManager, WoundWaitWakesHolderParkedOnAnotherEntity) {
  StripedLockManager mgr(2, 3, ManagerOptions(ConflictPolicy::kWoundWait));
  mgr.SetTimestamp(0, 0);  // Oldest.
  mgr.SetTimestamp(1, 2);  // Youngest.
  mgr.SetTimestamp(2, 1);
  for (int t = 0; t < 3; ++t) mgr.BeginAttempt(t);
  ASSERT_EQ(mgr.Acquire(1, 0), AcquireStatus::kGranted);
  ASSERT_EQ(mgr.Acquire(2, 1), AcquireStatus::kGranted);
  // T1 is younger than T2, so it parks on entity 1.
  std::atomic<int> young{-1};
  std::thread younger([&] {
    young.store(static_cast<int>(mgr.Acquire(1, 1)));
    if (young.load() == static_cast<int>(AcquireStatus::kAborted)) {
      mgr.Release(1, 0);
    }
  });
  while (mgr.TotalWaiters() == 0) std::this_thread::yield();
  // T0 wounds T1, the holder of entity 0, and parks behind it.
  std::atomic<int> old{-1};
  std::thread older([&] { old.store(static_cast<int>(mgr.Acquire(0, 0))); });
  younger.join();
  older.join();
  EXPECT_EQ(young.load(), static_cast<int>(AcquireStatus::kAborted));
  EXPECT_EQ(old.load(), static_cast<int>(AcquireStatus::kGranted));
  EXPECT_EQ(mgr.HolderOf(0), 0);
  EXPECT_EQ(mgr.HolderOf(1), 2);  // The middle holder is untouched.
  EXPECT_EQ(mgr.TotalWaiters(), 0u);
  EXPECT_EQ(mgr.policy_aborts(), 1u);
}

TEST(StripedLockManager, DetectBreaksTwoCycleDeadlock) {
  StripedLockManager mgr(2, 2, ManagerOptions(ConflictPolicy::kDetect));
  mgr.SetTimestamp(0, 0);
  mgr.SetTimestamp(1, 1);
  // Rendezvous after the first grants so the circular wait is certain.
  std::atomic<int> armed{0};
  auto arm = [&] {
    armed.fetch_add(1);
    while (armed.load() < 2) std::this_thread::yield();
  };
  std::atomic<int> outcome0{-1}, outcome1{-1};
  std::thread t0([&] {
    mgr.BeginAttempt(0);
    ASSERT_EQ(mgr.Acquire(0, 0), AcquireStatus::kGranted);
    arm();
    outcome0.store(static_cast<int>(mgr.Acquire(0, 1)));
    mgr.Release(0, 1);
    mgr.Release(0, 0);
  });
  std::thread t1([&] {
    mgr.BeginAttempt(1);
    ASSERT_EQ(mgr.Acquire(1, 1), AcquireStatus::kGranted);
    arm();
    outcome1.store(static_cast<int>(mgr.Acquire(1, 0)));
    // Whatever the verdict, unwind so the survivor can finish.
    mgr.Release(1, 0);
    mgr.Release(1, 1);
  });
  t0.join();
  t1.join();
  EXPECT_GE(mgr.detector_runs(), 1u);
  // The youngest on the cycle (txn 1) is the victim; txn 0 survives.
  EXPECT_EQ(outcome0.load(), static_cast<int>(AcquireStatus::kGranted));
  EXPECT_EQ(outcome1.load(), static_cast<int>(AcquireStatus::kAborted));
  EXPECT_EQ(mgr.TotalWaiters(), 0u);
}

// ---------------------------------------------------------------------------
// LiveEngine sessions.
// ---------------------------------------------------------------------------

LiveOptions BaseOptions() {
  LiveOptions o;
  o.rounds = 10;
  o.threads = 4;
  o.watchdog_interval_ms = 100;
  return o;
}

TEST(LiveEngine, RejectsUnboundedSession) {
  auto owned = GenerateSafeSystem({});
  ASSERT_TRUE(owned.ok());
  LiveOptions o;  // Neither rounds nor duration.
  EXPECT_FALSE(RunLive(*owned->system, o).ok());
}

TEST(LiveEngine, SingleThreadIsExactlyDeterministic) {
  auto owned = GenerateSafeSystem({});
  ASSERT_TRUE(owned.ok());
  LiveOptions o = BaseOptions();
  o.threads = 1;
  for (int rep = 0; rep < 2; ++rep) {
    auto r = RunLive(*owned->system, o);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
    EXPECT_FALSE(r->deadlocked);
    EXPECT_EQ(r->commits, static_cast<uint64_t>(
                              owned->system->num_transactions() * o.rounds));
    EXPECT_EQ(r->aborts, 0u);
  }
}

TEST(LiveEngine, MplOneIsExactlyDeterministic) {
  // MPL 1 admits one transaction at a time: no lock conflict can ever
  // form, so counts are exact on any thread count — the property the CI
  // determinism step diffs two CLI runs over.
  auto owned = GenerateSharedChainSystem(6);
  ASSERT_TRUE(owned.ok());
  LiveOptions o = BaseOptions();
  o.mpl = 1;
  for (int rep = 0; rep < 2; ++rep) {
    auto r = RunLive(*owned->system, o);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
    EXPECT_EQ(r->commits, static_cast<uint64_t>(
                              owned->system->num_transactions() * o.rounds));
    EXPECT_EQ(r->aborts, 0u);
    EXPECT_EQ(r->latency.samples, r->commits);
  }
}

TEST(LiveEngine, CertifiedSystemNeverDeadlocksUnderPureBlocking) {
  auto owned = GenerateSharedChainSystem(8);
  ASSERT_TRUE(owned.ok());
  LiveOptions o = BaseOptions();
  o.rounds = 25;
  o.threads = 8;
  o.policy = ConflictPolicy::kBlock;
  auto r = RunLive(*owned->system, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->completed);
  EXPECT_FALSE(r->deadlocked);
  EXPECT_EQ(r->aborts, 0u);  // Blocking never aborts.
  EXPECT_EQ(r->commits,
            static_cast<uint64_t>(owned->system->num_transactions() * 25));
  EXPECT_GT(r->lock_ops, 0u);
  EXPECT_EQ(r->detector_runs, 0u);  // Fast path: no scans, ever.
}

TEST(LiveEngine, UncertifiedRingDeadlocksAndWatchdogClassifiesIt) {
  // Ring of 3: txn i locks e_i then e_{i+1 mod 3}. With a dwell while
  // holding, three live threads reach the circular wait almost at once;
  // pure blocking with no detection then freezes the session, and the
  // watchdog must classify it instead of hanging the test.
  auto owned = GenerateRingSystem(3);
  ASSERT_TRUE(owned.ok());
  LiveOptions o;
  o.policy = ConflictPolicy::kBlock;
  o.threads = 3;
  o.rounds = 100000;  // The deadlock ends the session, not the bound.
  o.hold_us = 3000;
  o.watchdog_interval_ms = 40;
  auto r = RunLive(*owned->system, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->deadlocked);
  EXPECT_FALSE(r->completed);
  EXPECT_FALSE(r->blocked_txns.empty());
  for (int t : r->blocked_txns) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 3);
  }
}

TEST(LiveEngine, DetectionPoliciesResolveTheSameRing) {
  auto owned = GenerateRingSystem(3);
  ASSERT_TRUE(owned.ok());
  for (ConflictPolicy policy :
       {ConflictPolicy::kWoundWait, ConflictPolicy::kWaitDie,
        ConflictPolicy::kDetect}) {
    LiveOptions o;
    o.policy = policy;
    o.threads = 3;
    o.rounds = 30;
    o.hold_us = 500;
    o.backoff_us = 100;
    o.watchdog_interval_ms = 500;
    auto r = RunLive(*owned->system, o);
    ASSERT_TRUE(r.ok()) << ConflictPolicyName(policy);
    EXPECT_TRUE(r->completed) << ConflictPolicyName(policy);
    EXPECT_FALSE(r->deadlocked) << ConflictPolicyName(policy);
    EXPECT_EQ(r->commits, 3u * 30u) << ConflictPolicyName(policy);
  }
}

TEST(LiveEngine, MaxRestartsTurnsContentionIntoGiveUp) {
  auto db = MakeDb({{"s1", {"x"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ux"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ux"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  LiveOptions o;
  o.policy = ConflictPolicy::kWaitDie;
  o.threads = 2;
  o.rounds = 300;
  o.hold_us = 1000;
  o.backoff_us = 50;
  o.max_restarts = 0;  // First abort of any round ends the session.
  auto r = RunLive(sys, o);
  ASSERT_TRUE(r.ok());
  // Two threads dwelling 1ms on one entity for 300 rounds must collide;
  // the first wait-die abort then exceeds max_restarts immediately.
  EXPECT_TRUE(r->gave_up);
  EXPECT_FALSE(r->completed);
  EXPECT_GE(r->aborts, 1u);
}

TEST(LiveEngine, DurationBoundedSessionStopsOnTime) {
  auto owned = GenerateSafeSystem({});
  ASSERT_TRUE(owned.ok());
  LiveOptions o;
  o.duration_ms = 120;
  o.threads = 2;
  o.watchdog_interval_ms = 200;
  auto r = RunLive(*owned->system, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->completed);
  EXPECT_GT(r->commits, 0u);
  EXPECT_GT(r->wall_seconds, 0.1);
  EXPECT_LT(r->wall_seconds, 5.0);
  EXPECT_GT(r->commits_per_sec, 0.0);
  EXPECT_GT(r->lock_ops_per_sec, 0.0);
}

}  // namespace
}  // namespace wydb
