// Adversarial S/X grant-logic battery run against BOTH lock managers —
// the simulator's per-site LockManager and the live engine's thread-safe
// StripedLockManager — through one driver interface. Both wrap the one
// LockTable core, so the battery checks that each wrapper surfaces the
// core's mode semantics (DESIGN.md §11.5) unchanged:
//
//   * shared grants are batched: any number of S holders coexist, an S
//     request is granted whenever no one holds X (even past queued X
//     waiters), and a freed entity grants every queued S at once;
//   * X requests queue FIFO and are granted only once no one holds the
//     entity in any mode;
//   * S->X upgrades keep their shared hold and jump to the queue head —
//     promoted immediately when the upgrader is the sole sharer, else
//     the moment the other sharers drain;
//   * two sharers upgrading the same entity deadlock on each other, the
//     cycle is visible in the wait-for edges (one edge per conflicting
//     holder, never a self-edge), and aborting either side promotes the
//     survivor;
//   * the shared_grants / upgrades / upgrade_aborts counters are exact.
//
// The striped-only tests at the bottom additionally pin the conflict
// policies: wound-wait resolves the upgrade deadlock by timestamp, and
// the kDetect scanner finds the 2-cycle and aborts the youngest.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/lock_manager.h"
#include "runtime/striped_lock_manager.h"

namespace wydb {
namespace {

constexpr int kEntities = 4;
constexpr int kTxns = 6;
constexpr EntityId kE = 0;
constexpr EntityId kF = 1;

using Edge = std::pair<int, int>;  // (waiter, holder)

// ---------------------------------------------------------------------
// Driver: one synchronous-looking interface over both managers. The flat
// manager is synchronous by construction; the striped manager blocks its
// caller, so the driver runs each acquire on its own thread and reports
// "blocked" once the manager shows the transaction parked.
class ModeDriver {
 public:
  virtual ~ModeDriver() = default;

  /// Issues the request. True iff granted synchronously (the caller now
  /// holds `e` in `mode`); false iff the request queued.
  virtual bool Acquire(int txn, EntityId e, LockMode mode) = 0;
  /// Waits for a previously blocked request of `txn` to be granted.
  virtual bool AwaitGranted(int txn, EntityId e, LockMode mode) = 0;
  virtual void Release(int txn, EntityId e) = 0;
  /// Aborts `txn`: drops its queued request and releases all its holds.
  virtual void Abort(int txn) = 0;

  virtual bool IsHolding(int txn, EntityId e) const = 0;
  virtual int SharerCount(EntityId e) const = 0;
  /// True iff `txn` holds `e` exclusively (no sharers, txn is holder).
  virtual bool IsExclusiveHolder(int txn, EntityId e) const = 0;
  virtual std::vector<Edge> WaitEdges() const = 0;

  virtual uint64_t SharedGrants() const = 0;
  virtual uint64_t Upgrades() const = 0;
  virtual uint64_t UpgradeAborts() const = 0;
};

bool HasEdge(const std::vector<Edge>& edges, int waiter, int holder) {
  for (const Edge& e : edges) {
    if (e.first == waiter && e.second == holder) return true;
  }
  return false;
}

// --- Flat (simulator) manager. ----------------------------------------
class FlatDriver : public ModeDriver {
 public:
  FlatDriver() : lm_(/*site=*/0, kEntities, &events_) {}

  bool Acquire(int txn, EntityId e, LockMode mode) override {
    lm_.Request(txn, e, mode);
    return Holds(txn, e, mode);
  }
  bool AwaitGranted(int txn, EntityId e, LockMode mode) override {
    // Grants happen synchronously inside Release/Abort.
    return Holds(txn, e, mode);
  }
  void Release(int txn, EntityId e) override { lm_.Release(txn, e); }
  void Abort(int txn) override { lm_.Abort(txn); }

  bool IsHolding(int txn, EntityId e) const override {
    return lm_.IsHolding(txn, e);
  }
  int SharerCount(EntityId e) const override {
    return lm_.SharerCountOf(e);
  }
  bool IsExclusiveHolder(int txn, EntityId e) const override {
    return lm_.HolderOf(e) == txn && lm_.SharerCountOf(e) == 0;
  }
  std::vector<Edge> WaitEdges() const override {
    std::vector<Edge> out;
    for (const auto& we : lm_.WaitForEdges()) {
      out.emplace_back(we.waiter, we.holder);
    }
    return out;
  }
  uint64_t SharedGrants() const override { return lm_.shared_grants(); }
  uint64_t Upgrades() const override { return lm_.upgrades(); }
  uint64_t UpgradeAborts() const override { return lm_.upgrade_aborts(); }

  /// The raw event buffer (flat-only tests).
  const std::vector<LockEvent>& events() const { return events_; }
  LockManager& manager() { return lm_; }

 private:
  bool Holds(int txn, EntityId e, LockMode mode) const {
    if (lm_.IsWaitingOn(txn, e)) return false;
    return mode == LockMode::kExclusive ? IsExclusiveHolder(txn, e)
                                        : lm_.IsHolding(txn, e);
  }

  std::vector<LockEvent> events_;
  LockManager lm_;
};

// --- Striped (live) manager. ------------------------------------------
class StripedDriver : public ModeDriver {
 public:
  explicit StripedDriver(
      ConflictPolicy policy = ConflictPolicy::kBlock)
      : mgr_(kEntities, kTxns, MakeOptions(policy)) {
    for (int t = 0; t < kTxns; ++t) {
      mgr_.SetTimestamp(t, static_cast<uint64_t>(t) + 1);
    }
  }
  ~StripedDriver() override {
    mgr_.RequestStop();  // Unwinds any still-parked acquire thread.
    pending_.clear();    // Future destructors join the async threads.
  }

  bool Acquire(int txn, EntityId e, LockMode mode) override {
    const size_t waiters_before = mgr_.TotalWaiters();
    auto fut = std::async(std::launch::async, [this, txn, e, mode] {
      return mgr_.Acquire(txn, e, mode);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (fut.wait_for(std::chrono::milliseconds(1)) ==
          std::future_status::ready) {
        const auto status = fut.get();
        EXPECT_EQ(status, StripedLockManager::AcquireStatus::kGranted);
        if (status == StripedLockManager::AcquireStatus::kGranted) {
          held_[txn].insert(e);
        }
        return true;
      }
      if (mgr_.TotalWaiters() > waiters_before) {
        pending_[txn] = std::move(fut);
        return false;
      }
    }
    ADD_FAILURE() << "acquire by T" << txn << " neither granted nor parked";
    pending_[txn] = std::move(fut);
    return false;
  }

  bool AwaitGranted(int txn, EntityId e, LockMode mode) override {
    auto it = pending_.find(txn);
    if (it == pending_.end()) {
      ADD_FAILURE() << "T" << txn << " has no pending acquire";
      return false;
    }
    auto fut = std::move(it->second);
    pending_.erase(it);
    if (fut.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "pending acquire by T" << txn << " never completed";
      return false;
    }
    if (fut.get() != StripedLockManager::AcquireStatus::kGranted) {
      return false;
    }
    held_[txn].insert(e);
    return mode == LockMode::kExclusive ? IsExclusiveHolder(txn, e)
                                        : mgr_.IsHolding(txn, e);
  }

  void Release(int txn, EntityId e) override {
    mgr_.Release(txn, e);
    held_[txn].erase(e);
  }

  void Abort(int txn) override {
    mgr_.RequestAbort(txn);
    auto it = pending_.find(txn);
    if (it != pending_.end()) {
      auto fut = std::move(it->second);
      pending_.erase(it);
      if (fut.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        ADD_FAILURE() << "aborted acquire by T" << txn << " never returned";
      } else {
        EXPECT_EQ(fut.get(), StripedLockManager::AcquireStatus::kAborted);
      }
    }
    // The striped manager never releases for the caller: mirror the flat
    // manager's Abort by dropping every hold explicitly.
    std::vector<EntityId> held(held_[txn].begin(), held_[txn].end());
    mgr_.ReleaseAll(txn, held);
    held_[txn].clear();
  }

  bool IsHolding(int txn, EntityId e) const override {
    return mgr_.IsHolding(txn, e);
  }
  int SharerCount(EntityId e) const override {
    return mgr_.SharerCountOf(e);
  }
  bool IsExclusiveHolder(int txn, EntityId e) const override {
    return mgr_.HolderOf(e) == txn && mgr_.SharerCountOf(e) == 0;
  }
  std::vector<Edge> WaitEdges() const override {
    std::vector<Edge> out;
    for (const auto& we : mgr_.WaitForEdges()) {
      out.emplace_back(we.waiter, we.holder);
    }
    return out;
  }
  uint64_t SharedGrants() const override { return mgr_.shared_grants(); }
  uint64_t Upgrades() const override { return mgr_.upgrades(); }
  uint64_t UpgradeAborts() const override { return mgr_.upgrade_aborts(); }

  StripedLockManager& manager() { return mgr_; }

 private:
  static StripedLockManager::Options MakeOptions(ConflictPolicy policy) {
    StripedLockManager::Options o;
    o.policy = policy;
    return o;
  }

  StripedLockManager mgr_;
  std::map<int, std::future<StripedLockManager::AcquireStatus>> pending_;
  std::map<int, std::set<EntityId>> held_;
};

// ---------------------------------------------------------------------
enum class Impl { kFlat, kStriped };

std::unique_ptr<ModeDriver> NewDriver(Impl impl) {
  if (impl == Impl::kFlat) return std::make_unique<FlatDriver>();
  return std::make_unique<StripedDriver>();
}

class LockModesTest : public ::testing::TestWithParam<Impl> {};

TEST_P(LockModesTest, SharedGrantsCoexistAndBlockExclusive) {
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(1, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(2, kE, LockMode::kShared));
  EXPECT_EQ(d->SharerCount(kE), 3);
  EXPECT_EQ(d->SharedGrants(), 3u);

  // X conflicts with every sharer: queued, one wait edge per holder.
  EXPECT_FALSE(d->Acquire(3, kE, LockMode::kExclusive));
  auto edges = d->WaitEdges();
  EXPECT_TRUE(HasEdge(edges, 3, 0));
  EXPECT_TRUE(HasEdge(edges, 3, 1));
  EXPECT_TRUE(HasEdge(edges, 3, 2));

  d->Release(0, kE);
  d->Release(1, kE);
  EXPECT_FALSE(d->IsExclusiveHolder(3, kE));  // One sharer remains.
  d->Release(2, kE);
  EXPECT_TRUE(d->AwaitGranted(3, kE, LockMode::kExclusive));
  EXPECT_EQ(d->SharerCount(kE), 0);
}

TEST_P(LockModesTest, SharedGrantedPastQueuedExclusive) {
  // S is granted whenever no one holds X (the paper's model has no
  // queue; DESIGN.md §11.5): T2's S request is compatible with the S
  // holder T0, so it does not wait behind the earlier X waiter T1.
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_FALSE(d->Acquire(1, kE, LockMode::kExclusive));
  EXPECT_TRUE(d->Acquire(2, kE, LockMode::kShared));
  EXPECT_EQ(d->SharerCount(kE), 2);

  // The writer waits for both readers...
  d->Release(0, kE);
  EXPECT_FALSE(d->IsHolding(1, kE));
  // ...and goes once the last one leaves.
  d->Release(2, kE);
  EXPECT_TRUE(d->AwaitGranted(1, kE, LockMode::kExclusive));
  EXPECT_EQ(d->SharedGrants(), 2u);
}

TEST_P(LockModesTest, FreedEntityGrantsSharedBatch) {
  // Release of an X hold grants the whole consecutive S prefix at once,
  // but not the X request queued behind it.
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kExclusive));
  EXPECT_FALSE(d->Acquire(1, kE, LockMode::kShared));
  EXPECT_FALSE(d->Acquire(2, kE, LockMode::kShared));
  EXPECT_FALSE(d->Acquire(3, kE, LockMode::kExclusive));

  d->Release(0, kE);
  EXPECT_TRUE(d->AwaitGranted(1, kE, LockMode::kShared));
  EXPECT_TRUE(d->AwaitGranted(2, kE, LockMode::kShared));
  EXPECT_EQ(d->SharerCount(kE), 2);
  EXPECT_FALSE(d->IsHolding(3, kE));
  EXPECT_EQ(d->SharedGrants(), 2u);

  d->Release(1, kE);
  d->Release(2, kE);
  EXPECT_TRUE(d->AwaitGranted(3, kE, LockMode::kExclusive));
}

TEST_P(LockModesTest, SoleSharerUpgradesImmediately) {
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kExclusive));
  EXPECT_TRUE(d->IsExclusiveHolder(0, kE));
  EXPECT_EQ(d->Upgrades(), 1u);

  // The upgraded hold is a normal X hold: one Release frees the entity.
  EXPECT_FALSE(d->Acquire(1, kE, LockMode::kShared));
  d->Release(0, kE);
  EXPECT_TRUE(d->AwaitGranted(1, kE, LockMode::kShared));
}

TEST_P(LockModesTest, QueuedUpgradeKeepsSharedHoldAndJumpsQueue) {
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(1, kE, LockMode::kShared));
  // T0 upgrades: not promotable (T1 still shares), keeps its S hold.
  EXPECT_FALSE(d->Acquire(0, kE, LockMode::kExclusive));
  EXPECT_TRUE(d->IsHolding(0, kE));
  EXPECT_EQ(d->SharerCount(kE), 2);
  // The upgrader waits on the other sharer, never on itself.
  auto edges = d->WaitEdges();
  EXPECT_TRUE(HasEdge(edges, 0, 1));
  EXPECT_FALSE(HasEdge(edges, 0, 0));

  // A later X request queues behind the head upgrade; a later S request
  // is granted, since no one holds X (DESIGN.md §11.5).
  EXPECT_FALSE(d->Acquire(3, kE, LockMode::kExclusive));
  EXPECT_TRUE(d->Acquire(2, kE, LockMode::kShared));

  // The other sharers drain: the upgrade is promoted ahead of T3.
  d->Release(1, kE);
  d->Release(2, kE);
  EXPECT_TRUE(d->AwaitGranted(0, kE, LockMode::kExclusive));
  EXPECT_EQ(d->Upgrades(), 1u);
  EXPECT_FALSE(d->IsHolding(3, kE));

  d->Release(0, kE);
  EXPECT_TRUE(d->AwaitGranted(3, kE, LockMode::kExclusive));
}

TEST_P(LockModesTest, TwoUpgradersDeadlockAndAbortResolves) {
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(1, kE, LockMode::kShared));
  EXPECT_FALSE(d->Acquire(0, kE, LockMode::kExclusive));
  EXPECT_FALSE(d->Acquire(1, kE, LockMode::kExclusive));

  // A genuine 2-cycle in the wait-for relation: each upgrader waits on
  // the other's shared hold (and never on its own).
  auto edges = d->WaitEdges();
  EXPECT_TRUE(HasEdge(edges, 0, 1));
  EXPECT_TRUE(HasEdge(edges, 1, 0));
  EXPECT_FALSE(HasEdge(edges, 0, 0));
  EXPECT_FALSE(HasEdge(edges, 1, 1));

  // Aborting one side abandons its upgrade and its shared hold; the
  // survivor becomes the sole sharer and is promoted.
  d->Abort(1);
  EXPECT_TRUE(d->AwaitGranted(0, kE, LockMode::kExclusive));
  EXPECT_EQ(d->Upgrades(), 1u);
  EXPECT_EQ(d->UpgradeAborts(), 1u);
  EXPECT_FALSE(d->IsHolding(1, kE));
}

TEST_P(LockModesTest, ModesAreIndependentAcrossEntities) {
  auto d = NewDriver(GetParam());
  EXPECT_TRUE(d->Acquire(0, kE, LockMode::kShared));
  EXPECT_TRUE(d->Acquire(0, kF, LockMode::kExclusive));
  EXPECT_TRUE(d->Acquire(1, kE, LockMode::kShared));
  EXPECT_FALSE(d->Acquire(1, kF, LockMode::kShared));
  d->Release(0, kF);
  EXPECT_TRUE(d->AwaitGranted(1, kF, LockMode::kShared));
  EXPECT_EQ(d->SharerCount(kE), 2);
  EXPECT_EQ(d->SharerCount(kF), 1);
}

INSTANTIATE_TEST_SUITE_P(Impl, LockModesTest,
                         ::testing::Values(Impl::kFlat, Impl::kStriped),
                         [](const auto& info) {
                           return info.param == Impl::kFlat ? "Flat"
                                                            : "Striped";
                         });

// ---------------------------------------------------------------------
// Flat-only: the POD event protocol under shared modes. A blocked X
// request emits one kBlock record PER conflicting holder, so a
// timestamp policy can resolve the request against each of them.
TEST(FlatLockModesTest, BlockEventsEmittedPerConflictingHolder) {
  FlatDriver d;
  d.Acquire(0, kE, LockMode::kShared);
  d.Acquire(1, kE, LockMode::kShared);
  const size_t before = d.events().size();
  d.Acquire(2, kE, LockMode::kExclusive);
  int blocks = 0;
  for (size_t i = before; i < d.events().size(); ++i) {
    const LockEvent& ev = d.events()[i];
    if (ev.kind != LockEvent::Kind::kBlock) continue;
    EXPECT_EQ(ev.txn, 2);
    EXPECT_TRUE(ev.holder == 0 || ev.holder == 1);
    ++blocks;
  }
  EXPECT_EQ(blocks, 2);
}

// An S granted past a queued X is a new holder for the X waiter: its
// block record is re-emitted against the new sharer, so the engine's
// timestamp policy is applied to that pair too.
TEST(FlatLockModesTest, SharedGrantPastQueueReemitsBlocks) {
  FlatDriver d;
  d.Acquire(0, kE, LockMode::kShared);
  d.Acquire(1, kE, LockMode::kExclusive);
  const size_t before = d.events().size();
  EXPECT_TRUE(d.Acquire(2, kE, LockMode::kShared));
  bool waiter_blocks_on_new_sharer = false;
  for (size_t i = before; i < d.events().size(); ++i) {
    const LockEvent& ev = d.events()[i];
    if (ev.kind == LockEvent::Kind::kBlock && ev.txn == 1 && ev.holder == 2) {
      waiter_blocks_on_new_sharer = true;
    }
  }
  EXPECT_TRUE(waiter_blocks_on_new_sharer);
}

// X-only workloads never touch the shared machinery: counters stay zero
// and the waiter pool still plateaus (the pre-S/X contract).
TEST(FlatLockModesTest, ExclusiveOnlyTrafficKeepsCountersZero) {
  FlatDriver d;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(d.Acquire(0, kE, LockMode::kExclusive));
    ASSERT_FALSE(d.Acquire(1, kE, LockMode::kExclusive));
    d.Release(0, kE);
    ASSERT_TRUE(d.AwaitGranted(1, kE, LockMode::kExclusive));
    d.Release(1, kE);
  }
  EXPECT_EQ(d.SharedGrants(), 0u);
  EXPECT_EQ(d.Upgrades(), 0u);
  EXPECT_EQ(d.UpgradeAborts(), 0u);
  EXPECT_EQ(d.manager().free_waiter_count(), d.manager().waiter_pool_size());
}

// ---------------------------------------------------------------------
// Striped-only: the conflict policies resolve the upgrade deadlock
// without any caller-side abort.

// Wound-wait: the older upgrader (smaller timestamp) wounds the younger
// sharer blocking it; the younger's queued upgrade dies.
TEST(StripedLockModesTest, WoundWaitResolvesUpgradeDeadlock) {
  StripedDriver d(ConflictPolicy::kWoundWait);
  ASSERT_TRUE(d.Acquire(0, kE, LockMode::kShared));
  ASSERT_TRUE(d.Acquire(1, kE, LockMode::kShared));
  // The younger T1 upgrades first: it must WAIT on the older sharer T0.
  ASSERT_FALSE(d.Acquire(1, kE, LockMode::kExclusive));
  // The older T0 upgrades: wound-wait wounds the younger sharer T1.
  // T1's parked upgrade returns kAborted; after it releases its shared
  // hold, T0 is the sole sharer and gets promoted.
  auto fut = std::async(std::launch::async, [&d] {
    return d.manager().Acquire(0, kE, LockMode::kExclusive);
  });
  EXPECT_FALSE(d.AwaitGranted(1, kE, LockMode::kExclusive));  // kAborted.
  EXPECT_EQ(d.manager().upgrade_aborts(), 1u);
  d.manager().ReleaseAll(1, {kE});
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), StripedLockManager::AcquireStatus::kGranted);
  EXPECT_TRUE(d.IsExclusiveHolder(0, kE));
  EXPECT_EQ(d.manager().upgrades(), 1u);
}

// kDetect: both upgraders park; the scanner snapshots the wait-for
// graph, sees the 2-cycle, and aborts the youngest.
TEST(StripedLockModesTest, DetectorResolvesUpgradeDeadlock) {
  StripedDriver d(ConflictPolicy::kDetect);
  ASSERT_TRUE(d.Acquire(0, kE, LockMode::kShared));
  ASSERT_TRUE(d.Acquire(1, kE, LockMode::kShared));
  auto f0 = std::async(std::launch::async, [&d] {
    return d.manager().Acquire(0, kE, LockMode::kExclusive);
  });
  auto f1 = std::async(std::launch::async, [&d] {
    return d.manager().Acquire(1, kE, LockMode::kExclusive);
  });
  // The youngest (largest timestamp) is T1: its upgrade is the victim.
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(f1.get(), StripedLockManager::AcquireStatus::kAborted);
  EXPECT_EQ(d.manager().upgrade_aborts(), 1u);
  d.manager().ReleaseAll(1, {kE});
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(f0.get(), StripedLockManager::AcquireStatus::kGranted);
  EXPECT_TRUE(d.IsExclusiveHolder(0, kE));
  EXPECT_GE(d.manager().detector_runs(), 1u);
}

// The striped manager's counterpart: the older X waiter wounds the
// younger sharer granted past it (wound-wait), and leaves the older
// sharer it was already waiting for alone.
TEST(StripedLockModesTest, WoundWaitAppliesToSharerGrantedPastQueue) {
  StripedDriver d(ConflictPolicy::kWoundWait);
  ASSERT_TRUE(d.Acquire(0, kE, LockMode::kShared));
  ASSERT_FALSE(d.Acquire(1, kE, LockMode::kExclusive));  // Younger: waits.
  ASSERT_TRUE(d.Acquire(2, kE, LockMode::kShared));
  EXPECT_EQ(d.manager().policy_aborts(), 1u);
  // The wounded T2 learns at its next request; T0 is untouched.
  EXPECT_EQ(d.manager().Acquire(2, kF, LockMode::kShared),
            StripedLockManager::AcquireStatus::kAborted);
  EXPECT_EQ(d.manager().Acquire(0, kF, LockMode::kShared),
            StripedLockManager::AcquireStatus::kGranted);
}

// Wait-die with the YOUNGER transaction already holding S: the older
// X requester waits (it never dies), and drains once the sharer leaves.
TEST(StripedLockModesTest, WaitDieOlderRequesterWaitsOnSharers) {
  StripedDriver d(ConflictPolicy::kWaitDie);
  ASSERT_TRUE(d.Acquire(1, kE, LockMode::kShared));
  ASSERT_FALSE(d.Acquire(0, kE, LockMode::kExclusive));  // Older: waits.
  d.Release(1, kE);
  EXPECT_TRUE(d.AwaitGranted(0, kE, LockMode::kExclusive));
  // And the younger dies instead of waiting on the older's X hold.
  auto fut = std::async(std::launch::async, [&d] {
    return d.manager().Acquire(1, kE, LockMode::kShared);
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), StripedLockManager::AcquireStatus::kAborted);
}

}  // namespace
}  // namespace wydb
