// Wall-clock executor: runs a TransactionSystem on real OS threads against
// the thread-safe StripedLockManager — the empirical counterpart of
// SimEngine on actual hardware.
//
// Each worker thread owns a disjoint subset of the system's transactions
// and drives each through the same TxnExecutor state machine the simulator
// uses, in a closed-loop session mirroring runtime/workload.{h,cc}: MPL
// admission, think time between rounds, per-round commit latency
// (p50/p95/p99), throughput and abort rate.
//
// The perf payoff this engine exists to measure: a system certified
// safe+DF by the static analyzer (Theorem 4) runs under ConflictPolicy::
// kBlock — pure parking, no timestamps, no timeout scans, no wait-for
// graphs — and cannot deadlock. Uncertified systems run under kBlock only
// behind the engine's watchdog, which detects global non-progress and
// stops the run with `deadlocked = true` (the watchdog is a test/CLI
// harness, not detection machinery: it costs one counter read per
// interval, nothing per lock op).
#ifndef WYDB_RUNTIME_LIVE_ENGINE_H_
#define WYDB_RUNTIME_LIVE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/system.h"
#include "runtime/scheduler.h"
#include "runtime/simulation.h"

namespace wydb {

struct LiveOptions {
  ConflictPolicy policy = ConflictPolicy::kBlock;
  uint64_t seed = 1;
  /// Worker threads (0 = hardware concurrency), clamped to the number of
  /// transactions. Transactions are dealt round-robin over the workers.
  int threads = 0;
  /// Multi-programming level: max transactions concurrently inside a
  /// round (0 = unlimited); excess arrivals wait in admission order.
  int mpl = 0;
  /// Per-transaction round target; 0 = duration-bounded only.
  int rounds = 0;
  /// Wall-clock session length; workers stop starting new rounds after
  /// this. 0 = rounds-bounded only. At least one bound must be set.
  int64_t duration_ms = 0;
  /// Mean think time between a commit and the next round's arrival; the
  /// sampled delay is uniform in [1, 2*think_us]. 0 = none.
  int64_t think_us = 0;
  /// Dwell while holding each granted lock before the next step. Widens
  /// the conflict windows that a 1-quantum scheduler otherwise hides —
  /// how the deadlock tests make uncertified systems actually deadlock
  /// within a bounded run. 0 = none.
  int64_t hold_us = 0;
  /// Busy CPU work (spin, not sleep) after each granted lock — models
  /// the computation a real transaction does while holding its locks.
  /// Unlike hold_us it keeps the holder RUNNABLE, so on a saturated
  /// machine it gets preempted mid-critical-section and waiters pile up
  /// behind it: the regime where the conflict policies' overheads
  /// (timeout scans, timestamp aborts) actually show up. 0 = none.
  int64_t work_us = 0;
  /// Base backoff after an abort; the sampled delay is uniform in
  /// [backoff_us, 2*backoff_us).
  int64_t backoff_us = 200;
  /// A transaction aborted more than this many times in one round gives
  /// up, ending the session.
  int max_restarts = 10'000;
  /// Watchdog progress-check period. Two consecutive checks with zero
  /// progress and parked waiters declare deadlock and stop the run.
  int64_t watchdog_interval_ms = 250;
  /// kDetect: waiter park timeout before a wait-for scan.
  int64_t detect_interval_us = 2000;
};

struct LiveResult {
  /// Session ended by its bound (rounds done or duration elapsed).
  bool completed = false;
  /// Watchdog saw sustained non-progress with parked waiters.
  bool deadlocked = false;
  /// Some transaction exceeded max_restarts.
  bool gave_up = false;

  int threads = 0;

  uint64_t commits = 0;
  uint64_t aborts = 0;
  /// Completed lock-table operations (grants + releases).
  uint64_t lock_ops = 0;
  /// Shared-mode lock grants (0 for X-only workloads).
  uint64_t shared_grants = 0;
  /// Completed S->X upgrades.
  uint64_t upgrades = 0;
  /// Queued upgrades abandoned by aborts (the simulator's meaning: an
  /// upgrade whose grant is handed back counts as completed).
  uint64_t upgrade_aborts = 0;
  /// kDetect wait-for scans.
  uint64_t detector_runs = 0;

  double wall_seconds = 0.0;
  double commits_per_sec = 0.0;
  double lock_ops_per_sec = 0.0;
  /// aborts / (aborts + commits); 0 when nothing ran.
  double abort_rate = 0.0;
  /// Per-round commit latency in microseconds (arrival -> commit).
  LatencyStats latency;

  /// Waiting transactions at the moment the watchdog fired (deadlock
  /// participants, plus any transaction queued behind them).
  std::vector<int> blocked_txns;
};

/// Runs one closed-loop wall-clock session. Fails with InvalidArgument if
/// neither `rounds` nor `duration_ms` is set, or the system is empty.
Result<LiveResult> RunLive(const TransactionSystem& sys,
                           const LiveOptions& options);

}  // namespace wydb

#endif  // WYDB_RUNTIME_LIVE_ENGINE_H_
