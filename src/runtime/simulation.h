// End-to-end distributed execution of a TransactionSystem on the simulated
// substrate: per-site lock managers, message-passing between each
// transaction's home site and the entities' sites, and a pluggable
// deadlock-handling policy.
//
// This is the empirical counterpart of the paper's static analysis: a
// system certified safe+DF by Theorem 3/4 never deadlocks here under the
// pure blocking policy, while uncertified systems can be driven into
// deadlock by adverse message timing (seeds).
#ifndef WYDB_RUNTIME_SIMULATION_H_
#define WYDB_RUNTIME_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/schedule.h"
#include "core/system.h"
#include "runtime/scheduler.h"
#include "runtime/sim/network.h"

namespace wydb {

struct SimOptions {
  ConflictPolicy policy = ConflictPolicy::kBlock;
  uint64_t seed = 1;
  LatencyModel latency;
  /// Physical copy placement for the replicated engine (DESIGN.md §6).
  /// Null means single-copy at each entity's catalog site (the classic
  /// engine, bit-identical to pre-replication behaviour). The placement
  /// is borrowed: it must outlive every run launched with these options.
  const CopyPlacement* placement = nullptr;
  /// Base delay before an aborted transaction restarts (plus jitter).
  SimTime restart_backoff = 200;
  /// Transactions start at a random offset in [0, start_spread].
  SimTime start_spread = 30;
  /// Event budget (0 = unbounded).
  uint64_t max_events = 2'000'000;
  /// A transaction that restarts more than this many times in one round
  /// gives up.
  int max_restarts = 10'000;
};

/// Commit-latency percentiles over the committed rounds of one run, in
/// simulated time units.
struct LatencyStats {
  SimTime p50 = 0;
  SimTime p95 = 0;
  SimTime p99 = 0;
  SimTime max = 0;
  double mean = 0.0;
  uint64_t samples = 0;
};

/// Nearest-rank percentiles, max and mean of `samples` (zeros when empty).
LatencyStats SummarizeLatencies(std::vector<SimTime> samples);

struct SimResult {
  bool all_committed = false;
  /// Ended quiescent with blocked transactions (circular wait) under a
  /// blocking policy.
  bool deadlocked = false;
  bool budget_exhausted = false;
  bool gave_up = false;  ///< Some transaction exceeded max_restarts.

  uint64_t aborts = 0;
  uint64_t detector_runs = 0;
  uint64_t messages = 0;
  uint64_t events = 0;
  /// Shared-mode lock grants across all sites (0 for X-only workloads).
  uint64_t shared_grants = 0;
  /// Completed S->X upgrades across all sites.
  uint64_t upgrades = 0;
  /// Queued upgrades abandoned by aborts.
  uint64_t upgrade_aborts = 0;
  SimTime makespan = 0;

  /// Committed rounds. One-shot: the number of committed transactions.
  /// Closed-loop: total rounds committed across the run.
  uint64_t commits = 0;
  /// Commits per one million simulated time units ("per simulated second"
  /// with the abstract-microsecond clock).
  double throughput = 0.0;
  /// aborts / (aborts + commits); 0 when nothing ran.
  double abort_rate = 0.0;
  /// Per-round commit latency (round arrival -> commit).
  LatencyStats latency;

  /// Transactions still blocked at the end (deadlock participants).
  std::vector<int> blocked_txns;
  /// Site-linearized history of the committed attempts. One-shot mode
  /// only; closed-loop runs leave it empty.
  Schedule committed_history;
  /// Acyclicity of D(committed_history); only meaningful (and only
  /// computed) when all_committed in one-shot mode.
  bool history_serializable = true;
};

/// Runs one seeded simulation to completion, deadlock, or budget.
Result<SimResult> RunSimulation(const TransactionSystem& sys,
                                const SimOptions& options);

struct AggregateResult {
  int runs = 0;
  int committed_runs = 0;
  int deadlocked_runs = 0;
  int budget_exhausted_runs = 0;
  int gave_up_runs = 0;
  uint64_t total_aborts = 0;
  uint64_t total_messages = 0;
  /// Lock-mode traffic totals across the seeded runs (all 0 for X-only
  /// workloads; see the SimResult fields of the same names).
  uint64_t total_shared_grants = 0;
  uint64_t total_upgrades = 0;
  uint64_t total_upgrade_aborts = 0;
  double avg_makespan = 0.0;
  bool all_histories_serializable = true;
};

/// Runs `runs` simulations with seeds base.seed, base.seed+1, ...
///
/// Independent seeds run concurrently on a thread pool (`threads` = 0
/// picks the hardware concurrency; 1 forces the serial loop). Each seed's
/// SimResult is bit-identical regardless of thread count, and results are
/// reduced in seed order, so the aggregate is too.
Result<AggregateResult> RunMany(const TransactionSystem& sys,
                                const SimOptions& base, int runs,
                                int threads = 0);

}  // namespace wydb

#endif  // WYDB_RUNTIME_SIMULATION_H_
