// Experiment E6: runtime comparison of deadlock strategies — static
// prevention (run certified-safe workloads under pure blocking) versus
// the classic dynamic baselines (wait-for-graph detection, wound-wait,
// wait-die) on deadlock-prone workloads. Reported counters: deadlock
// rate, aborts, messages, simulated makespan.
#include <benchmark/benchmark.h>

#include <cmath>

#include "gen/system_gen.h"
#include "runtime/live_engine.h"
#include "runtime/simulation.h"
#include "runtime/workload.h"

namespace wydb {
namespace {

void RunPolicy(benchmark::State& state, const TransactionSystem& sys,
               ConflictPolicy policy) {
  uint64_t seed = 1;
  int runs = 0, deadlocks = 0, commits = 0;
  uint64_t aborts = 0, messages = 0, events = 0;
  double makespan = 0;
  for (auto _ : state) {
    SimOptions opts;
    opts.policy = policy;
    opts.seed = seed++;
    auto res = RunSimulation(sys, opts);
    if (!res.ok()) {
      state.SkipWithError("simulation failed");
      return;
    }
    ++runs;
    deadlocks += res->deadlocked ? 1 : 0;
    commits += res->all_committed ? 1 : 0;
    aborts += res->aborts;
    messages += res->messages;
    events += res->events;
    makespan += static_cast<double>(res->makespan);
    benchmark::DoNotOptimize(res);
  }
  state.counters["deadlock_rate"] =
      runs ? static_cast<double>(deadlocks) / runs : 0;
  state.counters["commit_rate"] =
      runs ? static_cast<double>(commits) / runs : 0;
  state.counters["aborts_per_run"] =
      runs ? static_cast<double>(aborts) / runs : 0;
  state.counters["msgs_per_run"] =
      runs ? static_cast<double>(messages) / runs : 0;
  state.counters["avg_makespan"] = runs ? makespan / runs : 0;
  // Kernel hot-path speed: simulation events dispatched per wall second.
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// Closed-loop traffic sessions: one seeded session per iteration.
void RunTraffic(benchmark::State& state, const TransactionSystem& sys,
                ConflictPolicy policy, SimTime duration,
                const CopyPlacement* placement = nullptr) {
  uint64_t seed = 1;
  uint64_t commits = 0, aborts = 0, events = 0;
  double p99 = 0, throughput = 0;
  int runs = 0;
  for (auto _ : state) {
    WorkloadOptions opts;
    opts.sim.policy = policy;
    opts.sim.seed = seed++;
    opts.sim.max_events = 0;
    opts.sim.placement = placement;
    opts.duration = duration;
    opts.think_time = 50;
    auto res = RunWorkload(sys, opts);
    if (!res.ok()) {
      state.SkipWithError("workload failed");
      return;
    }
    ++runs;
    commits += res->commits;
    aborts += res->aborts;
    events += res->events;
    throughput += res->throughput;
    p99 += static_cast<double>(res->latency.p99);
    benchmark::DoNotOptimize(res);
  }
  state.counters["commits_per_run"] =
      runs ? static_cast<double>(commits) / runs : 0;
  state.counters["sim_throughput"] = runs ? throughput / runs : 0;
  state.counters["abort_rate"] =
      (commits + aborts)
          ? static_cast<double>(aborts) / static_cast<double>(commits + aborts)
          : 0;
  state.counters["latency_p99"] = runs ? p99 / runs : 0;
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// Deadlock-prone contended workload: a k-ring.
void BM_Ring_Block(benchmark::State& state) {
  auto ring = GenerateRingSystem(static_cast<int>(state.range(0)));
  RunPolicy(state, *ring->system, ConflictPolicy::kBlock);
}
BENCHMARK(BM_Ring_Block)->DenseRange(2, 8, 2);

void BM_Ring_Detect(benchmark::State& state) {
  auto ring = GenerateRingSystem(static_cast<int>(state.range(0)));
  RunPolicy(state, *ring->system, ConflictPolicy::kDetect);
}
BENCHMARK(BM_Ring_Detect)->DenseRange(2, 8, 2);

void BM_Ring_WoundWait(benchmark::State& state) {
  auto ring = GenerateRingSystem(static_cast<int>(state.range(0)));
  RunPolicy(state, *ring->system, ConflictPolicy::kWoundWait);
}
BENCHMARK(BM_Ring_WoundWait)->DenseRange(2, 8, 2);

void BM_Ring_WaitDie(benchmark::State& state) {
  auto ring = GenerateRingSystem(static_cast<int>(state.range(0)));
  RunPolicy(state, *ring->system, ConflictPolicy::kWaitDie);
}
BENCHMARK(BM_Ring_WaitDie)->DenseRange(2, 8, 2);

// Certified-safe workload (latch discipline): pure blocking needs no
// detector and never deadlocks or aborts — the paper's prevention story.
void BM_Certified_Block(benchmark::State& state) {
  SafeSystemOptions gopts;
  gopts.num_transactions = static_cast<int>(state.range(0));
  gopts.entities_per_txn = 3;
  gopts.seed = 2;
  auto sys = GenerateSafeSystem(gopts);
  RunPolicy(state, *sys->system, ConflictPolicy::kBlock);
}
BENCHMARK(BM_Certified_Block)->DenseRange(2, 10, 2);

void BM_Certified_Detect(benchmark::State& state) {
  SafeSystemOptions gopts;
  gopts.num_transactions = static_cast<int>(state.range(0));
  gopts.entities_per_txn = 3;
  gopts.seed = 2;
  auto sys = GenerateSafeSystem(gopts);
  RunPolicy(state, *sys->system, ConflictPolicy::kDetect);
}
BENCHMARK(BM_Certified_Detect)->DenseRange(2, 10, 2);

// Random uncertified two-phase workload under all four policies.
void BM_Random2PL(benchmark::State& state) {
  RandomSystemOptions gopts;
  gopts.num_transactions = 6;
  gopts.entities_per_txn = 3;
  gopts.num_sites = 3;
  gopts.entities_per_site = 3;
  gopts.two_phase = true;
  gopts.seed = 4;
  auto sys = GenerateRandomSystem(gopts);
  RunPolicy(state, *sys->system,
            static_cast<ConflictPolicy>(state.range(0)));
}
BENCHMARK(BM_Random2PL)
    ->Arg(static_cast<int>(ConflictPolicy::kBlock))
    ->Arg(static_cast<int>(ConflictPolicy::kWoundWait))
    ->Arg(static_cast<int>(ConflictPolicy::kWaitDie))
    ->Arg(static_cast<int>(ConflictPolicy::kDetect));

// Closed-loop throughput series: certified-safe workload under pure
// blocking sustains traffic with zero aborts; the range is the number of
// transactions (clients).
void BM_ClosedLoop_Certified_Block(benchmark::State& state) {
  SafeSystemOptions gopts;
  gopts.num_transactions = static_cast<int>(state.range(0));
  gopts.entities_per_txn = 3;
  gopts.seed = 2;
  auto sys = GenerateSafeSystem(gopts);
  RunTraffic(state, *sys->system, ConflictPolicy::kBlock, 50'000);
}
BENCHMARK(BM_ClosedLoop_Certified_Block)->DenseRange(2, 10, 2);

// Deadlock-prone contended traffic under the dynamic baselines.
void BM_ClosedLoop_Ring(benchmark::State& state) {
  auto ring = GenerateRingSystem(static_cast<int>(state.range(0)));
  RunTraffic(state, *ring->system,
             static_cast<ConflictPolicy>(state.range(1)), 50'000);
}
BENCHMARK(BM_ClosedLoop_Ring)
    ->ArgsProduct({{3, 6},
                   {static_cast<int>(ConflictPolicy::kDetect),
                    static_cast<int>(ConflictPolicy::kWoundWait),
                    static_cast<int>(ConflictPolicy::kWaitDie)}});

// Random two-phase contended traffic.
void BM_ClosedLoop_Random2PL(benchmark::State& state) {
  RandomSystemOptions gopts;
  gopts.num_transactions = 6;
  gopts.entities_per_txn = 3;
  gopts.num_sites = 3;
  gopts.entities_per_site = 3;
  gopts.two_phase = true;
  gopts.seed = 4;
  auto sys = GenerateRandomSystem(gopts);
  RunTraffic(state, *sys->system,
             static_cast<ConflictPolicy>(state.range(0)), 50'000);
}
BENCHMARK(BM_ClosedLoop_Random2PL)
    ->Arg(static_cast<int>(ConflictPolicy::kWoundWait))
    ->Arg(static_cast<int>(ConflictPolicy::kWaitDie))
    ->Arg(static_cast<int>(ConflictPolicy::kDetect));

// Replicated traffic (DESIGN.md §6): a certified identical-copies farm
// under pure blocking across replication degrees — the write-all fan-out
// cost in messages/latency, with zero deadlocks by construction. Range:
// (workers, degree).
void BM_ClosedLoop_Replicated_Farm(benchmark::State& state) {
  ReplicatedFarmOptions fopts;
  fopts.workers = static_cast<int>(state.range(0));
  fopts.entities = 3;
  fopts.degree = static_cast<int>(state.range(1));
  auto farm = GenerateReplicatedFarm(fopts);
  RunTraffic(state, *farm->system, ConflictPolicy::kBlock, 50'000,
             farm->placement.get());
}
BENCHMARK(BM_ClosedLoop_Replicated_Farm)
    ->ArgsProduct({{4, 8}, {1, 2, 3}});

// Deadlock-prone replicated ring under the detector: replication widens
// the in-flight message window the detector has to see through.
void BM_ClosedLoop_Replicated_Ring(benchmark::State& state) {
  auto ring = GenerateReplicatedRingSystem(static_cast<int>(state.range(0)),
                                           static_cast<int>(state.range(1)));
  RunTraffic(state, *ring->system, ConflictPolicy::kDetect, 50'000,
             ring->placement.get());
}
BENCHMARK(BM_ClosedLoop_Replicated_Ring)->ArgsProduct({{4}, {1, 2, 3}});

// --- Live engine (DESIGN.md §10): real threads, wall-clock time. ------

// Certified latch-discipline workload on the wall-clock engine: the
// detection-free fast path (kBlock) against the dynamic baselines
// (kDetect's scan-on-block waiters, kWoundWait's timestamp aborts) at
// 1/2/4 worker threads. The guarded counters are lock_ops_per_sec and
// commits_per_sec (higher is better — tools/compare_bench.py knows the
// direction); the fast path must not lose them to the baselines.
//
// The system is 16 certified transactions over a 64 Ki-entity database:
// a production-sized lock table. That size is the detection baseline's
// structural cost — every wait-for snapshot reads the whole table under
// the latch (the same global-snapshot semantics as the simulator's
// DetectAndResolve, which the cross-validation suite depends on), so a
// scan costs Θ(table), ~0.5 ms here, while the certified fast path's
// per-op cost never depends on the table size. Parks (and hence scans)
// are driven by holders preempted mid-critical-section, so the margin
// grows with runnable threads: ~49% at 4 threads in the committed
// recording; at 2 threads the host's scheduler caps the park rate low
// enough that the series records a statistical tie. kWoundWait's cost
// is wasted work instead: its policy aborts (17% of rounds at 4
// threads) throw away partially-done rounds, which hits commits_per_sec
// hardest (a doomed attempt's grants still count as raw lock ops).
void RunLiveBench(benchmark::State& state, ConflictPolicy policy,
                  int64_t detect_interval_us) {
  SafeSystemOptions gopts;
  gopts.num_transactions = 16;
  gopts.num_sites = 64;
  gopts.entities_per_site = 1024;
  gopts.entities_per_txn = 6;
  gopts.seed = 2;
  auto sys = GenerateSafeSystem(gopts);
  const int threads = static_cast<int>(state.range(0));
  uint64_t seed = 1;
  uint64_t commits = 0, lock_ops = 0, aborts = 0, detector_runs = 0;
  for (auto _ : state) {
    LiveOptions opts;
    opts.policy = policy;
    opts.seed = seed++;
    opts.threads = threads;
    opts.rounds = 10;
    // Busy per-lock work keeps holders runnable: on a saturated machine
    // they get preempted mid-critical-section, waiters genuinely park,
    // and the policies' conflict machinery actually runs.
    opts.work_us = 30;
    opts.think_us = 20;
    opts.detect_interval_us = detect_interval_us;
    auto res = RunLive(*sys->system, opts);
    if (!res.ok() || !res->completed || res->deadlocked) {
      state.SkipWithError("live run failed");
      return;
    }
    commits += res->commits;
    lock_ops += res->lock_ops;
    aborts += res->aborts;
    detector_runs += res->detector_runs;
    benchmark::DoNotOptimize(res);
  }
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(commits), benchmark::Counter::kIsRate);
  state.counters["lock_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(lock_ops), benchmark::Counter::kIsRate);
  state.counters["live_abort_rate"] =
      (commits + aborts)
          ? static_cast<double>(aborts) / static_cast<double>(commits + aborts)
          : 0;
  state.counters["detector_runs"] = static_cast<double>(detector_runs);
}

void BM_Live_Certified_FastPath(benchmark::State& state) {
  RunLiveBench(state, ConflictPolicy::kBlock, 2000);
}
BENCHMARK(BM_Live_Certified_FastPath)
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The detection baseline scans the wait-for graph on every lock wait
// (the industrial scan-on-block scheme) — the certified fast path's
// whole pitch is that this work, pure overhead on a deadlock-free
// workload, never needs to run.
void BM_Live_Certified_Detect(benchmark::State& state) {
  RunLiveBench(state, ConflictPolicy::kDetect, 2000);
}
BENCHMARK(BM_Live_Certified_Detect)
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_Live_Certified_WoundWait(benchmark::State& state) {
  RunLiveBench(state, ConflictPolicy::kWoundWait, 2000);
}
BENCHMARK(BM_Live_Certified_WoundWait)
    ->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Live-vs-sim cross-validation as a recorded series: each iteration
// runs the same rounds-bounded certified session on the wall-clock
// engine and the discrete-event simulator and reports the absolute
// commit/abort disagreement, which must stay 0.000 in the committed
// baseline (both engines drive the identical TxnState machine).
void BM_Live_Vs_Sim_Agreement(benchmark::State& state) {
  SafeSystemOptions gopts;
  gopts.num_transactions = 8;
  gopts.entities_per_txn = 3;
  gopts.seed = 2;
  auto sys = GenerateSafeSystem(gopts);
  uint64_t seed = 1;
  double disagreement = 0;
  uint64_t commits = 0;
  for (auto _ : state) {
    LiveOptions lopts;
    lopts.policy = ConflictPolicy::kBlock;
    lopts.seed = seed;
    lopts.rounds = 25;
    auto live = RunLive(*sys->system, lopts);
    WorkloadOptions wopts;
    wopts.sim.policy = ConflictPolicy::kBlock;
    wopts.sim.seed = seed;
    wopts.duration = 0;
    wopts.rounds = 25;
    auto sim = RunWorkload(*sys->system, wopts);
    ++seed;
    if (!live.ok() || !sim.ok() || !live->completed) {
      state.SkipWithError("engine run failed");
      return;
    }
    disagreement +=
        std::fabs(static_cast<double>(live->commits) -
                  static_cast<double>(sim->commits)) +
        std::fabs(static_cast<double>(live->aborts) -
                  static_cast<double>(sim->aborts));
    commits += live->commits;
    benchmark::DoNotOptimize(live);
    benchmark::DoNotOptimize(sim);
  }
  state.counters["live_sim_disagreement"] = disagreement;
  state.counters["commits_per_sec"] = benchmark::Counter(
      static_cast<double>(commits), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Live_Vs_Sim_Agreement)->MeasureProcessCPUTime()->UseRealTime();

}  // namespace
}  // namespace wydb
