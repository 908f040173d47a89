// live-certified: only the lock table and the executor work here. The
// certified fast path (kBlock, gated on Theorem 4) runs beside kDetect,
// which uses the same table through wait-for scans.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/multi_analyzer.h"
#include "gen.h"
#include "io/text_format.h"
#include "runtime/live_engine.h"
#include "runtime/striped_lock_manager.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
// Two threads leave the other CPUs to the system: with one thread per CPU
// the round-to-round p50 swung by 2x on a quiet host (preempted latch
// holders), which measures the scheduler rather than the lock table.
constexpr int kThreads = 2;
constexpr double kRoundS = 0.5;
// After every kRoundsPerSetUp timed rounds the set-up runs once more, so
// the set-up samples spread over the whole run.
constexpr int kRoundsPerSetUp = 3;
constexpr int64_t kWorkUs = 30;
constexpr int64_t kThinkUs = 20;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct Setup {
  std::unique_ptr<wydb::WorkloadSpec> spec;
  /// Theorem 4's answer: certified, refuted, or undecided within its
  /// cycle budget (ResourceExhausted).
  std::string thm4 = "error";
};

/// Set-up: generate the system, parse it, and certify it with Theorem 4,
/// the gate of the detection-free fast path.
bool SetUp(const RunConfig& cfg, SpanLog* log, Setup* out) {
  const std::string text = Render(LiveSystem(cfg.seed, cfg.smoke));
  auto parsed = [&] {
    ScopedSpan s(log, "io.ParseWorkload", 0);
    return wydb::ParseWorkload(text);
  }();
  if (!parsed.ok()) return false;
  out->spec = std::make_unique<wydb::WorkloadSpec>(std::move(*parsed));
  ScopedSpan s(log, "analysis.CheckSystemSafeAndDeadlockFree", 0);
  auto thm4 = wydb::CheckSystemSafeAndDeadlockFree(*out->spec->owned.system);
  if (thm4.ok()) {
    out->thm4 = thm4->safe_and_deadlock_free ? "certified" : "refuted";
  } else if (thm4.status().code() == wydb::StatusCode::kResourceExhausted) {
    out->thm4 = "undecided (" + thm4.status().message() + ")";
  }
  return true;
}

wydb::Result<wydb::LiveResult> Round(const wydb::TransactionSystem& sys,
                                     wydb::ConflictPolicy policy, uint64_t seed, double seconds) {
  wydb::LiveOptions opts;
  opts.policy = policy;
  opts.seed = seed;
  opts.threads = kThreads;
  opts.duration_ms = static_cast<int64_t>(seconds * 1000);
  opts.work_us = kWorkUs;
  opts.think_us = kThinkUs;
  opts.detect_interval_us = 2000;
  return wydb::RunLive(sys, opts);
}

/// Checks one round: it ran to its bound with no deadlock, and the fast
/// path aborted nothing.
bool RoundOk(const wydb::Result<wydb::LiveResult>& res, bool fast) {
  return res.ok() && res->completed && !res->deadlocked && !res->gave_up &&
         (!fast || res->aborts == 0);
}

void Spin(int64_t us) {
  const auto until = Clock::now() + std::chrono::microseconds(us);
  while (Clock::now() < until) {
  }
}

/// Replays the system's transactions from kThreads threads straight
/// against StripedLockManager::Acquire/Release (transaction t on thread
/// t mod kThreads), with the same per-lock work and think time.
double ReplayLocks(const wydb::TransactionSystem& sys, double seconds, uint64_t seed,
                   std::vector<std::unique_ptr<SpanLog>>* logs, uint64_t* commits) {
  wydb::StripedLockManager::Options opts;
  opts.policy = wydb::ConflictPolicy::kBlock;
  wydb::StripedLockManager mgr(sys.db().num_entities(), sys.num_transactions(), opts);
  std::vector<std::vector<wydb::NodeId>> orders;
  for (int t = 0; t < sys.num_transactions(); ++t) orders.push_back(sys.txn(t).SomeLinearExtension());
  std::vector<uint64_t> done(kThreads, 0);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(SubSeed(seed, 50 + c));
      SpanLog* log = (*logs)[c].get();
      while (Clock::now() < deadline) {
        for (int t = c; t < sys.num_transactions(); t += kThreads) {
          mgr.BeginAttempt(t);
          for (wydb::NodeId v : orders[t]) {
            const wydb::Step& step = sys.txn(t).step(v);
            if (step.kind == wydb::StepKind::kLock) {
              {
                ScopedSpan s(log, "runtime.Acquire", done[c]);
                mgr.Acquire(t, step.entity, step.mode);  // kBlock always grants.
              }
              Spin(kWorkUs);
            } else {
              ScopedSpan s(log, "runtime.Release", done[c]);
              mgr.Release(t, step.entity);
            }
          }
          ++done[c];
          std::this_thread::sleep_for(std::chrono::microseconds(1 + rng.Below(2 * kThinkUs)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *commits = 0;
  for (uint64_t d : done) *commits += d;
  return SecondsSince(t0);
}

void Traced(const RunConfig& cfg, const Setup& setup, const SpanLog& setup_log, RunResult* r) {
  const wydb::TransactionSystem& sys = *setup.spec->owned.system;
  const double phase = cfg.seconds / 4;
  const double cpu0 = CpuSeconds();
  auto fast = Round(sys, wydb::ConflictPolicy::kBlock, SubSeed(cfg.seed, 90), phase);
  const double cpu_fast = CpuSeconds() - cpu0;
  auto detect = Round(sys, wydb::ConflictPolicy::kDetect, SubSeed(cfg.seed, 91), phase);
  r->attempted += 2;
  r->failed += !RoundOk(fast, true) + !RoundOk(detect, false);
  if (!fast.ok() || !detect.ok()) return;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r->Set("runtime.detect_commits_per_s", detect->commits_per_sec, "1/s");
  r->Set("runtime.lock_ops_per_commit", ratio(static_cast<double>(fast->lock_ops), static_cast<double>(fast->commits)), "count");
  r->Set("runtime.detector_runs", static_cast<double>(detect->detector_runs), "count");
  r->Set("runtime.aborts", static_cast<double>(detect->aborts), "count");
  r->Set("runtime.cpu_busy_frac", ratio(cpu_fast, fast->wall_seconds * Cpus()), "frac");

  std::vector<std::unique_ptr<SpanLog>> off, on;
  for (int c = 0; c < kThreads; ++c) {
    off.push_back(std::make_unique<SpanLog>(false));
    on.push_back(std::make_unique<SpanLog>(true));
  }
  // Untraced, traced, traced, untraced: the order cancels a steady drift.
  uint64_t plain_commits = 0, traced_commits = 0;
  double plain_s = 0, traced_s = 0;
  for (int leg = 0; leg < 4; ++leg) {
    const bool traced = leg == 1 || leg == 2;
    uint64_t commits = 0;
    const double s = ReplayLocks(sys, phase / 4, SubSeed(cfg.seed, 60 + leg), traced ? &on : &off, &commits);
    (traced ? traced_s : plain_s) += s;
    (traced ? traced_commits : plain_commits) += commits;
  }
  std::vector<const SpanLog*> logs;
  for (const auto& l : on) logs.push_back(l.get());
  auto layers = Summarize(logs);
  std::vector<double>& waits = layers["runtime.Acquire"].durations_us;
  r->Set("runtime.acquire_wait_us_p50", Percentile(&waits, 0.50), "us");
  r->Set("runtime.acquire_wait_us_p99", Percentile(&waits, 0.99), "us");
  const double plain_rate = ratio(static_cast<double>(plain_commits), plain_s);
  const double traced_rate = ratio(static_cast<double>(traced_commits), traced_s);
  r->Set("trace.overhead_frac", ratio(plain_rate - traced_rate, plain_rate), "frac");

  const auto setup_layers = Summarize({&setup_log});
  r->Set("io.parse_us", setup_layers.at("io.ParseWorkload").MeanSelfUs(), "us");
  r->Set("analysis.thm4_us", setup_layers.at("analysis.CheckSystemSafeAndDeadlockFree").MeanSelfUs(), "us");
  char line[256];
  std::snprintf(line, sizeof(line),
                "trace: lock-table replay %.0f commits/s untraced, %.0f commits/s traced; "
                "%zu acquires", plain_rate, traced_rate, waits.size());
  r->notes.push_back(line);
  logs.push_back(&setup_log);
  const std::string path = cfg.work_dir + "/trace-live-certified.json";
  if (WriteTrace(path, logs)) r->notes.push_back("trace: spans written to " + path);
}

}  // namespace

RunResult RunLiveCertified(const RunConfig& cfg) {
  RunResult r;
  Setup setup;
  SpanLog setup_log(cfg.trace);
  std::vector<double> setups;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    if (!SetUp(cfg, &setup_log, &setup)) return false;
    setups.push_back(SecondsSince(t0));
    return true;
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) {
      r.failed = r.attempted = 1;
      r.notes.push_back("the live system did not parse");
      return r;
    }
  }
  // The system is latch-disciplined, so certified by construction. On 16
  // transactions the interaction graph is K16, whose simple cycles exceed
  // Theorem 4's enumeration budget: an undecided answer does not
  // contradict the construction, a refutation (or any other error) does.
  ++r.attempted;
  const bool undecided = setup.thm4.rfind("undecided", 0) == 0;
  const bool contradicts = !(setup.thm4 == "certified" || undecided);
  if (contradicts != cfg.inject_wrong_verdict) ++r.failed;
  r.notes.push_back("live-certified: Theorem 4 on the live system: " + setup.thm4 +
                    "; latch discipline certifies it by construction");
  if (cfg.trace) {
    Traced(cfg, setup, setup_log, &r);
    return r;
  }

  // Fast-path rounds of kRoundS for the whole run, after one untimed
  // round that warms the lock table. kDetect runs in the traced run.
  const int rounds = std::max(1, static_cast<int>(cfg.seconds / kRoundS));
  const double round_s = std::min(kRoundS, cfg.seconds);
  r.attempted += 1;
  r.failed += !RoundOk(Round(*setup.spec->owned.system, wydb::ConflictPolicy::kBlock,
                             SubSeed(cfg.seed, 99), round_s), true);
  std::vector<double> rates, p50, p99;
  double commits = 0, wall = 0;
  for (int i = 0; i < rounds; ++i) {
    if (i > 0 && i % kRoundsPerSetUp == 0 && !set_up()) ++r.failed;
    auto fast = Round(*setup.spec->owned.system, wydb::ConflictPolicy::kBlock,
                      SubSeed(cfg.seed, i), round_s);
    ++r.attempted;
    r.failed += !RoundOk(fast, true);
    if (!fast.ok()) continue;
    rates.push_back(fast->commits_per_sec);
    p50.push_back(static_cast<double>(fast->latency.p50));
    p99.push_back(static_cast<double>(fast->latency.p99));
    commits += static_cast<double>(fast->commits);
    wall += fast->wall_seconds;
  }
  r.Set("setup_s", QuartileBand(setups, false), "s");
  if (wall <= 0) return r;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string per_round = "live-certified: rounds (commits/s p50 p99):";
  for (size_t i = 0; i < rates.size(); ++i) {
    char round[64];
    std::snprintf(round, sizeof(round), " %.0f/%.0f/%.0f", rates[i], p50[i], p99[i]);
    per_round += round;
  }
  r.notes.push_back(per_round);
  r.Set("ops_per_s", QuartileBand(rates, true), "1/s");
  r.Set("latency_p50_us", QuartileBand(p50, false), "us");
  r.Set("latency_tail_us", QuartileBand(p99, false), "us");
  r.Set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  char line[256];
  std::snprintf(line, sizeof(line),
                "live-certified: %d threads, work_us=%lld think_us=%lld; fast path %.0f commits/s "
                "over %zu rounds of %.1f s; %zu set-ups; tail = p99",
                kThreads, static_cast<long long>(kWorkUs), static_cast<long long>(kThinkUs),
                commits / wall, rates.size(), round_s, setups.size());
  r.notes.push_back(line);
  return r;
}

}  // namespace perfbench
