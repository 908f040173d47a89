#include "runtime/live_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "common/status.h"
#include "runtime/striped_lock_manager.h"
#include "runtime/txn_runtime.h"

namespace wydb {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedUs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

/// MPL admission gate: at most `limit` transactions inside a round at
/// once (0 = unlimited). Stop- and deadline-aware so a stalled session
/// never wedges a worker here.
class Admission {
 public:
  Admission(int limit, const std::atomic<bool>* stop)
      : limit_(limit), stop_(stop) {}

  /// Blocks until a slot frees up. False if the session stopped or the
  /// caller's deadline check fails first (slot NOT taken).
  template <typename DeadlineFn>
  bool Enter(const DeadlineFn& past_deadline) {
    if (limit_ <= 0) return !stop_->load(std::memory_order_acquire);
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (stop_->load(std::memory_order_acquire) || past_deadline())
        return false;
      if (in_flight_ < limit_) {
        ++in_flight_;
        return true;
      }
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void Leave() {
    if (limit_ <= 0) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
    }
    cv_.notify_one();
  }

  void WakeAll() { cv_.notify_all(); }

 private:
  const int limit_;
  const std::atomic<bool>* stop_;
  int in_flight_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

class LiveEngine {
 public:
  LiveEngine(const TransactionSystem& sys, const LiveOptions& options)
      : sys_(sys),
        options_(options),
        num_txns_(sys.num_transactions()),
        mgr_(sys.db().num_entities(), num_txns_,
             StripedLockManager::Options{options.policy,
                                         options.detect_interval_us}),
        admission_(options.mpl, &stop_) {}

  LiveResult Run() {
    int threads = options_.threads;
    if (threads <= 0)
      threads = static_cast<int>(std::thread::hardware_concurrency());
    threads = std::clamp(threads, 1, num_txns_);

    // Timestamps for the RSL policies: the transaction index, exactly the
    // assignment SimEngine uses, so live and simulated conflict decisions
    // implement the same priority order.
    for (int t = 0; t < num_txns_; ++t) mgr_.SetTimestamp(t, t);

    start_ = Clock::now();
    has_deadline_ = options_.duration_ms > 0;
    deadline_ = start_ + std::chrono::milliseconds(options_.duration_ms);

    std::vector<std::vector<SimTime>> latencies(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back(
          [this, w, threads, &latencies] { Worker(w, threads, &latencies[w]); });
    }
    std::thread watchdog([this] { Watchdog(); });

    for (std::thread& t : workers) t.join();
    // Workers done: stop the session so the watchdog exits.
    Stop();
    watchdog.join();

    return Finalize(threads, latencies);
  }

 private:
  // One worker drives transactions w, w+threads, w+2*threads, ... each
  // through closed-loop rounds: arrival -> MPL admission -> attempt loop
  // (restart on abort) -> commit -> think.
  void Worker(int w, int threads, std::vector<SimTime>* latencies) {
    std::vector<TxnExecutor> executors;
    std::vector<int> rounds_done;
    for (int t = w; t < num_txns_; t += threads) {
      executors.emplace_back(t, &sys_.txn(t));
      rounds_done.push_back(0);
    }
    Rng rng(options_.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(w));

    bool any_active = true;
    while (any_active && !stop_.load(std::memory_order_acquire)) {
      any_active = false;
      for (size_t i = 0; i < executors.size(); ++i) {
        if (options_.rounds > 0 && rounds_done[i] >= options_.rounds) continue;
        if (PastDeadline()) return;
        if (stop_.load(std::memory_order_acquire)) return;
        any_active = true;

        const auto arrival = Clock::now();
        if (!admission_.Enter([this] { return PastDeadline(); })) return;
        const bool committed = RunRound(&executors[i], &rng);
        admission_.Leave();
        if (!committed) return;  // Stopped or gave up mid-round.

        ++rounds_done[i];
        latencies->push_back(static_cast<SimTime>(ElapsedUs(arrival)));
        commits_.fetch_add(1, std::memory_order_relaxed);
        if (options_.think_us > 0) {
          SleepStopAware(static_cast<int64_t>(
              1 + rng.NextBelow(static_cast<uint64_t>(2 * options_.think_us))));
        }
      }
      // Duration-bounded sessions keep cycling until the deadline.
      if (options_.rounds <= 0) any_active = !PastDeadline();
    }
  }

  /// One round of one transaction: walk the step DAG in lowest-ready
  /// order, restarting on aborts. True iff the round committed.
  bool RunRound(TxnExecutor* ex, Rng* rng) {
    const int txn = ex->index();
    ex->BeginRound();
    mgr_.BeginAttempt(txn);
    int restarts = 0;
    for (;;) {
      bool aborted = false;
      while (!ex->IsDone()) {
        const NodeId v = ex->ReadySteps().front();
        ex->MarkIssued(v);
        const Step& step = ex->txn().step(v);
        if (step.kind == StepKind::kLock) {
          switch (mgr_.Acquire(txn, step.entity, step.mode)) {
            case StripedLockManager::AcquireStatus::kGranted:
              ex->MarkCompleted(v);
              if (options_.hold_us > 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(options_.hold_us));
              }
              if (options_.work_us > 0) SpinFor(options_.work_us);
              break;
            case StripedLockManager::AcquireStatus::kAborted:
              aborted = true;
              break;
            case StripedLockManager::AcquireStatus::kStopped:
              mgr_.ReleaseAll(txn, ex->HeldEntities());
              return false;
          }
          if (aborted) break;
        } else {
          mgr_.Release(txn, step.entity);
          ex->MarkCompleted(v);
        }
      }
      if (!aborted) return true;

      aborts_.fetch_add(1, std::memory_order_relaxed);
      mgr_.ReleaseAll(txn, ex->HeldEntities());
      ex->Restart();
      if (++restarts > options_.max_restarts) {
        gave_up_.store(true, std::memory_order_release);
        Stop();
        return false;
      }
      if (options_.backoff_us > 0) {
        SleepStopAware(static_cast<int64_t>(
            options_.backoff_us +
            rng->NextBelow(static_cast<uint64_t>(options_.backoff_us))));
      }
      if (stop_.load(std::memory_order_acquire)) return false;
      mgr_.BeginAttempt(txn);
      ex->set_state(TxnState::kRunning);
    }
  }

  // Deadlock watchdog: under a blocking policy a wedged session makes no
  // progress at all — commits, aborts and lock ops all freeze while
  // waiters sit parked. Two consecutive frozen intervals with parked
  // waiters declare deadlock. This is the harness's safety net for
  // UNCERTIFIED systems; it reads three counters per interval and adds
  // zero work to any lock operation.
  void Watchdog() {
    uint64_t last_progress = ProgressCounter();
    int strikes = 0;
    std::unique_lock<std::mutex> lk(watchdog_mu_);
    while (!stop_.load(std::memory_order_acquire)) {
      watchdog_cv_.wait_for(
          lk, std::chrono::milliseconds(options_.watchdog_interval_ms));
      if (stop_.load(std::memory_order_acquire)) return;
      const uint64_t progress = ProgressCounter();
      if (progress != last_progress) {
        last_progress = progress;
        strikes = 0;
        continue;
      }
      if (mgr_.TotalWaiters() == 0) {
        strikes = 0;
        continue;
      }
      if (++strikes < 2) continue;
      // Frozen twice in a row with parked waiters: circular wait.
      for (const StripedLockManager::WaitEdge& e : mgr_.WaitForEdges()) {
        blocked_txns_.push_back(e.waiter);
      }
      std::sort(blocked_txns_.begin(), blocked_txns_.end());
      blocked_txns_.erase(
          std::unique(blocked_txns_.begin(), blocked_txns_.end()),
          blocked_txns_.end());
      deadlocked_.store(true, std::memory_order_release);
      Stop();
      return;
    }
  }

  uint64_t ProgressCounter() const {
    return commits_.load(std::memory_order_relaxed) +
           aborts_.load(std::memory_order_relaxed) + mgr_.lock_ops();
  }

  bool PastDeadline() const { return has_deadline_ && Clock::now() >= deadline_; }

  void Stop() {
    stop_.store(true, std::memory_order_seq_cst);
    mgr_.RequestStop();
    admission_.WakeAll();
    watchdog_cv_.notify_all();
  }

  /// Burns ~us of CPU while staying runnable (work_us): unlike a sleep
  /// the thread keeps its core and can be preempted holding locks.
  static void SpinFor(int64_t us) {
    const auto until = Clock::now() + std::chrono::microseconds(us);
    while (Clock::now() < until) {
    }
  }

  /// Sleeps ~us, in slices, bailing early once the session stops.
  void SleepStopAware(int64_t us) {
    constexpr int64_t kSliceUs = 20'000;
    while (us > 0 && !stop_.load(std::memory_order_acquire)) {
      const int64_t slice = std::min(us, kSliceUs);
      std::this_thread::sleep_for(std::chrono::microseconds(slice));
      us -= slice;
    }
  }

  LiveResult Finalize(int threads,
                      const std::vector<std::vector<SimTime>>& latencies) {
    LiveResult r;
    r.threads = threads;
    r.deadlocked = deadlocked_.load(std::memory_order_acquire);
    r.gave_up = gave_up_.load(std::memory_order_acquire);
    r.completed = !r.deadlocked && !r.gave_up;
    r.commits = commits_.load(std::memory_order_relaxed);
    r.aborts = aborts_.load(std::memory_order_relaxed);
    r.lock_ops = mgr_.lock_ops();
    r.shared_grants = mgr_.shared_grants();
    r.upgrades = mgr_.upgrades();
    r.upgrade_aborts = mgr_.upgrade_aborts();
    r.detector_runs = mgr_.detector_runs();
    r.blocked_txns = blocked_txns_;
    r.wall_seconds = static_cast<double>(ElapsedUs(start_)) * 1e-6;
    if (r.wall_seconds > 0) {
      r.commits_per_sec = static_cast<double>(r.commits) / r.wall_seconds;
      r.lock_ops_per_sec = static_cast<double>(r.lock_ops) / r.wall_seconds;
    }
    const uint64_t attempts = r.aborts + r.commits;
    r.abort_rate = attempts == 0 ? 0.0
                                 : static_cast<double>(r.aborts) /
                                       static_cast<double>(attempts);

    std::vector<SimTime> all;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    r.latency = SummarizeLatencies(std::move(all));
    return r;
  }

  const TransactionSystem& sys_;
  const LiveOptions options_;
  const int num_txns_;
  StripedLockManager mgr_;
  std::atomic<bool> stop_{false};
  Admission admission_;
  std::atomic<bool> deadlocked_{false};
  std::atomic<bool> gave_up_{false};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::vector<int> blocked_txns_;  ///< Written by the watchdog, pre-Stop.
  Clock::time_point start_;
  Clock::time_point deadline_;
  bool has_deadline_ = false;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
};

}  // namespace

Result<LiveResult> RunLive(const TransactionSystem& sys,
                           const LiveOptions& options) {
  if (sys.num_transactions() == 0) {
    return Status::InvalidArgument("live run needs a non-empty system");
  }
  if (options.rounds <= 0 && options.duration_ms <= 0) {
    return Status::InvalidArgument(
        "live run needs a bound: set rounds or duration_ms");
  }
  if (options.mpl < 0 || options.threads < 0) {
    return Status::InvalidArgument("mpl and threads must be non-negative");
  }
  LiveEngine engine(sys, options);
  return engine.Run();
}

}  // namespace wydb
