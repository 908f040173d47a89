// A small persistent thread pool with work-stealing chunk scheduling,
// built for the level-synchronous parallel searches (DESIGN.md §7).
//
// ParallelFor partitions [0, count) into fixed-size chunks. Chunk ranges
// are deterministic — chunk c always covers [c*chunk, min((c+1)*chunk,
// count)) — so callers can index side buffers by chunk and get results
// that are independent of which worker ran which chunk. Only the
// *assignment* of chunks to workers is dynamic: each worker owns a deque
// of chunk indices, pops from the front, and when empty steals the back
// half of a victim's deque. That keeps workers busy under skewed
// per-chunk cost without introducing any ordering the caller could
// observe.
//
// The calling thread participates as worker 0, so a pool constructed
// with `threads == 1` spawns nothing and runs chunks inline — the
// parallel engines degrade to plain serial loops with zero
// synchronization, which is what the bit-identical cross-validation
// tests run first. Ranges too small to repay waking the workers run
// inline the same way (kInlineBelow; DESIGN.md §7.3).
#ifndef WYDB_COMMON_THREAD_POOL_H_
#define WYDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wydb {

/// Worker threads for ParallelFor: `spec` > 0 uses exactly that many
/// workers; 0 resolves to the WYDB_SEARCH_THREADS environment variable
/// when set and positive, else std::thread::hardware_concurrency().
int ResolveThreadCount(int spec);

class ThreadPool {
 public:
  /// Spawns threads-1 workers (the caller is worker 0); `threads` is
  /// resolved via ResolveThreadCount.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Ranges of fewer items than this run inline on the caller (as
  /// worker 0): waking and joining the workers costs more than such a
  /// range saves (DESIGN.md §7.3 has the measurement).
  static constexpr size_t kInlineBelow = 128;

  int threads() const { return threads_; }

  /// Runs fn(begin, end, worker) for every chunk range of [0, count),
  /// where chunk c is exactly [c*chunk, min((c+1)*chunk, count)).
  /// Blocks until all chunks completed. `fn` runs concurrently on
  /// disjoint ranges; `worker` is in [0, threads()). A single chunk, a
  /// one-thread pool, or `count < inline_below` runs every chunk inline
  /// on the caller as worker 0; the chunk ranges are the same either
  /// way. Callers whose items are individually heavy (the store's
  /// per-shard commit) pass their own threshold.
  ///
  /// Not reentrant: one ParallelFor at a time per pool.
  void ParallelFor(size_t count, size_t chunk,
                   const std::function<void(size_t, size_t, int)>& fn,
                   size_t inline_below = kInlineBelow);

  /// ParallelFor calls handed to the workers so far (inline runs are not
  /// counted). Read it from the thread that calls ParallelFor.
  uint64_t dispatches() const { return dispatches_; }

 private:
  // Per-worker deque of chunk indices [head, tail). The owner pops from
  // head; thieves take the back half by lowering tail. A plain mutex per
  // deque is enough: claims happen once per chunk, and chunks are sized
  // to amortize the lock.
  struct Deque {
    std::mutex m;
    size_t head = 0;
    size_t tail = 0;
  };

  void WorkerLoop(int worker);
  void RunChunks(int worker);

  const int threads_;
  std::vector<std::thread> workers_;
  std::vector<Deque> deques_;

  std::mutex m_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int working_ = 0;
  bool stop_ = false;
  size_t count_ = 0;
  size_t chunk_ = 0;
  const std::function<void(size_t, size_t, int)>* fn_ = nullptr;
  /// Chunks not yet *claimed for execution* this generation. Keeps a
  /// worker whose steal scan raced another thief's detach-to-install
  /// window from retiring while unclaimed chunks exist — and lets idle
  /// workers exit as soon as the last chunk starts executing, instead of
  /// spinning through its execution.
  std::atomic<size_t> unclaimed_{0};
  uint64_t dispatches_ = 0;
};

/// Fixed workers draining a bounded queue of independent, long-running
/// tasks — the session executor of the analysis server (one task per
/// client connection), as opposed to ThreadPool's fork-join chunks.
///
/// The bounded queue is the backpressure mechanism: TrySubmit never
/// blocks, and a false return tells the caller to shed load (the server
/// answers "at capacity" and closes the connection) instead of queueing
/// unboundedly behind a slow session. Worker threads are spawned up
/// front, so a stalled task can never prevent others from being picked
/// up as long as a worker is free.
class TaskPool {
 public:
  /// `workers` >= 1 threads; up to `queue_capacity` tasks may wait
  /// beyond the ones currently executing.
  TaskPool(int workers, size_t queue_capacity);
  /// Drains: refuses new tasks, waits for queued and running ones.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// False when the queue is full or the pool is draining; the task is
  /// then NOT queued and the caller must handle the rejection.
  bool TrySubmit(std::function<void()> task);

  /// Stops accepting tasks and blocks until every queued and running
  /// task has finished. Idempotent.
  void Drain();

  /// Tasks currently executing (racy snapshot, for stats lines).
  int active() const { return active_.load(std::memory_order_relaxed); }

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::vector<std::thread> workers_;
  mutable std::mutex m_;
  std::condition_variable work_cv_;   ///< Queue non-empty or draining.
  std::condition_variable drain_cv_;  ///< Queue empty and nothing active.
  std::deque<std::function<void()>> queue_;
  std::atomic<int> active_{0};
  bool draining_ = false;
};

}  // namespace wydb

#endif  // WYDB_COMMON_THREAD_POOL_H_
