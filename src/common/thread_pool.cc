#include "common/thread_pool.h"

#include <chrono>
#include <cstdlib>

namespace wydb {

int ResolveThreadCount(int spec) {
  if (spec > 0) return spec;
  if (const char* env = std::getenv("WYDB_SEARCH_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(int threads) : threads_(ResolveThreadCount(threads)) {
  if (threads_ <= 1) return;
  deques_ = std::vector<Deque>(threads_);
  workers_.reserve(threads_ - 1);
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this, w);
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(
    size_t count, size_t chunk,
    const std::function<void(size_t, size_t, int)>& fn,
    size_t inline_below) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  const size_t num_chunks = (count + chunk - 1) / chunk;
  if (threads_ <= 1 || num_chunks == 1 || count < inline_below) {
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t begin = c * chunk;
      size_t end = begin + chunk < count ? begin + chunk : count;
      fn(begin, end, 0);
    }
    return;
  }
  ++dispatches_;

  // Deal the chunk indices out in contiguous runs, one per worker.
  const size_t per = num_chunks / threads_;
  const size_t extra = num_chunks % threads_;
  size_t next = 0;
  for (int w = 0; w < threads_; ++w) {
    size_t take = per + (static_cast<size_t>(w) < extra ? 1 : 0);
    deques_[w].head = next;
    deques_[w].tail = next + take;
    next += take;
  }

  {
    std::lock_guard<std::mutex> lock(m_);
    count_ = count;
    chunk_ = chunk;
    fn_ = &fn;
    working_ = threads_ - 1;
    unclaimed_.store(num_chunks, std::memory_order_relaxed);
    ++generation_;
  }
  start_cv_.notify_all();

  RunChunks(0);

  std::unique_lock<std::mutex> lock(m_);
  done_cv_.wait(lock, [&] { return working_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(m_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    RunChunks(worker);
    {
      std::lock_guard<std::mutex> lock(m_);
      if (--working_ == 0) done_cv_.notify_one();
    }
  }
}

TaskPool::TaskPool(int workers, size_t queue_capacity)
    : capacity_(queue_capacity) {
  if (workers < 1) workers = 1;
  workers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back(&TaskPool::WorkerLoop, this);
  }
}

TaskPool::~TaskPool() {
  Drain();
  for (std::thread& t : workers_) t.join();
}

bool TaskPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (draining_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void TaskPool::Drain() {
  {
    std::lock_guard<std::mutex> lock(m_);
    draining_ = true;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(m_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && active_.load(std::memory_order_relaxed) == 0;
  });
}

void TaskPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Draining and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    task();
    {
      std::lock_guard<std::mutex> lock(m_);
      // Decrement under the lock so Drain's predicate can't observe an
      // empty queue while this task still counts as active.
      active_.fetch_sub(1, std::memory_order_relaxed);
      if (queue_.empty() && active_.load(std::memory_order_relaxed) == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::RunChunks(int worker) {
  const std::function<void(size_t, size_t, int)>& fn = *fn_;
  const size_t count = count_;
  const size_t chunk = chunk_;
  int idle_spins = 0;
  while (true) {
    size_t c = static_cast<size_t>(-1);
    {
      Deque& own = deques_[worker];
      std::lock_guard<std::mutex> lock(own.m);
      if (own.head < own.tail) c = own.head++;
    }
    if (c == static_cast<size_t>(-1)) {
      // Steal the back half of the first victim with work. The victim's
      // and our own deque locks are never held together (two thieves
      // stealing from each other would otherwise deadlock ABBA): the
      // range is detached under the victim's lock and installed into our
      // empty deque afterwards — only the owner installs, so nothing
      // races the window in between.
      for (int off = 1; off < threads_ && c == static_cast<size_t>(-1);
           ++off) {
        int v = (worker + off) % threads_;
        size_t steal_begin = 0;
        size_t steal_end = 0;
        {
          Deque& victim = deques_[v];
          std::lock_guard<std::mutex> vlock(victim.m);
          size_t avail = victim.tail - victim.head;
          if (avail == 0) continue;
          steal_begin = victim.head + avail / 2;
          steal_end = victim.tail;
          victim.tail = steal_begin;
        }
        c = steal_begin;  // Run the first stolen chunk now...
        if (steal_begin + 1 < steal_end) {  // ...queue the rest as ours.
          Deque& own = deques_[worker];
          std::lock_guard<std::mutex> olock(own.m);
          own.head = steal_begin + 1;
          own.tail = steal_end;
        }
      }
      if (c == static_cast<size_t>(-1)) {
        // Nothing visible to steal — but chunks detached by a thief that
        // has not installed its remainder yet may still appear. Rescan
        // (with backoff) until every chunk has at least been claimed;
        // once the last chunk is executing no new work can surface.
        if (unclaimed_.load(std::memory_order_acquire) == 0) return;
        if (++idle_spins > 64) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
        continue;
      }
    }
    idle_spins = 0;
    unclaimed_.fetch_sub(1, std::memory_order_acq_rel);
    size_t begin = c * chunk;
    size_t end = begin + chunk < count ? begin + chunk : count;
    fn(begin, end, worker);
  }
}

}  // namespace wydb
