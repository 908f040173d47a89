// Wall-clock budget helpers shared by the deadlock and safety checkers.
// Header-only: PollDeadline is templated over the options/report structs,
// which the two checkers define independently but with matching field
// names (`deadline`, `deadline_polls`).
#ifndef WYDB_ANALYSIS_SEARCH_DEADLINE_H_
#define WYDB_ANALYSIS_SEARCH_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace wydb {

/// The ResourceExhausted a check returns once its deadline has passed;
/// `check` names it ("deadlock", "safety").
inline Status DeadlineError(const char* check) {
  return Status::ResourceExhausted(std::string(check) +
                                   " check deadline exceeded");
}

/// Polls the deadline, counting the wall-clock consult in the report;
/// true when a configured deadline has passed. No-deadline runs cost one
/// comparison and count nothing.
template <typename Options, typename Report>
bool PollDeadline(const Options& options, Report* report) {
  if (options.deadline == std::chrono::steady_clock::time_point{}) {
    return false;
  }
  ++report->deadline_polls;
  return std::chrono::steady_clock::now() >= options.deadline;
}

/// How often the serial engines poll the deadline, in popped states.
constexpr uint64_t kDeadlineStride = 2048;

/// In-level deadline for the level-synchronous engines: a per-level
/// check alone lets one oversized BFS level outrun the budget by that
/// level's whole expansion time, so workers also poll the clock once per
/// chunk and the first to see it pass stops everyone. Safe to poll from
/// concurrent workers.
class ChunkDeadline {
 public:
  explicit ChunkDeadline(std::chrono::steady_clock::time_point deadline)
      : deadline_(deadline),
        armed_(deadline != std::chrono::steady_clock::time_point{}) {}

  /// True once the deadline has passed; the chunk should do nothing.
  bool Expired() {
    if (!armed_) return false;
    if (hit_.load(std::memory_order_relaxed)) return true;
    polls_.fetch_add(1, std::memory_order_relaxed);
    if (std::chrono::steady_clock::now() >= deadline_) {
      hit_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Whether any worker saw the deadline pass.
  bool hit() const { return hit_.load(std::memory_order_relaxed); }

  /// Clock consults since the last call (added to deadline_polls).
  uint64_t TakePolls() {
    return polls_.exchange(0, std::memory_order_relaxed);
  }

 private:
  const std::chrono::steady_clock::time_point deadline_;
  const bool armed_;
  std::atomic<bool> hit_{false};
  std::atomic<uint64_t> polls_{0};
};

}  // namespace wydb

#endif  // WYDB_ANALYSIS_SEARCH_DEADLINE_H_
