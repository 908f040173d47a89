// Spans recorded by the benchmark around its calls into each layer's
// public functions. Each thread records into its own SpanLog (no locking
// on the hot path); logs stay in memory and are written once, at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< A string literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span in the same log.
  uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void Begin(const char* name, uint64_t request) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    open_.push_back(static_cast<int>(spans_.size()));
    s.start_ns = NowNs();
    spans_.push_back(s);
  }
  void End() {
    if (!enabled_) return;
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// For tests: appends a finished span.
  void Add(const Span& s) { spans_.push_back(s); }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request) : log_(log) {
    log_->Begin(name, request);
  }
  ~ScopedSpan() { log_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Self time of every span of `log`: its duration minus the part of its
/// interval covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct LayerStat {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> durations_us;

  double MeanSelfUs() const {
    return calls ? static_cast<double>(self_ns) / 1e3 / static_cast<double>(calls) : 0.0;
  }
};

/// Per span name, over every log.
std::map<std::string, LayerStat> Summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span as Chrome trace-event JSON (one track per log).
bool WriteTrace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Checks the self-time arithmetic on hand-built spans; prints and returns
/// the number of failed checks.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
