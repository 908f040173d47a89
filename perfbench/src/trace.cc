#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int>(i));
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (int c : children[i]) {
      const int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_a = 0, run_b = -1;
    for (auto [a, b] : cover) {
      if (run_b < a) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerStat> Summarize(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerStat> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerStat& st = out[spans[i].name];
      ++st.calls;
      st.total_ns += spans[i].end_ns - spans[i].start_ns;
      st.self_ns += self[i];
      st.durations_us.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"id\":%zu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), i, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, int64_t got, int64_t want) {
    if (got != want) {
      std::printf("selftest FAIL %s: got %lld want %lld\n", what,
                  static_cast<long long>(got), static_cast<long long>(want));
      ++failures;
    }
  };
  // request [0,100] with children [10,30], [20,40] (overlapping: their
  // union is 30), [90,120] (clipped to 10) and a grandchild inside the
  // first child.
  SpanLog log(true);
  log.Add({"request", 0, 100, -1, 7});
  log.Add({"a", 10, 30, 0, 7});
  log.Add({"b", 20, 40, 0, 7});
  log.Add({"c", 90, 120, 0, 7});
  log.Add({"a.inner", 12, 18, 1, 7});
  log.Add({"other", 200, 260, -1, 8});
  const std::vector<int64_t> self = SelfTimesNs(log.spans());
  expect("request self", self[0], 100 - 30 - 10);
  expect("child self minus grandchild", self[1], 20 - 6);
  expect("overlapping sibling", self[2], 20);
  expect("overrunning child", self[3], 30);
  expect("leaf", self[4], 6);
  expect("second root", self[5], 60);
  const auto sum = Summarize({&log});
  expect("summary calls", static_cast<int64_t>(sum.at("a").calls), 1);
  expect("summary self", sum.at("request").self_ns, 60);
  // Self times of one request tile its duration when children do not
  // overlap or overrun: 100 = 60 + 14 + 6 + 20 for the non-overlapping
  // subset {request, a, a.inner, and a sibling [40,60]}.
  SpanLog tiled(true);
  tiled.Add({"request", 0, 100, -1, 1});
  tiled.Add({"a", 10, 30, 0, 1});
  tiled.Add({"a.inner", 12, 18, 1, 1});
  tiled.Add({"b", 40, 60, 0, 1});
  int64_t total = 0;
  for (int64_t s : SelfTimesNs(tiled.spans())) total += s;
  expect("self times tile the request", total, 100);
  // QuartileBand: the mean of ranks [n/8, 3n/8) from the best end.
  std::vector<double> ramp;
  for (int i = 1; i <= 16; ++i) ramp.push_back(i);
  expect("band, lower is better", std::llround(QuartileBand(ramp, false) * 10), 45);
  expect("band, higher is better", std::llround(QuartileBand(ramp, true) * 10), 125);
  // One lucky part and ten of sixteen slowed parts leave it unmoved.
  std::vector<double> parts(5, 10.0);
  parts.push_back(0.1);
  parts.insert(parts.end(), 10, 100.0);
  expect("band ignores a lucky part and 5/8 slowed parts", std::llround(QuartileBand(parts, false)), 10);
  expect("band of one part", std::llround(QuartileBand({7.0}, false)), 7);
  std::printf("selftest: span arithmetic %s\n", failures == 0 ? "ok" : "FAILED");
  return failures;
}

}  // namespace perfbench
