// analyze-exact: exact search does almost all the work; canonicalization,
// the verdict cache and the lock table do none.
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "analysis/deadlock_checker.h"
#include "analysis/multi_analyzer.h"
#include "analysis/safety_checker.h"
#include "gen.h"
#include "io/text_format.h"
#include "proc.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 21;
constexpr int kSearchThreads = 4;

struct Verdict {
  bool parsed = false;
  bool deadlock_free = false;
  bool safe = false;
};

/// Reads the exact-check lines of `wydb_analyze --exact` output.
Verdict ParseAnalyzeOutput(const std::string& out) {
  Verdict v;
  bool df_seen = false, safe_seen = false;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  deadlock-free: ", 0) == 0) {
      df_seen = true;
      v.deadlock_free = line.compare(17, 4, "yes ") == 0;
    } else if (line.rfind("  safe: ", 0) == 0) {
      safe_seen = true;
      v.safe = line.compare(8, 3, "yes") == 0;
    }
  }
  v.parsed = df_seen && safe_seen;
  return v;
}

struct Batch {
  std::vector<GenSystem> systems;
  std::vector<std::string> paths;
};

/// Set-up: generate the batch and write one file per system.
bool SetUp(const RunConfig& cfg, Batch* batch) {
  batch->systems = AnalyzeBatch(cfg.seed, cfg.smoke);
  batch->paths.clear();
  for (size_t i = 0; i < batch->systems.size(); ++i) {
    batch->paths.push_back(cfg.work_dir + "/analyze-" + std::to_string(i) + ".wydb");
    // A new file, not a truncated one: ext4 starts writeback when a
    // truncated file is closed, which made the set-up time follow the
    // disk (about 8 ms against 2.5 ms for new files).
    unlink(batch->paths.back().c_str());
    if (!WriteFile(batch->paths.back(), Render(batch->systems[i]))) return false;
  }
  return true;
}

/// The answer system i must get: its family's, by construction.
void Expected(const Batch& batch, size_t i, const RunConfig& cfg, bool* df, bool* safe) {
  *df = batch.systems[i].deadlock_free;
  *safe = batch.systems[i].safe;
  if (cfg.inject_wrong_verdict && i == 0) *df = !*df;
}

/// Runs every system of the batch once through wydb_analyze, appending
/// system i's wall time to (*latencies)[i]; returns the pass's wall time.
double Pass(const RunConfig& cfg, const Batch& batch, std::vector<std::vector<double>>* latencies,
            long* peak_kb, RunResult* r) {
  const auto t0 = Clock::now();
  for (size_t i = 0; i < batch.paths.size(); ++i) {
    ChildRun run;
    ++r->attempted;
    const bool ok = RunChild({cfg.tools_dir + "/wydb_analyze", batch.paths[i], "--exact",
                              "--search-threads", std::to_string(kSearchThreads)},
                             &run);
    bool df = false, safe = false;
    Expected(batch, i, cfg, &df, &safe);
    const Verdict v = ParseAnalyzeOutput(run.output);
    const int want_exit = df && safe ? 0 : 1;
    if (!ok || !v.parsed || v.deadlock_free != df || v.safe != safe || run.exit_code != want_exit) {
      if (++r->failed <= 3) {
        r->notes.push_back("FAILED " + batch.systems[i].family + " " + batch.paths[i] +
                           ": exit " + std::to_string(run.exit_code));
      }
    }
    (*latencies)[i].push_back(run.wall_us);
    *peak_kb = std::max(*peak_kb, run.maxrss_kb);
  }
  return SecondsSince(t0);
}

RunResult Untraced(const RunConfig& cfg, Batch* batch_out, std::vector<double> setups,
                   RunResult r) {
  const Batch& batch = *batch_out;
  const size_t n = batch.paths.size();
  // The first pass warms the page cache and the CPUs and is not counted;
  // then whole passes run while another fits in the time left.
  std::vector<std::vector<double>> warmup(n), per_system(n);
  long peak_kb = 0;
  Pass(cfg, batch, &warmup, &peak_kb, &r);
  std::vector<double> passes;
  const auto t0 = Clock::now();
  do {
    // The set-up runs again before each pass, so the set-up samples
    // spread over the whole run (it rewrites the same files).
    const auto s0 = Clock::now();
    if (SetUp(cfg, batch_out)) {
      setups.push_back(SecondsSince(s0));
    } else {
      ++r.failed;
    }
    passes.push_back(Pass(cfg, batch, &per_system, &peak_kb, &r));
  } while (SecondsSince(t0) + Median(passes) <= cfg.seconds);
  r.Set("setup_s", QuartileBand(setups, false), "s");
  // On a shared host other tenants (and hypervisor steal) only ever slow
  // runs down, at times for seconds. The fastest quarter of each system's
  // runs estimates its undisturbed cost: it gives both the throughput
  // and the latency percentiles.
  std::vector<double> latencies;
  double cost_s = 0;
  std::string raw;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& runs = per_system[i];
    std::sort(runs.begin(), runs.end());
    const std::vector<double> faster(runs.begin(), runs.begin() + (runs.size() + 3) / 4);
    cost_s += Mean(faster) / 1e6;
    latencies.insert(latencies.end(), faster.begin(), faster.end());
    raw += batch.systems[i].family;
    for (double us : runs) {
      raw += ' ';
      raw += std::to_string(us);
    }
    raw += "\n";
  }
  WriteFile(cfg.work_dir + "/analyze-latencies.txt", raw);
  const size_t samples = latencies.size();
  r.Set("ops_per_s", static_cast<double>(n) / cost_s, "1/s");
  r.Set("latency_p50_us", Percentile(&latencies, 0.50), "us");
  r.Set("latency_tail_us", Percentile(&latencies, 0.95), "us");
  r.Set("peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB");
  char line[320];
  std::snprintf(line, sizeof(line),
                "analyze-exact: %zu systems x %zu timed passes (median pass %.3f s); latency over "
                "each system's fastest quarter = %zu samples (all runs: analyze-latencies.txt)%s; "
                "tail = p95; %zu set-ups",
                n, passes.size(), Median(passes), samples,
                TailSupported(samples, 0.95) ? "" : " (too few for p95: <10 beyond it)",
                setups.size());
  r.notes.push_back(line);
  return r;
}

struct Replay {
  uint64_t thm4_cycles = 0, thm4_calls = 0;
  uint64_t df_states = 0, df_calls = 0, safety_states = 0, safety_calls = 0;
  uint64_t store_bytes = 0, interned = 0;
};

/// The calls of `wydb_analyze --exact` on system i, in its order, in
/// process. Returns the wall time.
double ReplayOne(const RunConfig& cfg, const Batch& batch, size_t i, const std::string& text,
                 SpanLog* log, Replay* rep, RunResult* r) {
  const auto t0 = Clock::now();
  ScopedSpan request(log, "analyze.system", i);
  ++r->attempted;
  auto parsed = [&] {
    ScopedSpan s(log, "io.ParseWorkload", i);
    return wydb::ParseWorkload(text);
  }();
  if (!parsed.ok()) {
    ++r->failed;
    return SecondsSince(t0);
  }
  const wydb::TransactionSystem& sys = *parsed->owned.system;
  {
    ScopedSpan s(log, "analysis.CheckSystemSafeAndDeadlockFree", i);
    auto thm4 = wydb::CheckSystemSafeAndDeadlockFree(sys);
    if (thm4.ok()) {
      rep->thm4_cycles += thm4->cycles_checked;
      ++rep->thm4_calls;
    }
  }
  wydb::DeadlockCheckOptions dopts;
  dopts.engine = wydb::SearchEngine::kParallelSharded;
  dopts.search_threads = kSearchThreads;
  wydb::SafetyCheckOptions sopts;
  sopts.engine = wydb::SearchEngine::kParallelSharded;
  sopts.search_threads = kSearchThreads;
  bool df_ok = false, safe_ok = false, df = false, safe = false;
  {
    ScopedSpan s(log, "analysis.CheckDeadlockFreedom", i);
    auto rep_df = wydb::CheckDeadlockFreedom(sys, dopts);
    if ((df_ok = rep_df.ok())) {
      df = rep_df->deadlock_free;
      rep->df_states += rep_df->states_visited;
      ++rep->df_calls;
      rep->store_bytes += rep_df->store_bytes;
      rep->interned += rep_df->states_interned;
    }
  }
  {
    ScopedSpan s(log, "analysis.CheckSafety", i);
    auto rep_safe = wydb::CheckSafety(sys, sopts);
    if ((safe_ok = rep_safe.ok())) {
      safe = rep_safe->holds;
      rep->safety_states += rep_safe->states_visited;
      ++rep->safety_calls;
      rep->store_bytes += rep_safe->store_bytes;
      rep->interned += rep_safe->states_interned;
    }
  }
  bool want_df = false, want_safe = false;
  Expected(batch, i, cfg, &want_df, &want_safe);
  if (!df_ok || !safe_ok || df != want_df || safe != want_safe) ++r->failed;
  return SecondsSince(t0);
}

RunResult Traced(const RunConfig& cfg, const Batch& batch, RunResult r) {
  std::vector<std::string> texts;
  for (const GenSystem& sys : batch.systems) texts.push_back(Render(sys));
  // Each system runs untraced and traced back to back, alternating which
  // goes first, so neither side pays the cold start alone.
  SpanLog off(false), on(true);
  Replay plain, rep;
  double plain_s = 0, traced_s = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    if (i % 2 == 0) plain_s += ReplayOne(cfg, batch, i, texts[i], &off, &plain, &r);
    traced_s += ReplayOne(cfg, batch, i, texts[i], &on, &rep, &r);
    if (i % 2 == 1) plain_s += ReplayOne(cfg, batch, i, texts[i], &off, &plain, &r);
  }
  const auto layers = Summarize({&on});
  auto self_ns = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  auto mean_us = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.MeanSelfUs();
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.Set("io.parse_us", mean_us("io.ParseWorkload"), "us");
  r.Set("analysis.thm4_us", mean_us("analysis.CheckSystemSafeAndDeadlockFree"), "us");
  r.Set("analysis.thm4_cycles", ratio(static_cast<double>(rep.thm4_cycles), static_cast<double>(rep.thm4_calls)), "count");
  r.Set("analysis.deadlock_ms", mean_us("analysis.CheckDeadlockFreedom") / 1e3, "ms");
  r.Set("analysis.deadlock_states", ratio(static_cast<double>(rep.df_states), static_cast<double>(rep.df_calls)), "count");
  r.Set("analysis.deadlock_ns_per_state", ratio(self_ns("analysis.CheckDeadlockFreedom"), static_cast<double>(rep.df_states)), "ns");
  r.Set("analysis.safety_ms", mean_us("analysis.CheckSafety") / 1e3, "ms");
  r.Set("analysis.safety_states", ratio(static_cast<double>(rep.safety_states), static_cast<double>(rep.safety_calls)), "count");
  r.Set("analysis.safety_ns_per_state", ratio(self_ns("analysis.CheckSafety"), static_cast<double>(rep.safety_states)), "ns");
  r.Set("analysis.bytes_per_state", ratio(static_cast<double>(rep.store_bytes), static_cast<double>(rep.interned)), "B");
  r.Set("trace.overhead_frac", ratio(traced_s - plain_s, plain_s), "frac");
  char line[256];
  std::snprintf(line, sizeof(line),
                "trace: in-process replay %.3f s untraced, %.3f s traced (%zu systems)",
                plain_s, traced_s, texts.size());
  r.notes.push_back(line);
  const std::string path = cfg.work_dir + "/trace-analyze-exact.json";
  if (WriteTrace(path, {&on})) r.notes.push_back("trace: spans written to " + path);
  return r;
}

}  // namespace

RunResult RunAnalyzeExact(const RunConfig& cfg) {
  RunResult r;
  Batch batch;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    if (!SetUp(cfg, &batch)) {
      r.notes.push_back("cannot write the batch under " + cfg.work_dir);
      r.failed = r.attempted = 1;
      return r;
    }
    setups.push_back(SecondsSince(t0));
  }
  return cfg.trace ? Traced(cfg, batch, std::move(r))
                   : Untraced(cfg, &batch, std::move(setups), std::move(r));
}

}  // namespace perfbench
