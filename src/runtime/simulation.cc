#include "runtime/simulation.h"

#include <algorithm>

#include "runtime/seed_sweep.h"
#include "runtime/sim_engine.h"

namespace wydb {
namespace {

void Accumulate(AggregateResult* agg, const SimResult& res,
                double* makespan_sum) {
  ++agg->runs;
  if (res.all_committed) {
    ++agg->committed_runs;
    if (!res.history_serializable) agg->all_histories_serializable = false;
  }
  if (res.deadlocked) ++agg->deadlocked_runs;
  if (res.budget_exhausted) ++agg->budget_exhausted_runs;
  if (res.gave_up) ++agg->gave_up_runs;
  agg->total_aborts += res.aborts;
  agg->total_messages += res.messages;
  agg->total_shared_grants += res.shared_grants;
  agg->total_upgrades += res.upgrades;
  agg->total_upgrade_aborts += res.upgrade_aborts;
  *makespan_sum += static_cast<double>(res.makespan);
}

}  // namespace

LatencyStats SummarizeLatencies(std::vector<SimTime> samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double p) {
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
  };
  stats.p50 = pct(0.50);
  stats.p95 = pct(0.95);
  stats.p99 = pct(0.99);
  stats.max = samples.back();
  double sum = 0;
  for (SimTime l : samples) sum += static_cast<double>(l);
  stats.mean = sum / static_cast<double>(samples.size());
  stats.samples = samples.size();
  return stats;
}

Result<SimResult> RunSimulation(const TransactionSystem& sys,
                                const SimOptions& options) {
  SimEngine engine(sys, options, SimEngine::DriverConfig{});
  return engine.Run();
}

Result<AggregateResult> RunMany(const TransactionSystem& sys,
                                const SimOptions& base, int runs,
                                int threads) {
  auto results =
      internal::SeedSweep<Result<SimResult>>(runs, threads, [&](int r) {
        SimOptions opts = base;
        opts.seed = base.seed + static_cast<uint64_t>(r);
        return RunSimulation(sys, opts);
      });

  AggregateResult agg;
  double makespan_sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    Result<SimResult>& res = *results[r];
    if (!res.ok()) return res.status();
    Accumulate(&agg, *res, &makespan_sum);
  }
  if (agg.runs > 0) agg.avg_makespan = makespan_sum / agg.runs;
  return agg;
}

}  // namespace wydb
