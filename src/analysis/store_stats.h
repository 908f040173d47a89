// --stats memory counters and store-option validation shared by the
// deadlock and safety checkers (DESIGN.md §9). Header-only: the helpers
// are templated over the report/options structs, which the two checkers
// define independently but with matching field names.
#ifndef WYDB_ANALYSIS_STORE_STATS_H_
#define WYDB_ANALYSIS_STORE_STATS_H_

#include "analysis/search_engine.h"
#include "common/status.h"
#include "core/state_store.h"

namespace wydb {

// Fills the --stats memory counters of `report` from a serial engine's
// store; LevelSearch::FillReport fills them for the sharded engines.
template <typename Report>
void FillMemoryStats(const StateStore& store, Report* report) {
  const StoreMemoryStats m = store.MemoryStats();
  report->store_bytes = m.total();
  report->arena_bytes = m.arena_bytes;
  report->probe_table_bytes = m.probe_bytes;
}

// The serial engines support only the default store configuration; the
// memory modes live on the sharded substrate (DESIGN.md §9).
template <typename Options>
Status ValidateStoreOptions(const Options& options, SearchEngine engine) {
  const StoreOptions& so = options.store;
  const bool nondefault =
      so.encoding != StoreOptions::KeyEncoding::kPlain ||
      so.mem_budget_mb > 0;
  if (nondefault && (engine == SearchEngine::kNaiveReference ||
                     engine == SearchEngine::kIncremental)) {
    return Status::InvalidArgument(
        "store encoding / memory budget options require the parallel or "
        "reduced engine");
  }
  if (so.encoding == StoreOptions::KeyEncoding::kCompact &&
      engine == SearchEngine::kReduced) {
    return Status::InvalidArgument(
        "hash compaction requires the parallel engine: reduced witness "
        "replay reads ancestor keys, which compaction discards");
  }
  return Status::OK();
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_STORE_STATS_H_
