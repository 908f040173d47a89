// The one level-synchronous BFS behind the kParallelSharded and kReduced
// engines of both exact checkers (DESIGN.md §7, §8). Both exact
// questions ask one predicate per reachable state, so LevelSearch owns
// the search around it — pool, ShardedStateStore, FrontierStager, root,
// the level loop with its deadline polls, `max_states` arithmetic, spill
// windows and commit, and the report counters — and a checker supplies
// a visitor of one of two shapes:
//
//   * testing (`kFlagsStates = false`; deadlock) decides each state as
//     the level expands, concurrently; a witness is not expanded and
//     the search stops at the level's least witness id:
//       bool IsWitness(const uint64_t* key,
//                      const std::vector<GlobalNode>& moves) const;
//   * flagging (`kFlagsStates = true`; safety) completes each child
//     after StateSpace::ApplyInto, concurrently (its extra key words and
//     flag), then resolves each level's flagged states serially in id
//     order before the level expands (true = stop there, false = prune;
//     flagged states are never expanded):
//       void FinishChild(int worker, const uint64_t* parent_key,
//                        GlobalNode move, uint64_t* key, uint64_t* aux);
//       bool Flagged(const uint64_t* aux) const;
//       Result<bool> Resolve(const uint64_t* key);
//
// A FIFO BFS pops states in id order and ids are assigned in discovery
// order, so the search stops exactly where the serial pop loop would:
// states_visited, witnesses and ids are bit-identical to the serial
// engines for every thread, shard and chunk count. Reduction is a driver
// parameter (SearchEngine::kReduced): persistent moves from
// ExpandReducedInto, and every staged child canonicalized by orbit.
#ifndef WYDB_ANALYSIS_LEVEL_SEARCH_H_
#define WYDB_ANALYSIS_LEVEL_SEARCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/search_deadline.h"
#include "analysis/search_engine.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/frontier_spill.h"
#include "core/state_space.h"
#include "core/state_store.h"
#include "core/symmetry.h"

namespace wydb {

class LevelSearch {
 public:
  static constexpr uint32_t kNoId = ShardedStateStore::kNoId;

  /// `options` is either checker's options struct (the fields read have
  /// the same names in both); `check` names the errors ("deadlock",
  /// "safety"). States are `key_words` + `aux_words` words, the
  /// StateSpace layout optionally extended at the end; `arc_row_words`
  /// > 0 tells the orbit canonicalizer the key ends in the Lemma 1 arc
  /// matrix. `dedupe` = false is the memoization ablation.
  template <typename Options>
  LevelSearch(const StateSpace& space, const Options& options,
              const char* check, int key_words, int aux_words,
              int arc_row_words = 0, bool dedupe = true)
      : space_(space),
        check_(check),
        limits_{options.max_states, options.deadline},
        reduced_(options.engine == SearchEngine::kReduced),
        dedupe_(dedupe),
        pool_(options.pool != nullptr
                  ? *options.pool
                  : owned_pool_.emplace(options.search_threads)),
        store_(key_words, aux_words, /*num_shards=*/4 * pool_.threads(),
               options.store),
        stager_(&store_, &pool_, options.store.mem_budget_mb << 20,
                kChunkStates),
        chunk_deadline_(options.deadline) {
    if (reduced_) {
      orbits_.emplace(space.system());
      canon_.emplace(&space, &*orbits_, arc_row_words);
      if (orbits_->HasNontrivialOrbit()) store_.set_canonicalizer(&*canon_);
    }
    workers_.resize(pool_.threads());
    for (Worker& w : workers_) {
      w.key.resize(key_words);
      w.aux.resize(aux_words);
      w.moves.reserve(64);
    }
    // The empty state is its own canonical form.
    std::vector<uint64_t> key(key_words), aux(aux_words);
    space.InitRoot(key.data(), aux.data());
    const uint32_t root = store_.InternRoot(key.data());
    std::memcpy(store_.MutableAuxOf(root), aux.data(),
                aux_words * sizeof(uint64_t));
  }

  LevelSearch(const LevelSearch&) = delete;
  LevelSearch& operator=(const LevelSearch&) = delete;

  /// Runs the search: the id it stopped at (a witness), or kNoId once
  /// every reachable state was visited without one. Fails with
  /// ResourceExhausted past `max_states` or the deadline.
  template <typename Visitor>
  Result<uint32_t> Run(Visitor& visitor);

  /// Fills the report fields the driver owns: states_visited (the stop
  /// id + 1, or every state), states_interned, sleep_set_pruned,
  /// deadline_polls, parallel_levels and the memory counters.
  template <typename Report>
  void FillReport(uint32_t stop, Report* report) const {
    report->states_visited =
        stop == kNoId ? store_.size() : static_cast<uint64_t>(stop) + 1;
    report->states_interned = store_.size();
    for (const Worker& w : workers_) report->sleep_set_pruned += w.pruned;
    report->deadline_polls = counters_.deadline_polls;
    report->parallel_levels = counters_.parallel_levels;
    const StoreMemoryStats m = store_.MemoryStats();
    report->store_bytes = m.total();
    report->arena_bytes = m.arena_bytes;
    report->probe_table_bytes = m.probe_bytes;
    report->spilled_levels = stager_.spilled_levels();
    if (store_.options().encoding == StoreOptions::KeyEncoding::kCompact) {
      // Fingerprint identity can merge distinct states, so a positive
      // verdict is not a certificate; the expected number of colliding
      // pairs among n 64-bit fingerprints is <= n(n-1)/2^65.
      report->exact = false;
      const double n = static_cast<double>(store_.size());
      report->fingerprint_collision_bound = std::ldexp(n * (n - 1.0), -65);
    }
  }

  int threads() const { return pool_.threads(); }
  const ShardedStateStore& store() const { return store_; }
  bool reduced() const { return reduced_; }
  /// kReduced only: the orbit canonicalizer witness replay composes,
  /// and whether it is installed (some orbit has two members).
  const OrbitCanonicalizer& canon() const { return *canon_; }
  bool canonical() const { return orbits_->HasNontrivialOrbit(); }

 private:
  static constexpr size_t kChunkStates = 64;

  struct Limits {
    uint64_t max_states;
    std::chrono::steady_clock::time_point deadline;
  };
  struct Counters {
    uint64_t deadline_polls = 0;
    uint64_t parallel_levels = 0;
  };
  /// Per-worker scratch of the expansion.
  struct Worker {
    std::vector<uint64_t> key;
    std::vector<uint64_t> aux;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint32_t witness = kNoId;  ///< Least witness id seen this level.
    uint64_t pruned = 0;
  };

  /// The serial pop loop fails at the first pop of an id with id + 1 >
  /// max_states.
  bool OverBudget(uint64_t id) const {
    return limits_.max_states != 0 && id + 1 > limits_.max_states;
  }
  Status Exhausted() const {
    return Status::ResourceExhausted(
        StrFormat("%s check exceeded %llu states", check_,
                  static_cast<unsigned long long>(limits_.max_states)));
  }

  /// Expands [level_begin, level_end) in spill windows; returns the
  /// least witness id (kNoId without one). With `budget_ends_here` the
  /// children are unobservable and not staged.
  template <typename Visitor>
  Result<uint32_t> ExpandLevel(Visitor& visitor, uint32_t level_begin,
                               uint32_t level_end, bool budget_ends_here);

  const StateSpace& space_;
  const char* const check_;
  const Limits limits_;
  const bool reduced_;
  const bool dedupe_;
  std::optional<ThreadPool> owned_pool_;
  ThreadPool& pool_;
  ShardedStateStore store_;
  FrontierStager stager_;
  ChunkDeadline chunk_deadline_;
  std::optional<TransactionOrbits> orbits_;
  std::optional<OrbitCanonicalizer> canon_;
  std::vector<Worker> workers_;
  ShardedStateStore::KeyDecodeCache decode_;  ///< The serial scan's cache.
  Counters counters_;
};

template <typename Visitor>
Result<uint32_t> LevelSearch::Run(Visitor& visitor) {
  uint32_t level_begin = 0;
  while (level_begin < store_.size()) {
    if (PollDeadline(limits_, &counters_)) return DeadlineError(check_);
    const uint32_t level_end = static_cast<uint32_t>(store_.size());
    // Levels whose expansion or commit reached the pool (--stats).
    const uint64_t level_dispatches = pool_.dispatches();
    auto count_level = [&] {
      if (pool_.dispatches() != level_dispatches) ++counters_.parallel_levels;
    };
    // Popping this whole level already exceeds the budget, so the serial
    // loop can only end inside it — at a witness whose id fits the
    // budget, or with ResourceExhausted.
    const bool budget_ends_here = OverBudget(level_end - 1);

    if constexpr (Visitor::kFlagsStates) {
      // Flagged states in id order, the budget check preceding each, as
      // the serial pop loop meets them.
      for (uint32_t id = level_begin; id < level_end; ++id) {
        if ((id - level_begin) % kDeadlineStride == kDeadlineStride - 1 &&
            PollDeadline(limits_, &counters_)) {
          return DeadlineError(check_);
        }
        if (!visitor.Flagged(store_.AuxOf(id))) continue;
        if (OverBudget(id)) return Exhausted();
        WYDB_ASSIGN_OR_RETURN(const bool stop,
                              visitor.Resolve(store_.KeyView(id, &decode_)));
        if (stop) return id;
      }
      // Expansion finds no witness, so nothing in this level can.
      if (budget_ends_here) return Exhausted();
    }

    WYDB_ASSIGN_OR_RETURN(
        const uint32_t witness,
        ExpandLevel(visitor, level_begin, level_end, budget_ends_here));
    if (witness != kNoId) {
      if (OverBudget(witness)) return Exhausted();
      count_level();
      return witness;
    }
    if (budget_ends_here) return Exhausted();
    size_t fresh = 0;
    if (!stager_.Commit(dedupe_, &fresh)) {
      return Status::Internal("frontier spill read-back failed");
    }
    count_level();
    // Hash compaction keeps only the frontier's key/aux words resident;
    // everything below this level has been fully expanded.
    store_.RetireExpanded();
    level_begin = level_end;
  }
  return kNoId;
}

template <typename Visitor>
Result<uint32_t> LevelSearch::ExpandLevel(Visitor& visitor,
                                          uint32_t level_begin,
                                          uint32_t level_end,
                                          bool budget_ends_here) {
  for (Worker& w : workers_) w.witness = kNoId;
  // The level is staged in bounded windows; between windows the stager
  // may spill the staged chunks to disk (a no-op without a memory
  // budget, where one window spans the level). Ids ascend across
  // windows, so the first window holding a witness holds the level's
  // least one and later windows need not run.
  uint32_t witness = kNoId;
  for (uint32_t done = level_begin; done < level_end && witness == kNoId;) {
    const uint32_t wbase = done;
    const size_t wcount =
        std::min<size_t>(stager_.window_states(), level_end - wbase);
    ShardedStateStore::Staging* window = stager_.PrepareWindow(wcount);
    pool_.ParallelFor(
        wcount, kChunkStates, [&](size_t begin, size_t end, int worker) {
          if (chunk_deadline_.Expired()) return;  // The level aborts below.
          Worker& ws = workers_[worker];
          ShardedStateStore::Staging& staging = window[begin / kChunkStates];
          for (uint32_t id = wbase + begin; id < wbase + end; ++id) {
            const uint64_t* aux = store_.AuxOf(id);
            if constexpr (Visitor::kFlagsStates) {
              if (visitor.Flagged(aux)) continue;  // Resolved by the scan.
            }
            const uint64_t* key = store_.KeyView(id, &ws.decode);
            ws.moves.clear();
            if (reduced_) {
              ws.pruned += space_.ExpandReducedInto(key, aux, &ws.moves);
            } else {
              space_.ExpandInto(aux, &ws.moves);
            }
            if constexpr (!Visitor::kFlagsStates) {
              // The serial loop returns at a witness without expanding
              // it; children of later states are never observed.
              if (visitor.IsWitness(key, ws.moves)) {
                ws.witness = std::min(ws.witness, id);
                continue;
              }
              if (budget_ends_here) continue;
            }
            for (GlobalNode g : ws.moves) {
              space_.ApplyInto(key, aux, g, ws.key.data(), ws.aux.data());
              if constexpr (Visitor::kFlagsStates) {
                visitor.FinishChild(worker, key, g, ws.key.data(),
                                    ws.aux.data());
              }
              // The parent's stored key is already canonical, so a delta
              // record relates two canonical representatives.
              store_.StageCanonical(&staging, ws.key.data(), ws.aux.data(),
                                    id, g, key);
            }
          }
        });
    done += static_cast<uint32_t>(wcount);
    for (const Worker& w : workers_) witness = std::min(witness, w.witness);
    if (witness == kNoId && !budget_ends_here && !stager_.EndWindow()) {
      return Status::Internal("frontier spill write failed");
    }
  }
  counters_.deadline_polls += chunk_deadline_.TakePolls();
  // Skipped chunks may hide the least witness, so an expired level
  // reports the overrun, never a possibly-non-minimal witness, and is
  // never committed.
  if (chunk_deadline_.hit()) return DeadlineError(check_);
  return witness;
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_LEVEL_SEARCH_H_
