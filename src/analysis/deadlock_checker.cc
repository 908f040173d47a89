#include "analysis/deadlock_checker.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/search_deadline.h"
#include "analysis/store_stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/frontier_spill.h"
#include "core/reduction_graph.h"
#include "core/state_space.h"
#include "core/state_store.h"
#include "core/symmetry.h"

namespace wydb {
namespace {

constexpr char kCheck[] = "deadlock";

// Reconstructs the schedule leading to `state` by following parent links.
Schedule PathTo(const ExecState& state,
                const std::unordered_map<ExecState,
                                         std::pair<ExecState, GlobalNode>,
                                         ExecStateHash>& parent,
                const ExecState& root) {
  Schedule rev;
  ExecState cur = state;
  while (!(cur == root)) {
    auto it = parent.find(cur);
    rev.push_back(it->second.second);
    cur = it->second.first;
  }
  return Schedule(rev.rbegin(), rev.rend());
}

std::vector<std::vector<NodeId>> PrefixNodesOf(const StateSpace& space,
                                               const uint64_t* words) {
  const TransactionSystem& sys = space.system();
  std::vector<std::vector<NodeId>> out(sys.num_transactions());
  for (int i = 0; i < sys.num_transactions(); ++i) {
    for (NodeId v = 0; v < sys.txn(i).num_steps(); ++v) {
      if (space.IsExecuted(words, i, v)) out[i].push_back(v);
    }
  }
  return out;
}

// The seed implementation: hash containers of heap-copied ExecStates and
// full move rescans per state. Retained as the cross-validation reference;
// CheckDeadlockFreedom with the incremental engine must match it verdict-
// and count-for-count.
Result<DeadlockReport> CheckDeadlockFreedomNaive(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  DeadlockReport report;

  // BFS over reachable states. Reachable state <=> prefix admitting a
  // schedule, so in kReductionGraph mode every visited state is a
  // candidate deadlock prefix.
  std::unordered_set<ExecState, ExecStateHash> visited;
  std::unordered_map<ExecState, std::pair<ExecState, GlobalNode>,
                     ExecStateHash>
      parent;
  std::vector<ExecState> queue;
  ExecState root = space.EmptyState();
  queue.push_back(root);
  visited.insert(root);

  auto make_witness = [&](const ExecState& s,
                          std::string cycle_text) -> DeadlockWitness {
    DeadlockWitness w;
    w.schedule = PathTo(s, parent, root);
    w.prefix_nodes = PrefixNodesOf(space, s.words.data());
    w.reduction_cycle = std::move(cycle_text);
    return w;
  };

  for (size_t head = 0; head < queue.size(); ++head) {
    ExecState s = queue[head];
    ++report.states_visited;
    if (options.max_states != 0 &&
        report.states_visited > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "deadlock check exceeded %llu states",
          static_cast<unsigned long long>(options.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options, &report)) {
      return DeadlineError(kCheck);
    }

    std::vector<GlobalNode> moves = space.LegalMoves(s);

    if (options.mode == DeadlockDetectionMode::kStuckState) {
      if (moves.empty() && !space.IsComplete(s)) {
        report.deadlock_free = false;
        report.witness = make_witness(s, "");
        report.states_interned = visited.size();
        return report;
      }
    } else {
      ReductionGraph rg(space.ToPrefixSet(s));
      if (rg.HasCycle()) {
        std::vector<GlobalNode> cycle = rg.FindGlobalCycle();
        report.deadlock_free = false;
        report.witness = make_witness(s, rg.CycleToString(sys, cycle));
        report.states_interned = visited.size();
        return report;
      }
    }

    for (GlobalNode g : moves) {
      ExecState next = space.Apply(s, g);
      bool fresh = options.memoize ? visited.insert(next).second : true;
      if (fresh) {
        parent.emplace(next, std::make_pair(s, g));
        queue.push_back(next);
      }
    }
  }

  report.deadlock_free = true;
  report.states_interned = visited.size();
  return report;
}

// Interned-state BFS: one StateStore arena holds every state's key words
// plus its frontier/holder cache; ids replace all heap copies.
Result<DeadlockReport> CheckDeadlockFreedomIncremental(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  DeadlockReport report;

  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  StateStore store(kw, aw);
  std::vector<uint64_t> state_buf(kw);
  std::vector<uint64_t> aux_buf(aw);
  space.InitRoot(state_buf.data(), aux_buf.data());
  uint32_t root = options.memoize ? store.Intern(state_buf.data()).id
                                  : store.Append(state_buf.data());
  std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
              aw * sizeof(uint64_t));

  auto make_witness = [&](uint32_t id,
                          std::string cycle_text) -> DeadlockWitness {
    DeadlockWitness w;
    w.schedule = store.PathFromRoot(id);
    w.prefix_nodes = PrefixNodesOf(space, store.KeyOf(id));
    w.reduction_cycle = std::move(cycle_text);
    return w;
  };

  std::vector<GlobalNode> moves;
  moves.reserve(64);
  for (uint32_t head = 0; head < store.size(); ++head) {
    ++report.states_visited;
    if (options.max_states != 0 &&
        report.states_visited > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "deadlock check exceeded %llu states",
          static_cast<unsigned long long>(options.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options, &report)) {
      return DeadlineError(kCheck);
    }

    moves.clear();
    space.ExpandInto(store.AuxOf(head), &moves);

    if (options.mode == DeadlockDetectionMode::kStuckState) {
      if (moves.empty() && !space.IsComplete(store.KeyOf(head))) {
        report.deadlock_free = false;
        report.witness = make_witness(head, "");
        report.states_interned = store.size();
        FillMemoryStats(store, &report);
        return report;
      }
    } else {
      ReductionGraph rg(space.ToPrefixSet(store.KeyOf(head)));
      if (rg.HasCycle()) {
        std::vector<GlobalNode> cycle = rg.FindGlobalCycle();
        report.deadlock_free = false;
        report.witness = make_witness(head, rg.CycleToString(sys, cycle));
        report.states_interned = store.size();
        FillMemoryStats(store, &report);
        return report;
      }
    }

    for (GlobalNode g : moves) {
      // Pointers into the store are refetched after every insertion: the
      // arenas may reallocate.
      space.ApplyInto(store.KeyOf(head), store.AuxOf(head), g,
                      state_buf.data(), aux_buf.data());
      if (options.memoize) {
        StateStore::InternResult r = store.Intern(state_buf.data(), head, g);
        if (r.inserted) {
          std::memcpy(store.MutableAuxOf(r.id), aux_buf.data(),
                      aw * sizeof(uint64_t));
        }
      } else {
        uint32_t id = store.Append(state_buf.data(), head, g);
        std::memcpy(store.MutableAuxOf(id), aux_buf.data(),
                    aw * sizeof(uint64_t));
      }
    }
  }

  report.deadlock_free = true;
  report.states_interned = store.size();
  FillMemoryStats(store, &report);
  return report;
}

// Level-synchronous parallel BFS over a ShardedStateStore (DESIGN.md §7).
//
// A FIFO BFS pops states in id order and ids are assigned in discovery
// order, so the serial search is equivalent to processing the store one
// *level* at a time. Each level runs in three steps:
//
//   1. Expand + check (parallel, work-stealing chunks of the level):
//      generate each state's moves, evaluate the witness predicate
//      (stuck state / cyclic reduction graph — both purely per-state),
//      and stage every child into the chunk's staging buffer.
//   2. Reduce: the minimum witness id across workers. A witness at id w
//      reproduces the serial report exactly — the serial loop would have
//      popped 0..w and returned, so states_visited = w+1 and the parent
//      links of w's ancestors (all committed in earlier levels, in
//      serial-identical order) give the same schedule.
//   3. Commit: ShardedStateStore::CommitStaged dedups per shard in
//      parallel and ranks fresh states in staging (= serial Intern)
//      order.
//
// Budget accounting mirrors the serial pop counter arithmetically: the
// serial loop fails at the first pop k with k+1 > max_states, so with a
// witness at w the search fails iff w+1 > max_states, and with no
// witness in the level it fails iff the level's last id + 1 does.
Result<DeadlockReport> CheckDeadlockFreedomParallel(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  DeadlockReport report;

  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = options.pool != nullptr
                         ? *options.pool
                         : owned_pool.emplace(options.search_threads);
  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  ShardedStateStore store(kw, aw, /*num_shards=*/4 * pool.threads(),
                          options.store);
  const bool compact =
      options.store.encoding == StoreOptions::KeyEncoding::kCompact;
  constexpr size_t kChunkStates = 64;
  FrontierStager stager(&store, &pool,
                        options.store.mem_budget_mb << 20, kChunkStates);

  {
    std::vector<uint64_t> state_buf(kw), aux_buf(aw);
    space.InitRoot(state_buf.data(), aux_buf.data());
    uint32_t root = store.InternRoot(state_buf.data());
    std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
                aw * sizeof(uint64_t));
  }

  auto make_witness = [&](uint32_t id,
                          std::string cycle_text) -> DeadlockWitness {
    ShardedStateStore::KeyDecodeCache decode;
    DeadlockWitness w;
    w.schedule = store.PathFromRoot(id);
    w.prefix_nodes = PrefixNodesOf(space, store.KeyView(id, &decode));
    w.reduction_cycle = std::move(cycle_text);
    return w;
  };

  struct WorkerScratch {
    std::vector<uint64_t> state;
    std::vector<uint64_t> aux;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint32_t witness = ShardedStateStore::kNoId;  ///< Min witness id seen.
  };
  std::vector<WorkerScratch> scratch(pool.threads());
  for (WorkerScratch& s : scratch) {
    s.state.resize(kw);
    s.aux.resize(aw);
    s.moves.reserve(64);
  }

  ChunkDeadline chunk_deadline(options.deadline);

  size_t level_begin = 0;
  while (level_begin < store.size()) {
    if (PollDeadline(options, &report)) return DeadlineError(kCheck);
    const size_t level_end = store.size();
    const size_t level_size = level_end - level_begin;
    const uint64_t level_dispatches = pool.dispatches();
    auto count_level = [&] {
      if (pool.dispatches() != level_dispatches) ++report.parallel_levels;
    };
    for (WorkerScratch& s : scratch) s.witness = ShardedStateStore::kNoId;
    // Popping this whole level already exceeds the budget, so the serial
    // loop can only end inside it — with a witness whose id fits the
    // budget, or with ResourceExhausted. Children are unobservable either
    // way; skip staging them.
    const bool budget_ends_here =
        options.max_states != 0 && level_end > options.max_states;

    // The level is staged in bounded windows; between windows the stager
    // may spill the staged chunks to disk (no-op without --mem-budget-mb,
    // where the single window spans the level). Ids ascend across
    // windows, so the first window containing a witness holds the
    // level's minimum and later windows need not run.
    uint32_t witness = ShardedStateStore::kNoId;
    size_t done = 0;
    while (done < level_size) {
      const size_t wcount =
          std::min(stager.window_states(), level_size - done);
      ShardedStateStore::Staging* window = stager.PrepareWindow(wcount);
      const size_t wbase = done;

      pool.ParallelFor(
          wcount, kChunkStates,
          [&](size_t begin, size_t end, int worker) {
            if (chunk_deadline.Expired()) return;  // Level aborts below.
            WorkerScratch& ws = scratch[worker];
            ShardedStateStore::Staging& staging =
                window[begin / kChunkStates];
            for (size_t i = begin; i < end; ++i) {
              const uint32_t id =
                  static_cast<uint32_t>(level_begin + wbase + i);
              const uint64_t* key = store.KeyView(id, &ws.decode);
              ws.moves.clear();
              space.ExpandInto(store.AuxOf(id), &ws.moves);
              bool is_witness;
              if (options.mode == DeadlockDetectionMode::kStuckState) {
                is_witness = ws.moves.empty() && !space.IsComplete(key);
              } else {
                ReductionGraph rg(space.ToPrefixSet(key));
                is_witness = rg.HasCycle();
              }
              if (is_witness) {
                // The serial loop returns here without expanding;
                // children of later states in this level are never
                // observed, so skipping the staging is safe (and the
                // whole level's staged children are discarded below).
                if (id < ws.witness) ws.witness = id;
                continue;
              }
              if (budget_ends_here) continue;
              for (GlobalNode g : ws.moves) {
                space.ApplyInto(key, store.AuxOf(id), g, ws.state.data(),
                                ws.aux.data());
                store.Stage(&staging, ws.state.data(), ws.aux.data(), id, g,
                            key);
              }
            }
          });

      done += wcount;
      for (const WorkerScratch& s : scratch) {
        witness = std::min(witness, s.witness);
      }
      if (witness != ShardedStateStore::kNoId) break;
      if (!budget_ends_here && !stager.EndWindow()) {
        return Status::Internal("frontier spill write failed");
      }
    }
    report.deadline_polls += chunk_deadline.TakePolls();
    if (chunk_deadline.hit()) {
      // Skipped chunks may hide the minimal witness, so an expired level
      // reports the budget overrun, never a possibly-non-minimal witness.
      return DeadlineError(kCheck);
    }

    if (witness != ShardedStateStore::kNoId) {
      if (options.max_states != 0 &&
          static_cast<uint64_t>(witness) + 1 > options.max_states) {
        return Status::ResourceExhausted(StrFormat(
            "deadlock check exceeded %llu states",
            static_cast<unsigned long long>(options.max_states)));
      }
      count_level();
      report.states_visited = static_cast<uint64_t>(witness) + 1;
      report.deadlock_free = false;
      report.states_interned = store.size();
      std::string cycle_text;
      if (options.mode == DeadlockDetectionMode::kReductionGraph) {
        ShardedStateStore::KeyDecodeCache decode;
        ReductionGraph rg(
            space.ToPrefixSet(store.KeyView(witness, &decode)));
        cycle_text = rg.CycleToString(sys, rg.FindGlobalCycle());
      }
      report.witness = make_witness(witness, std::move(cycle_text));
      FillMemoryStats(store, stager, &report);
      return report;
    }
    if (options.max_states != 0 && level_end > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "deadlock check exceeded %llu states",
          static_cast<unsigned long long>(options.max_states)));
    }
    size_t fresh = 0;
    if (!stager.Commit(options.memoize, &fresh)) {
      return Status::Internal("frontier spill read-back failed");
    }
    count_level();
    // Hash compaction keeps only the frontier's key/aux words resident;
    // everything below this level has been fully expanded.
    if (compact) store.RetireExpanded();
    level_begin = level_end;
  }

  report.states_visited = store.size();
  report.states_interned = store.size();
  report.deadlock_free = true;
  FillMemoryStats(store, stager, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Reduced engine (DESIGN.md §8): persistent-move pruning + orbit
// canonicalization on the level-synchronous sharded substrate.
//
// The search explores one representative per symmetry orbit and, per
// state, only the persistent move subset of ExpandReducedInto. Verdicts
// agree with the exhaustive engines (both reductions preserve the
// reachability of terminal — stuck or complete — states, §8.4), but the
// id sequence covers the *reduced* space, so states_visited is smaller,
// not bit-identical. Results are still deterministic for every thread
// count: pruning and canonicalization are per-state functions and the
// staging-order rank fixes the ids.
// ---------------------------------------------------------------------------

// Rebuilds a concrete witness from a stored path of orbit
// representatives via the shared ReplayReducedPath permutation
// composition (core/symmetry, DESIGN.md §8.3): the concrete schedule is
// legal from the empty state and ends in a genuine stuck / cyclic state.
DeadlockWitness MakeReducedWitness(const StateSpace& space,
                                   const OrbitCanonicalizer& canon,
                                   bool canonical_active,
                                   const ShardedStateStore& store,
                                   uint32_t id, bool want_cycle_text) {
  const int kw = space.words_per_state();
  DeadlockWitness w;
  std::vector<int> tau;
  ReplayReducedPath(
      store, id, canon, canonical_active, space, kw,
      [&](const uint64_t* parent_key, GlobalNode g, uint64_t* child_key) {
        // Pre-canonical child = parent representative + the move's bit.
        std::memcpy(child_key, parent_key, kw * sizeof(uint64_t));
        const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
        child_key[bit / 64] |= 1ULL << (bit % 64);
      },
      &w.schedule, &tau);

  std::vector<uint64_t> concrete(kw, 0);
  for (GlobalNode g : w.schedule) {
    const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
    concrete[bit / 64] |= 1ULL << (bit % 64);
  }
  w.prefix_nodes = PrefixNodesOf(space, concrete.data());
  if (want_cycle_text) {
    ReductionGraph rg(space.ToPrefixSet(concrete.data()));
    w.reduction_cycle = rg.CycleToString(space.system(),
                                         rg.FindGlobalCycle());
  }
  return w;
}

Result<DeadlockReport> CheckDeadlockFreedomReduced(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  TransactionOrbits orbits(sys);
  OrbitCanonicalizer canon(&space, &orbits, /*arc_row_words=*/0);
  const bool canonical = orbits.HasNontrivialOrbit();
  DeadlockReport report;

  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = options.pool != nullptr
                         ? *options.pool
                         : owned_pool.emplace(options.search_threads);
  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  ShardedStateStore store(kw, aw, /*num_shards=*/4 * pool.threads(),
                          options.store);
  if (canonical) store.set_canonicalizer(&canon);
  constexpr size_t kChunkStates = 64;
  FrontierStager stager(&store, &pool,
                        options.store.mem_budget_mb << 20, kChunkStates);

  {
    std::vector<uint64_t> state_buf(kw), aux_buf(aw);
    space.InitRoot(state_buf.data(), aux_buf.data());
    // The empty state is its own canonical form.
    uint32_t root = store.InternRoot(state_buf.data());
    std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
                aw * sizeof(uint64_t));
  }

  struct WorkerScratch {
    std::vector<uint64_t> state;
    std::vector<uint64_t> aux;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint32_t witness = ShardedStateStore::kNoId;
    uint64_t pruned = 0;
  };
  std::vector<WorkerScratch> scratch(pool.threads());
  for (WorkerScratch& s : scratch) {
    s.state.resize(kw);
    s.aux.resize(aw);
    s.moves.reserve(64);
  }

  auto sum_pruned = [&] {
    uint64_t total = 0;
    for (const WorkerScratch& s : scratch) total += s.pruned;
    return total;
  };

  ChunkDeadline chunk_deadline(options.deadline);

  size_t level_begin = 0;
  while (level_begin < store.size()) {
    if (PollDeadline(options, &report)) return DeadlineError(kCheck);
    const size_t level_end = store.size();
    const size_t level_size = level_end - level_begin;
    const uint64_t level_dispatches = pool.dispatches();
    auto count_level = [&] {
      if (pool.dispatches() != level_dispatches) ++report.parallel_levels;
    };
    for (WorkerScratch& s : scratch) s.witness = ShardedStateStore::kNoId;
    const bool budget_ends_here =
        options.max_states != 0 && level_end > options.max_states;

    uint32_t witness = ShardedStateStore::kNoId;
    size_t done = 0;
    while (done < level_size) {
      const size_t wcount =
          std::min(stager.window_states(), level_size - done);
      ShardedStateStore::Staging* window = stager.PrepareWindow(wcount);
      const size_t wbase = done;

      pool.ParallelFor(
          wcount, kChunkStates,
          [&](size_t begin, size_t end, int worker) {
            if (chunk_deadline.Expired()) return;  // Level aborts below.
            WorkerScratch& ws = scratch[worker];
            ShardedStateStore::Staging& staging =
                window[begin / kChunkStates];
            for (size_t i = begin; i < end; ++i) {
              const uint32_t id =
                  static_cast<uint32_t>(level_begin + wbase + i);
              const uint64_t* key = store.KeyView(id, &ws.decode);
              ws.moves.clear();
              ws.pruned +=
                  space.ExpandReducedInto(key, store.AuxOf(id), &ws.moves);
              // ExpandReducedInto returns an empty set only for genuinely
              // stuck states, so the witness predicates are unchanged.
              bool is_witness;
              if (options.mode == DeadlockDetectionMode::kStuckState) {
                is_witness = ws.moves.empty() && !space.IsComplete(key);
              } else {
                ReductionGraph rg(space.ToPrefixSet(key));
                is_witness = rg.HasCycle();
              }
              if (is_witness) {
                if (id < ws.witness) ws.witness = id;
                continue;
              }
              if (budget_ends_here) continue;
              for (GlobalNode g : ws.moves) {
                space.ApplyInto(key, store.AuxOf(id), g, ws.state.data(),
                                ws.aux.data());
                // The parent's stored key is already canonical, so the
                // xor-delta relates two canonical representatives.
                store.StageCanonical(&staging, ws.state.data(),
                                     ws.aux.data(), id, g, key);
              }
            }
          });

      done += wcount;
      for (const WorkerScratch& s : scratch) {
        witness = std::min(witness, s.witness);
      }
      if (witness != ShardedStateStore::kNoId) break;
      if (!budget_ends_here && !stager.EndWindow()) {
        return Status::Internal("frontier spill write failed");
      }
    }
    report.deadline_polls += chunk_deadline.TakePolls();
    if (chunk_deadline.hit()) {
      // Skipped chunks may hide the minimal witness, so an expired level
      // reports the budget overrun, never a possibly-non-minimal witness.
      return DeadlineError(kCheck);
    }

    if (witness != ShardedStateStore::kNoId) {
      if (options.max_states != 0 &&
          static_cast<uint64_t>(witness) + 1 > options.max_states) {
        return Status::ResourceExhausted(StrFormat(
            "deadlock check exceeded %llu states",
            static_cast<unsigned long long>(options.max_states)));
      }
      count_level();
      report.states_visited = static_cast<uint64_t>(witness) + 1;
      report.states_interned = store.size();
      report.sleep_set_pruned = sum_pruned();
      report.deadlock_free = false;
      report.witness = MakeReducedWitness(
          space, canon, canonical, store, witness,
          options.mode == DeadlockDetectionMode::kReductionGraph);
      FillMemoryStats(store, stager, &report);
      return report;
    }
    if (options.max_states != 0 && level_end > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "deadlock check exceeded %llu states",
          static_cast<unsigned long long>(options.max_states)));
    }
    size_t fresh = 0;
    if (!stager.Commit(options.memoize, &fresh)) {
      return Status::Internal("frontier spill read-back failed");
    }
    count_level();
    level_begin = level_end;
  }

  report.states_visited = store.size();
  report.states_interned = store.size();
  report.sleep_set_pruned = sum_pruned();
  report.deadlock_free = true;
  FillMemoryStats(store, stager, &report);
  return report;
}

}  // namespace

Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options, options.engine));
  if (options.engine == SearchEngine::kNaiveReference) {
    return CheckDeadlockFreedomNaive(sys, options);
  }
  if (options.engine == SearchEngine::kParallelSharded) {
    return CheckDeadlockFreedomParallel(sys, options);
  }
  if (options.engine == SearchEngine::kReduced) {
    return CheckDeadlockFreedomReduced(sys, options);
  }
  return CheckDeadlockFreedomIncremental(sys, options);
}

Result<bool> IsDeadlockPrefix(const TransactionSystem& sys,
                              const PrefixSet& prefix, uint64_t max_states) {
  ReductionGraph rg(prefix);
  if (!rg.HasCycle()) return false;
  StateSpace space(&sys);
  auto sched = space.FindScheduleBetween(space.EmptyState(),
                                         space.StateOf(prefix), max_states);
  if (!sched.ok()) return sched.status();
  return sched->has_value();
}

}  // namespace wydb
