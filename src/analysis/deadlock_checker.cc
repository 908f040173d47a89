#include "analysis/deadlock_checker.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "analysis/level_search.h"
#include "analysis/search_deadline.h"
#include "analysis/store_stats.h"
#include "common/string_util.h"
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

// ---------------------------------------------------------------------------
// Level-synchronous engines (kParallelSharded, kReduced) on the one
// LevelSearch driver (analysis/level_search.h, DESIGN.md §7-§8). Both
// witness predicates — stuck state, cyclic reduction graph — are purely
// per-state, so the checker is a testing visitor: the driver stops at
// the least witness id of a level, which reproduces the serial report
// exactly (the serial loop pops 0..w and returns).
//
// Under kReduced the search explores one representative per symmetry
// orbit and, per state, only the persistent moves of ExpandReducedInto.
// Verdicts agree with the exhaustive engines (both reductions preserve
// the reachability of terminal — stuck or complete — states, §8.4), but
// the ids cover the *reduced* space, so states_visited is smaller, not
// bit-identical; it is still the same for every thread count.
// ---------------------------------------------------------------------------

struct DeadlockVisitor {
  static constexpr bool kFlagsStates = false;

  // ExpandReducedInto returns an empty set only for genuinely stuck
  // states, so the predicates hold under both expansions.
  bool IsWitness(const uint64_t* key,
                 const std::vector<GlobalNode>& moves) const {
    if (mode == DeadlockDetectionMode::kStuckState) {
      return moves.empty() && !space.IsComplete(key);
    }
    return ReductionGraph(space.ToPrefixSet(key)).HasCycle();
  }

  const StateSpace& space;
  const DeadlockDetectionMode mode;
};

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

Result<DeadlockReport> CheckDeadlockFreedomLevels(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  LevelSearch search(space, options, kCheck, space.words_per_state(),
                     space.aux_words(), /*arc_row_words=*/0,
                     options.memoize);
  DeadlockVisitor visitor{space, options.mode};
  WYDB_ASSIGN_OR_RETURN(const uint32_t witness, search.Run(visitor));
  DeadlockReport report;
  search.FillReport(witness, &report);
  report.deadlock_free = witness == LevelSearch::kNoId;
  if (report.deadlock_free) return report;
  const bool want_cycle =
      options.mode == DeadlockDetectionMode::kReductionGraph;
  if (search.reduced()) {
    report.witness = MakeReducedWitness(space, search.canon(),
                                        search.canonical(), search.store(),
                                        witness, want_cycle);
    return report;
  }
  ShardedStateStore::KeyDecodeCache decode;
  const uint64_t* key = search.store().KeyView(witness, &decode);
  DeadlockWitness w;
  w.schedule = search.store().PathFromRoot(witness);
  w.prefix_nodes = PrefixNodesOf(space, key);
  if (want_cycle) {
    ReductionGraph rg(space.ToPrefixSet(key));
    w.reduction_cycle = rg.CycleToString(sys, rg.FindGlobalCycle());
  }
  report.witness = std::move(w);
  return report;
}

}  // namespace

Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options, options.engine));
  if (options.engine == SearchEngine::kNaiveReference) {
    return CheckDeadlockFreedomNaive(sys, options);
  }
  if (options.engine == SearchEngine::kParallelSharded ||
      options.engine == SearchEngine::kReduced) {
    return CheckDeadlockFreedomLevels(sys, options);
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
