#include "analysis/safety_checker.h"

#include <bit>
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
#include "core/state_space.h"
#include "core/state_store.h"
#include "core/symmetry.h"
#include "graph/algorithms.h"

namespace wydb {
namespace {

constexpr char kCheck[] = "safety";

/// True iff transaction `t` lies on a cycle of the packed row-major arc
/// bitset (one row of `row_words` words per transaction): bitset BFS from
/// t's successor row until it reaches t or stops growing. `reach` and
/// `frontier` are caller scratch of row_words words (so concurrent
/// searches can keep per-worker buffers).
bool ArcsOnCycle(const uint64_t* arcs, int t, int row_words,
                 std::vector<uint64_t>& reach,
                 std::vector<uint64_t>& frontier) {
  for (int w = 0; w < row_words; ++w) {
    reach[w] = arcs[t * row_words + w];
    frontier[w] = reach[w];
  }
  while (true) {
    if ((reach[t / 64] >> (t % 64)) & 1) return true;
    bool grew = false;
    for (int w = 0; w < row_words; ++w) {
      uint64_t bits = frontier[w];
      frontier[w] = 0;
      while (bits != 0) {
        int j = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        const uint64_t* row = arcs + static_cast<size_t>(j) * row_words;
        for (int rw = 0; rw < row_words; ++rw) {
          uint64_t fresh = row[rw] & ~reach[rw];
          if (fresh != 0) {
            reach[rw] |= fresh;
            frontier[rw] |= fresh;
            grew = true;
          }
        }
      }
    }
    if (!grew) return false;
  }
}

inline void AddPackedArc(uint64_t* arcs, int row_words, int i, int j) {
  arcs[i * row_words + j / 64] |= 1ULL << (j % 64);
}

/// The one definition of the §5 child arc update shared by every Lemma
/// engine (the bit-identical contract of the exhaustive ones rides on
/// it): executing `g` from the parent state `parent_key` adds, for a
/// Lock of x by Ti, the arc Tj -> Ti for every CONFLICTING accessor Tj
/// whose Lx is already executed in S' and Ti -> Tj otherwise. Two
/// shared locks on x are compatible and draw no arc (X–X and X–S pairs
/// do); with every lock exclusive this is exactly the paper's §5 rule.
/// Returns false when `g` is not a Lock (no arcs added).
bool ApplyLockArcs(const StateSpace& space, const uint64_t* parent_key,
                   GlobalNode g, int row_words, uint64_t* arcs) {
  const Step& st = space.system().txn(g.txn).step(g.node);
  if (st.kind != StepKind::kLock) return false;
  const EntityId x = st.entity;
  const int t = g.txn;
  for (int j : space.AccessorsOf(x)) {
    if (j == t) continue;
    if (!LockModesConflict(st.mode, space.system().txn(j).LockModeOf(x))) {
      continue;  // S–S: compatible, no conflict arc.
    }
    NodeId lj = space.LockNodeOf(j, x);
    if (space.IsExecuted(parent_key, j, lj)) {
      AddPackedArc(arcs, row_words, j, t);  // Tj locked x earlier in S'.
    } else {
      AddPackedArc(arcs, row_words, t, j);  // Ti locks first, even if Lx
                                            // of Tj never executes in S'.
    }
  }
  return true;
}

/// Arc update plus the incremental cycle test: all fresh arcs touch Ti
/// and the parent is acyclic, so the child is cyclic iff Ti now reaches
/// itself; returns that verdict (`reach`/`frontier` are caller scratch
/// of row_words words).
bool ApplyLockArcsAndTestCycle(const StateSpace& space,
                               const uint64_t* parent_key, GlobalNode g,
                               int row_words, uint64_t* arcs,
                               std::vector<uint64_t>& reach,
                               std::vector<uint64_t>& frontier) {
  if (!ApplyLockArcs(space, parent_key, g, row_words, arcs)) return false;
  return ArcsOnCycle(arcs, g.txn, row_words, reach, frontier);
}

// ---------------------------------------------------------------------------
// Naive reference engine (the seed implementation): heap-copied states in
// hash containers, the conflict digraph rebuilt and FindCycle rerun from
// scratch at every state. Retained for cross-validation and benchmarking.
// ---------------------------------------------------------------------------

// Search state: executed steps plus the arc set of D(S') packed as an
// n*n bitmask appended to the exec words (arc i->j at bit i*n + j).
struct LemmaState {
  std::vector<uint64_t> words;
  bool operator==(const LemmaState&) const = default;
};

struct LemmaStateHash {
  size_t operator()(const LemmaState& s) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint64_t w : s.words) {
      h ^= w;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

class LemmaSearchNaive {
 public:
  LemmaSearchNaive(const TransactionSystem& sys,
                   const SafetyCheckOptions& options, bool require_complete)
      : sys_(sys),
        options_(options),
        require_complete_(require_complete),
        space_(&sys),
        n_(sys.num_transactions()),
        exec_words_(space_.words_per_state()),
        arc_words_((n_ * n_ + 63) / 64) {}

  Result<SafetyReport> Run();

 private:
  LemmaState Root() const {
    LemmaState s;
    s.words.assign(exec_words_ + arc_words_, 0);
    return s;
  }

  ExecState ExecOf(const LemmaState& s) const {
    ExecState e;
    e.words.assign(s.words.begin(), s.words.begin() + exec_words_);
    return e;
  }

  bool ArcSet(const LemmaState& s, int i, int j) const {
    int bit = i * n_ + j;
    return (s.words[exec_words_ + bit / 64] >> (bit % 64)) & 1;
  }

  void AddArc(LemmaState* s, int i, int j) const {
    int bit = i * n_ + j;
    s->words[exec_words_ + bit / 64] |= 1ULL << (bit % 64);
  }

  Digraph ArcsDigraph(const LemmaState& s) const {
    Digraph d(n_);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j && ArcSet(s, i, j)) d.AddArc(i, j);
      }
    }
    return d;
  }

  // Applies `g`, updating arcs per the partial-schedule digraph D(S')
  // definition of Section 5.
  LemmaState Apply(const LemmaState& s, GlobalNode g) const {
    LemmaState next = s;
    ExecState exec = ExecOf(s);
    ExecState exec_next = space_.Apply(exec, g);
    for (int w = 0; w < exec_words_; ++w) next.words[w] = exec_next.words[w];

    const Step& st = sys_.txn(g.txn).step(g.node);
    if (st.kind == StepKind::kLock) {
      EntityId x = st.entity;
      for (int j : sys_.AccessorsOf(x)) {
        if (j == g.txn) continue;
        if (!LockModesConflict(st.mode, sys_.txn(j).LockModeOf(x))) {
          continue;  // S–S: compatible, no conflict arc.
        }
        NodeId lj = sys_.txn(j).LockNode(x);
        if (space_.IsExecuted(exec, j, lj)) {
          AddArc(&next, j, g.txn);  // Tj locked x earlier in S'.
        } else {
          AddArc(&next, g.txn, j);  // Ti locks first, even if Lx of Tj
                                    // never executes in S'.
        }
      }
    }
    return next;
  }

  const TransactionSystem& sys_;
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const int n_;
  const int exec_words_;
  const int arc_words_;
};

Result<SafetyReport> LemmaSearchNaive::Run() {
  SafetyReport report;
  std::unordered_set<LemmaState, LemmaStateHash> visited;
  std::unordered_map<LemmaState, std::pair<LemmaState, GlobalNode>,
                     LemmaStateHash>
      parent;
  std::vector<LemmaState> queue;
  LemmaState root = Root();
  queue.push_back(root);
  visited.insert(root);

  auto path_to = [&](const LemmaState& state) {
    Schedule rev;
    LemmaState cur = state;
    while (!(cur == root)) {
      auto it = parent.find(cur);
      rev.push_back(it->second.second);
      cur = it->second.first;
    }
    return Schedule(rev.rbegin(), rev.rend());
  };

  for (size_t head = 0; head < queue.size(); ++head) {
    LemmaState s = queue[head];
    ++report.states_visited;
    if (options_.max_states != 0 &&
        report.states_visited > options_.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "safety check exceeded %llu states",
          static_cast<unsigned long long>(options_.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options_, &report)) {
      return DeadlineError(kCheck);
    }

    Digraph arcs = ArcsDigraph(s);
    std::vector<NodeId> cycle = FindCycle(arcs);
    if (!cycle.empty()) {
      Schedule sched = path_to(s);
      if (!require_complete_) {
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = visited.size();
        return report;
      }
      // Safety alone: the cyclic partial schedule only matters if it can
      // be extended to a complete schedule. Arc sets only grow, so the
      // completed schedule is also cyclic.
      auto completion =
          space_.FindCompletion(ExecOf(s), options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        sched.insert(sched.end(), (*completion)->begin(),
                     (*completion)->end());
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = visited.size();
        return report;
      }
      // Not completable: neither this state nor any descendant can reach a
      // complete schedule — prune the subtree.
      continue;
    }

    for (GlobalNode g : space_.LegalMoves(ExecOf(s))) {
      LemmaState next = Apply(s, g);
      if (visited.insert(next).second) {
        parent.emplace(next, std::make_pair(s, g));
        queue.push_back(next);
      }
    }
  }

  report.holds = true;
  report.states_interned = visited.size();
  return report;
}


// Shared [exec words | arc rows] key layout of the Lemma engines — one
// definition for the serial and parallel implementations, so the packed
// key format (and with it their bit-identical contract) cannot diverge.
struct LemmaKeyLayout {
  explicit LemmaKeyLayout(const StateSpace& space)
      : n_(space.system().num_transactions()),
        exec_words_(space.words_per_state()),
        row_words_((n_ + 63) / 64),
        arc_words_(n_ * row_words_),
        key_words_(exec_words_ + arc_words_),
        flag_word_(space.aux_words()),
        aux_words_(space.aux_words() + 1) {}

  const uint64_t* Arcs(const uint64_t* key) const {
    return key + exec_words_;
  }
  uint64_t* Arcs(uint64_t* key) const { return key + exec_words_; }

  Digraph ArcsDigraph(const uint64_t* key) const {
    Digraph d(n_);
    const uint64_t* arcs = Arcs(key);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j &&
            ((arcs[i * row_words_ + j / 64] >> (j % 64)) & 1) != 0) {
          d.AddArc(i, j);
        }
      }
    }
    return d;
  }

  ExecState ExecOf(const uint64_t* key) const {
    ExecState e;
    e.words.assign(key, key + exec_words_);
    return e;
  }

  const int n_;
  const int exec_words_;
  const int row_words_;
  const int arc_words_;
  const int key_words_;
  const int flag_word_;
  const int aux_words_;
};

// ---------------------------------------------------------------------------
// Incremental engine.
//
// States are interned in a StateStore. The key is [exec words | arc rows]:
// the conflict-arc set of D(S') packed row-major, one row of ceil(n/64)
// words per transaction, so row operations (reachability) are word ops.
//
// Cycle detection is incremental. Arc sets only grow along a path (§5
// lemma), and every arc added by applying a Lock step of transaction t is
// incident to t. Hence if the parent state's digraph is acyclic, any cycle
// in the child passes through t, so the child is cyclic iff t can reach
// itself — one bitset BFS from t's row instead of a full FindCycle. BFS
// only ever expands acyclic states (cyclic ones report or prune), so the
// invariant "parent acyclic" holds inductively and each state's cyclicity
// is decided once, at creation, and carried in a flag word.
// ---------------------------------------------------------------------------

class LemmaSearchIncremental {
 public:
  LemmaSearchIncremental(const TransactionSystem& sys,
                         const SafetyCheckOptions& options,
                         bool require_complete)
      : sys_(sys),
        options_(options),
        require_complete_(require_complete),
        space_(&sys),
        lay_(space_),
        reach_(lay_.row_words_),
        frontier_(lay_.row_words_) {}

  Result<SafetyReport> Run();

 private:
  const TransactionSystem& sys_;
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const LemmaKeyLayout lay_;
  mutable std::vector<uint64_t> reach_;
  mutable std::vector<uint64_t> frontier_;
};

Result<SafetyReport> LemmaSearchIncremental::Run() {
  SafetyReport report;
  StateStore store(lay_.key_words_, lay_.aux_words_);

  std::vector<uint64_t> key_buf(lay_.key_words_, 0);
  std::vector<uint64_t> aux_buf(lay_.aux_words_, 0);
  space_.InitRoot(key_buf.data(), aux_buf.data());
  uint32_t root = store.Intern(key_buf.data()).id;
  std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
              lay_.aux_words_ * sizeof(uint64_t));

  // Delta gate (docs/SERVE.md): with the system minus txn `delta` known
  // safe+DF, no reachable state with `delta` idle can be cyclic, so
  // children of delta-idle parents reached by non-delta moves skip the
  // cycle test. Idleness is one word-range scan of the parent's exec
  // block for `delta`.
  const int delta = options_.delta_txn;
  const int delta_off = delta >= 0 ? space_.txn_word_offset(delta) : 0;
  const int delta_cnt = delta >= 0 ? space_.txn_word_count(delta) : 0;

  std::vector<GlobalNode> moves;
  moves.reserve(64);
  for (uint32_t head = 0; head < store.size(); ++head) {
    ++report.states_visited;
    if (options_.max_states != 0 &&
        report.states_visited > options_.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "safety check exceeded %llu states",
          static_cast<unsigned long long>(options_.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options_, &report)) {
      return DeadlineError(kCheck);
    }

    if ((store.AuxOf(head)[lay_.flag_word_] & 1) != 0) {
      // This state was created cyclic; materialize the cycle only now,
      // when it is actually reported (or probed for completability).
      std::vector<NodeId> cycle = FindCycle(lay_.ArcsDigraph(store.KeyOf(head)));
      Schedule sched = store.PathFromRoot(head);
      if (!require_complete_) {
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = store.size();
        FillMemoryStats(store, &report);
        return report;
      }
      auto completion =
          space_.FindCompletion(lay_.ExecOf(store.KeyOf(head)),
                                options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        sched.insert(sched.end(), (*completion)->begin(),
                     (*completion)->end());
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = store.size();
        FillMemoryStats(store, &report);
        return report;
      }
      // Not completable: prune the subtree (descendants inherit the cycle).
      continue;
    }

    moves.clear();
    space_.ExpandInto(store.AuxOf(head), &moves);
    for (GlobalNode g : moves) {
      // Exec part + expansion cache update in O(successors of g).
      space_.ApplyInto(store.KeyOf(head), store.AuxOf(head), g,
                       key_buf.data(), aux_buf.data());
      std::memcpy(lay_.Arcs(key_buf.data()), lay_.Arcs(store.KeyOf(head)),
                  lay_.arc_words_ * sizeof(uint64_t));
      aux_buf[lay_.flag_word_] = 0;
      bool skip_cycle_test = false;
      if (delta >= 0 && g.txn != delta) {
        skip_cycle_test = true;
        const uint64_t* parent_key = store.KeyOf(head);
        for (int w = 0; w < delta_cnt; ++w) {
          if (parent_key[delta_off + w] != 0) {
            skip_cycle_test = false;
            break;
          }
        }
      }
      if (skip_cycle_test) {
        // Child stays delta-idle, hence acyclic by the gate's
        // precondition; the arcs must still accrue.
        ApplyLockArcs(space_, store.KeyOf(head), g, lay_.row_words_,
                      lay_.Arcs(key_buf.data()));
        ++report.delta_skipped_tests;
      } else if (ApplyLockArcsAndTestCycle(space_, store.KeyOf(head), g,
                                           lay_.row_words_,
                                           lay_.Arcs(key_buf.data()), reach_,
                                           frontier_)) {
        aux_buf[lay_.flag_word_] |= 1;
      }

      StateStore::InternResult r = store.Intern(key_buf.data(), head, g);
      if (r.inserted) {
        std::memcpy(store.MutableAuxOf(r.id), aux_buf.data(),
                    lay_.aux_words_ * sizeof(uint64_t));
      }
    }
  }

  report.holds = true;
  report.states_interned = store.size();
  FillMemoryStats(store, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Parallel sharded engine (DESIGN.md §7).
//
// Same state encoding and incremental cycle test as LemmaSearchIncremental
// — key [exec words | arc rows], cyclicity decided once at creation and
// carried in the aux flag word — but driven as a level-synchronous BFS
// over a ShardedStateStore. Because a FIFO BFS pops in id order, each
// level is handled in serial-equivalent phases:
//
//   1. Flagged scan (serial, one bit per state): cyclic states in id
//      order. For safe+DF the first one is the violation. For pure safety
//      each runs FindCompletion exactly as the serial pop would —
//      completable reports, uncompletable prunes — with the pop-budget
//      guard interleaved at the flagged state's id.
//   2. Expand (parallel, work-stealing chunks): acyclic states stage
//      their children — exec/aux via ApplyInto, arcs copied from the
//      parent plus the Lock arcs of the move, flag from the
//      one-bitset-BFS self-reachability test (all per-worker scratch).
//   3. Commit: per-shard parallel dedup, then the staging-order rank
//      assigns serial-identical dense ids.
class LemmaSearchParallel {
 public:
  LemmaSearchParallel(const TransactionSystem& sys,
                      const SafetyCheckOptions& options,
                      bool require_complete)
      : options_(options),
        require_complete_(require_complete),
        space_(&sys),
        lay_(space_) {}

  Result<SafetyReport> Run();

 private:
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const LemmaKeyLayout lay_;
};

Result<SafetyReport> LemmaSearchParallel::Run() {
  SafetyReport report;
  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = options_.pool != nullptr
                         ? *options_.pool
                         : owned_pool.emplace(options_.search_threads);
  ShardedStateStore store(lay_.key_words_, lay_.aux_words_,
                          /*num_shards=*/4 * pool.threads(), options_.store);
  const bool compact =
      options_.store.encoding == StoreOptions::KeyEncoding::kCompact;
  constexpr size_t kChunkStates = 64;
  FrontierStager stager(&store, &pool, options_.store.mem_budget_mb << 20,
                        kChunkStates);

  {
    std::vector<uint64_t> key_buf(lay_.key_words_, 0);
    std::vector<uint64_t> aux_buf(lay_.aux_words_, 0);
    space_.InitRoot(key_buf.data(), aux_buf.data());
    uint32_t root = store.InternRoot(key_buf.data());
    std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
                lay_.aux_words_ * sizeof(uint64_t));
  }

  struct WorkerScratch {
    std::vector<uint64_t> key;
    std::vector<uint64_t> aux;
    std::vector<uint64_t> reach;
    std::vector<uint64_t> frontier;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
  };
  std::vector<WorkerScratch> scratch(pool.threads());
  for (WorkerScratch& s : scratch) {
    s.key.resize(lay_.key_words_);
    s.aux.resize(lay_.aux_words_);
    s.reach.resize(lay_.row_words_);
    s.frontier.resize(lay_.row_words_);
    s.moves.reserve(64);
  }
  ShardedStateStore::KeyDecodeCache decode;  // Phase-1 (serial) cache.

  ChunkDeadline chunk_deadline(options_.deadline);

  size_t level_begin = 0;
  while (level_begin < store.size()) {
    if (PollDeadline(options_, &report)) return DeadlineError(kCheck);
    const size_t level_end = store.size();
    const size_t level_size = level_end - level_begin;
    // The flagged scan below runs serially, so a level reaches the pool
    // only in its expansion windows or its commit.
    const uint64_t level_dispatches = pool.dispatches();

    // Phase 1: flagged (cyclic) states, in id order. Mirrors the serial
    // pop loop: the budget check precedes the flag handling at each id.
    for (size_t i = 0; i < level_size; ++i) {
      const uint32_t id = static_cast<uint32_t>(level_begin + i);
      if (i % kDeadlineStride == kDeadlineStride - 1 &&
          PollDeadline(options_, &report)) {
        return DeadlineError(kCheck);
      }
      if ((store.AuxOf(id)[lay_.flag_word_] & 1) == 0) continue;
      if (options_.max_states != 0 &&
          static_cast<uint64_t>(id) + 1 > options_.max_states) {
        return Status::ResourceExhausted(StrFormat(
            "safety check exceeded %llu states",
            static_cast<unsigned long long>(options_.max_states)));
      }
      std::vector<NodeId> cycle =
          FindCycle(lay_.ArcsDigraph(store.KeyView(id, &decode)));
      Schedule sched = store.PathFromRoot(id);
      if (!require_complete_) {
        report.states_visited = static_cast<uint64_t>(id) + 1;
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = store.size();
        FillMemoryStats(store, stager, &report);
        return report;
      }
      auto completion = space_.FindCompletion(
          lay_.ExecOf(store.KeyView(id, &decode)), options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        sched.insert(sched.end(), (*completion)->begin(),
                     (*completion)->end());
        report.states_visited = static_cast<uint64_t>(id) + 1;
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = store.size();
        FillMemoryStats(store, stager, &report);
        return report;
      }
      // Uncompletable: pruned, like the serial `continue`.
    }
    if (options_.max_states != 0 && level_end > options_.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "safety check exceeded %llu states",
          static_cast<unsigned long long>(options_.max_states)));
    }

    // Phase 2: expand the acyclic states of the level, in bounded
    // windows; between windows the stager may spill the staged chunks to
    // disk (no-op without --mem-budget-mb, where the single window spans
    // the level).
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
              if ((store.AuxOf(id)[lay_.flag_word_] & 1) != 0) {
                continue;  // Pruned.
              }
              const uint64_t* key = store.KeyView(id, &ws.decode);
              ws.moves.clear();
              space_.ExpandInto(store.AuxOf(id), &ws.moves);
              for (GlobalNode g : ws.moves) {
                space_.ApplyInto(key, store.AuxOf(id), g, ws.key.data(),
                                 ws.aux.data());
                std::memcpy(lay_.Arcs(ws.key.data()), lay_.Arcs(key),
                            lay_.arc_words_ * sizeof(uint64_t));
                ws.aux[lay_.flag_word_] = 0;
                if (ApplyLockArcsAndTestCycle(space_, key, g,
                                              lay_.row_words_,
                                              lay_.Arcs(ws.key.data()),
                                              ws.reach, ws.frontier)) {
                  ws.aux[lay_.flag_word_] |= 1;
                }
                store.Stage(&staging, ws.key.data(), ws.aux.data(), id, g,
                            key);
              }
            }
          });

      done += wcount;
      if (!stager.EndWindow()) {
        return Status::Internal("frontier spill write failed");
      }
    }
    report.deadline_polls += chunk_deadline.TakePolls();
    if (chunk_deadline.hit()) {
      return DeadlineError(kCheck);  // A partial level is never committed.
    }

    // Phase 3: deterministic commit (replayed from disk if spilled).
    size_t fresh = 0;
    if (!stager.Commit(/*dedupe=*/true, &fresh)) {
      return Status::Internal("frontier spill read-back failed");
    }
    if (pool.dispatches() != level_dispatches) ++report.parallel_levels;
    // Hash compaction keeps only the frontier's key/aux words resident;
    // everything below this level has been fully expanded.
    if (compact) store.RetireExpanded();
    level_begin = level_end;
  }

  report.states_visited = store.size();
  report.states_interned = store.size();
  report.holds = true;
  FillMemoryStats(store, stager, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Reduced engine (DESIGN.md §8): persistent-move pruning + orbit
// canonicalization over the extended (state, arc-set) space, on the
// level-synchronous sharded substrate. Both reductions preserve the
// reachability of terminal extended states, and a cyclic arc set
// persists to every descendant, so the Lemma 1 verdicts survive (§8.4).
// The canonical permutation sorts orbit blocks by exec content and
// permutes the arc matrix rows/columns along; exec-block ties are left
// in place (stable sort), which merely merges fewer states — every merge
// is through a genuine system automorphism.
// ---------------------------------------------------------------------------

class LemmaSearchReduced {
 public:
  LemmaSearchReduced(const TransactionSystem& sys,
                     const SafetyCheckOptions& options, bool require_complete)
      : options_(options),
        require_complete_(require_complete),
        space_(&sys),
        lay_(space_),
        orbits_(sys),
        canon_(&space_, &orbits_, lay_.row_words_) {}

  Result<SafetyReport> Run();

 private:
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const LemmaKeyLayout lay_;
  const TransactionOrbits orbits_;
  const OrbitCanonicalizer canon_;
};

Result<SafetyReport> LemmaSearchReduced::Run() {
  SafetyReport report;
  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool = options_.pool != nullptr
                         ? *options_.pool
                         : owned_pool.emplace(options_.search_threads);
  // kCompact is rejected before dispatch (make_violation and the replay
  // read ancestor keys); kDelta + spill compose with the reduction.
  ShardedStateStore store(lay_.key_words_, lay_.aux_words_,
                          /*num_shards=*/4 * pool.threads(), options_.store);
  constexpr size_t kChunkStates = 64;
  FrontierStager stager(&store, &pool, options_.store.mem_budget_mb << 20,
                        kChunkStates);
  if (orbits_.HasNontrivialOrbit()) store.set_canonicalizer(&canon_);

  {
    std::vector<uint64_t> key_buf(lay_.key_words_, 0);
    std::vector<uint64_t> aux_buf(lay_.aux_words_, 0);
    space_.InitRoot(key_buf.data(), aux_buf.data());
    uint32_t root = store.InternRoot(key_buf.data());
    std::memcpy(store.MutableAuxOf(root), aux_buf.data(),
                lay_.aux_words_ * sizeof(uint64_t));
  }

  // Builds the concrete violation for a flagged representative: replay
  // the path via the shared permutation composition (core/symmetry,
  // DESIGN.md §8.3), permute the stored arc matrix through the final
  // tau, and report a cycle of the *concrete* digraph.
  auto make_violation = [&](uint32_t id,
                            const Schedule& extra) -> SafetyViolation {
    Schedule sched;
    std::vector<int> tau;
    ReplayReducedPath(
        store, id, canon_, orbits_.HasNontrivialOrbit(), space_,
        lay_.key_words_,
        [&](const uint64_t* parent_key, GlobalNode g, uint64_t* child_key) {
          // Pre-canonical child = parent representative + move: the exec
          // bit and the §5 lock arcs, exactly as the search staged it.
          std::memcpy(child_key, parent_key,
                      lay_.key_words_ * sizeof(uint64_t));
          const int bit = space_.txn_word_offset(g.txn) * 64 + g.node;
          child_key[bit / 64] |= 1ULL << (bit % 64);
          ApplyLockArcs(space_, parent_key, g, lay_.row_words_,
                        lay_.Arcs(child_key));
        },
        &sched, &tau);
    for (GlobalNode g : extra) sched.push_back(GlobalNode{tau[g.txn], g.node});
    Digraph concrete(lay_.n_);
    ShardedStateStore::KeyDecodeCache vdecode;
    const uint64_t* arcs = lay_.Arcs(store.KeyView(id, &vdecode));
    for (int i = 0; i < lay_.n_; ++i) {
      for (int j = 0; j < lay_.n_; ++j) {
        if (i != j &&
            ((arcs[i * lay_.row_words_ + j / 64] >> (j % 64)) & 1) != 0) {
          concrete.AddArc(tau[i], tau[j]);
        }
      }
    }
    std::vector<NodeId> cycle = FindCycle(concrete);
    return SafetyViolation{std::move(sched),
                           std::vector<int>(cycle.begin(), cycle.end())};
  };

  struct WorkerScratch {
    std::vector<uint64_t> key;
    std::vector<uint64_t> aux;
    std::vector<uint64_t> reach;
    std::vector<uint64_t> frontier;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint64_t pruned = 0;
  };
  std::vector<WorkerScratch> scratch(pool.threads());
  for (WorkerScratch& s : scratch) {
    s.key.resize(lay_.key_words_);
    s.aux.resize(lay_.aux_words_);
    s.reach.resize(lay_.row_words_);
    s.frontier.resize(lay_.row_words_);
    s.moves.reserve(64);
  }

  auto sum_pruned = [&] {
    uint64_t total = 0;
    for (const WorkerScratch& s : scratch) total += s.pruned;
    return total;
  };
  ShardedStateStore::KeyDecodeCache decode;  // Phase-1 (serial) cache.

  ChunkDeadline chunk_deadline(options_.deadline);

  size_t level_begin = 0;
  while (level_begin < store.size()) {
    if (PollDeadline(options_, &report)) return DeadlineError(kCheck);
    const size_t level_end = store.size();
    const size_t level_size = level_end - level_begin;
    // The flagged scan below runs serially, so a level reaches the pool
    // only in its expansion windows or its commit.
    const uint64_t level_dispatches = pool.dispatches();

    // Phase 1: flagged (cyclic) representatives, in id order. A cyclic
    // state reports (safe+DF), or reports-if-completable and prunes
    // otherwise (pure safety) — completability is permutation-invariant,
    // so it is probed on the representative and only a reported
    // violation pays for path reconstruction.
    for (size_t i = 0; i < level_size; ++i) {
      const uint32_t id = static_cast<uint32_t>(level_begin + i);
      if (i % kDeadlineStride == kDeadlineStride - 1 &&
          PollDeadline(options_, &report)) {
        return DeadlineError(kCheck);
      }
      if ((store.AuxOf(id)[lay_.flag_word_] & 1) == 0) continue;
      if (options_.max_states != 0 &&
          static_cast<uint64_t>(id) + 1 > options_.max_states) {
        return Status::ResourceExhausted(StrFormat(
            "safety check exceeded %llu states",
            static_cast<unsigned long long>(options_.max_states)));
      }
      if (!require_complete_) {
        report.states_visited = static_cast<uint64_t>(id) + 1;
        report.states_interned = store.size();
        report.sleep_set_pruned = sum_pruned();
        report.holds = false;
        report.violation = make_violation(id, Schedule{});
        FillMemoryStats(store, stager, &report);
        return report;
      }
      auto completion = space_.FindCompletion(
          lay_.ExecOf(store.KeyView(id, &decode)), options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        report.states_visited = static_cast<uint64_t>(id) + 1;
        report.states_interned = store.size();
        report.sleep_set_pruned = sum_pruned();
        report.holds = false;
        report.violation = make_violation(id, **completion);
        FillMemoryStats(store, stager, &report);
        return report;
      }
      // Uncompletable: no descendant reaches a complete schedule, and
      // they all inherit the cycle — prune the subtree.
    }
    if (options_.max_states != 0 && level_end > options_.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "safety check exceeded %llu states",
          static_cast<unsigned long long>(options_.max_states)));
    }

    // Phase 2: reduced expansion of the acyclic representatives, in
    // bounded windows (spilled between windows under --mem-budget-mb).
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
              if ((store.AuxOf(id)[lay_.flag_word_] & 1) != 0) continue;
              const uint64_t* key = store.KeyView(id, &ws.decode);
              ws.moves.clear();
              ws.pruned +=
                  space_.ExpandReducedInto(key, store.AuxOf(id), &ws.moves);
              for (GlobalNode g : ws.moves) {
                space_.ApplyInto(key, store.AuxOf(id), g, ws.key.data(),
                                 ws.aux.data());
                std::memcpy(lay_.Arcs(ws.key.data()), lay_.Arcs(key),
                            lay_.arc_words_ * sizeof(uint64_t));
                ws.aux[lay_.flag_word_] = 0;
                if (ApplyLockArcsAndTestCycle(space_, key, g,
                                              lay_.row_words_,
                                              lay_.Arcs(ws.key.data()),
                                              ws.reach, ws.frontier)) {
                  ws.aux[lay_.flag_word_] |= 1;
                }
                // The parent's stored key is already canonical, so the
                // xor-delta record relates two canonical representatives.
                store.StageCanonical(&staging, ws.key.data(), ws.aux.data(),
                                     id, g, key);
              }
            }
          });

      done += wcount;
      if (!stager.EndWindow()) {
        return Status::Internal("frontier spill write failed");
      }
    }
    report.deadline_polls += chunk_deadline.TakePolls();
    if (chunk_deadline.hit()) {
      return DeadlineError(kCheck);  // A partial level is never committed.
    }

    // Phase 3: deterministic commit (canonical keys fed the shard hash;
    // replayed from disk if spilled).
    size_t fresh = 0;
    if (!stager.Commit(/*dedupe=*/true, &fresh)) {
      return Status::Internal("frontier spill read-back failed");
    }
    if (pool.dispatches() != level_dispatches) ++report.parallel_levels;
    level_begin = level_end;
  }

  report.states_visited = store.size();
  report.states_interned = store.size();
  report.sleep_set_pruned = sum_pruned();
  report.holds = true;
  FillMemoryStats(store, stager, &report);
  return report;
}

Result<SafetyReport> RunSearch(const TransactionSystem& sys,
                               const SafetyCheckOptions& options,
                               bool require_complete) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options, options.engine));
  if (options.delta_txn >= 0) {
    if (options.delta_txn >= sys.num_transactions()) {
      return Status::InvalidArgument(
          StrFormat("delta_txn %d out of range (system has %d transactions)",
                    options.delta_txn, sys.num_transactions()));
    }
    if (options.engine != SearchEngine::kIncremental) {
      return Status::InvalidArgument(
          "delta_txn requires the incremental engine");
    }
    if (require_complete) {
      return Status::InvalidArgument(
          "delta_txn applies to the safe+deadlock-free check only");
    }
  }
  if (options.engine == SearchEngine::kNaiveReference) {
    LemmaSearchNaive search(sys, options, require_complete);
    return search.Run();
  }
  if (options.engine == SearchEngine::kParallelSharded) {
    LemmaSearchParallel search(sys, options, require_complete);
    return search.Run();
  }
  if (options.engine == SearchEngine::kReduced) {
    LemmaSearchReduced search(sys, options, require_complete);
    return search.Run();
  }
  LemmaSearchIncremental search(sys, options, require_complete);
  return search.Run();
}

}  // namespace

Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/false);
}

Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/true);
}

}  // namespace wydb
