// Seeded input generator. Every input is built here as .wydb text from
// the benchmark's own code, never from the program's generators, so the
// inputs of a seed stay the same while the program under test changes.
// Each family's verdict is known by construction and travels with the
// system as the expected answer.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct GenTxn {
  std::string name;
  /// ';'-separated chains of steps ("Lx", "Ux"); one segment = total order.
  std::vector<std::vector<std::string>> segments;
  /// Extra precedence arcs between 1-based step ordinals of the line.
  std::vector<std::pair<int, int>> arcs;
};

struct GenSystem {
  std::string family;
  std::vector<std::pair<std::string, std::vector<std::string>>> sites;
  /// Entity -> copy sites (first is the primary); empty = single copy.
  std::vector<std::pair<std::string, std::vector<std::string>>> copies;
  std::vector<GenTxn> txns;
  /// The dominating entity of a latch-family system ("" otherwise).
  std::string latch;
  bool deadlock_free = true;
  bool safe = true;
  bool certified() const { return deadlock_free && safe; }
};

std::string Render(const GenSystem& sys);

// --- Workload inputs. --------------------------------------------------

/// The analyze-exact batch: a fixed size ladder per family and fixed
/// shapes, so every seed asks for the same work; the seed picks names,
/// listing orders and the order of the batch. `smoke` keeps only the
/// small systems.
std::vector<GenSystem> AnalyzeBatch(uint64_t seed, bool smoke);

/// The serve-mix request pool: 64 pairwise non-isomorphic small systems
/// of 3-5 transactions. Shapes are fixed; the seed picks names and
/// listing orders.
std::vector<GenSystem> ServePool(uint64_t seed, bool smoke);

enum class RequestKind { kHit, kAddLatch, kAddRefuted, kRemove, kFresh };

struct Request {
  RequestKind kind = RequestKind::kHit;
  std::string text;
  bool expect_certified = false;
};

/// The deterministic request stream of one serve-mix connection: blocks
/// of 20 requests holding 14 renamed pool resubmissions, three deltas
/// (a latch-disciplined addition to a certified pool system, an addition
/// to a refuted one, and the removal of an original transaction from that
/// block's certified addition) and three never-seen systems.
class RequestStream {
 public:
  RequestStream(const std::vector<GenSystem>* pool, uint64_t seed, int conn, int conns);
  Request Next();

 private:
  const std::vector<GenSystem>* pool_;
  Rng rng_;
  /// The shapes of the certified additions and their removals, of the
  /// refuted additions, and of the new systems: fixed streams, one per
  /// kind, as in ServePool, so every seed's requests cost the same. rng_
  /// picks names, listing orders and the order within each block.
  Rng latch_shape_;
  Rng refuted_shape_;
  Rng fresh_shape_;
  int conn_;
  int conns_;
  std::vector<RequestKind> block_;
  size_t block_pos_ = 0;
  uint64_t hits_ = 0;
  uint64_t serial_ = 0;
  uint64_t fresh_ = 0;
  uint64_t latch_cursor_ = 0;
  uint64_t refuted_cursor_ = 0;
  GenSystem last_latch_add_;
  std::vector<int> latch_items_;
  std::vector<int> refuted_items_;
  std::vector<int> hit_order_;
};

/// The live-certified system: 16 latch-disciplined transactions over a
/// 64-site, 64 Ki-entity database (the shape of BM_Live_Certified_*).
GenSystem LiveSystem(uint64_t seed, bool smoke);

/// Digest of a workload's generated inputs for `seed` (the same seed must
/// print the same digest).
uint64_t InputDigest(const std::string& workload, uint64_t seed, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
