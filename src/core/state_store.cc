#include "core/state_store.h"

#include <algorithm>
#include <cstring>

#include "common/hash_util.h"
#include "common/thread_pool.h"

namespace wydb {

namespace {
constexpr size_t kInitialSlots = 1024;       // Power of two.
constexpr size_t kInitialShardSlots = 256;   // Power of two.
constexpr uint64_t kDuplicate = ~0ULL;       // fresh_marks_ sentinel.

// LEB128 varints for the delta key records (DESIGN.md §9.1). Records are
// process-local (arena or spill file), so no cross-host format concerns.
void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

uint64_t GetVarint(const uint8_t** p) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    const uint8_t b = *(*p)++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// StateStore (serial).
// ---------------------------------------------------------------------------

StateStore::StateStore(int key_words, int aux_words)
    : key_words_(key_words), aux_words_(aux_words) {
  slots_.assign(kInitialSlots, kNoId);
  slot_mask_ = kInitialSlots - 1;
}

void StateStore::Grow() {
  std::vector<uint32_t> next(slots_.size() * 2, kNoId);
  const size_t mask = next.size() - 1;
  for (uint32_t id = 0; id < parents_.size(); ++id) {
    size_t pos = HashWords(KeyRaw(id), key_words_) & mask;
    while (next[pos] != kNoId) pos = (pos + 1) & mask;
    next[pos] = id;
  }
  slots_ = std::move(next);
  slot_mask_ = mask;
}

StateStore::InternResult StateStore::Intern(const uint64_t* key,
                                            uint32_t parent,
                                            GlobalNode move) {
  // Keep the load factor below 1/2.
  if ((parents_.size() + 1) * 2 > slots_.size()) Grow();
  size_t pos = HashWords(key, key_words_) & slot_mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kNoId) break;
    if (std::memcmp(KeyRaw(id), key, key_words_ * sizeof(uint64_t)) == 0) {
      return InternResult{id, false};
    }
    pos = (pos + 1) & slot_mask_;
  }
  uint32_t id = Append(key, parent, move);
  slots_[pos] = id;
  return InternResult{id, true};
}

StateStore::InternResult StateStore::InternCanonical(uint64_t* key,
                                                     uint64_t* aux,
                                                     uint32_t parent,
                                                     GlobalNode move) {
  if (canonicalizer_ != nullptr) canonicalizer_->Canonicalize(key, aux);
  InternResult r = Intern(key, parent, move);
  if (r.inserted && aux_words_ > 0) {
    std::memcpy(aux_.data() + static_cast<size_t>(r.id) * aux_words_, aux,
                aux_words_ * sizeof(uint64_t));
  }
  return r;
}

uint32_t StateStore::Append(const uint64_t* key, uint32_t parent,
                            GlobalNode move) {
  uint32_t id = static_cast<uint32_t>(parents_.size());
  keys_.insert(keys_.end(), key, key + key_words_);
  aux_.resize(aux_.size() + aux_words_, 0);
  parents_.push_back(ParentLink{parent, move.txn, move.node});
  generation_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint32_t StateStore::Find(const uint64_t* key) const {
  size_t pos = HashWords(key, key_words_) & slot_mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kNoId) return kNoId;
    if (std::memcmp(KeyRaw(id), key, key_words_ * sizeof(uint64_t)) == 0) {
      return id;
    }
    pos = (pos + 1) & slot_mask_;
  }
}

std::vector<GlobalNode> StateStore::PathFromRoot(uint32_t id) const {
  std::vector<GlobalNode> path;
  for (uint32_t cur = id; parents_[cur].parent != kNoId;
       cur = parents_[cur].parent) {
    path.push_back(MoveOf(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

StoreMemoryStats StateStore::MemoryStats() const {
  StoreMemoryStats m;
  m.arena_bytes = keys_.capacity() * sizeof(uint64_t) +
                  aux_.capacity() * sizeof(uint64_t);
  m.probe_bytes = slots_.capacity() * sizeof(uint32_t);
  m.link_bytes = parents_.capacity() * sizeof(ParentLink);
  return m;
}

size_t StateStore::MemoryBytes() const { return MemoryStats().total(); }

// ---------------------------------------------------------------------------
// ShardedStateStore.
// ---------------------------------------------------------------------------

ShardedStateStore::ShardedStateStore(int key_words, int aux_words,
                                     int num_shards,
                                     const StoreOptions& options)
    : key_words_(key_words), aux_words_(aux_words), options_(options) {
  size_t shards = 1;
  shard_bits_ = 0;
  while (shards < static_cast<size_t>(num_shards > 1 ? num_shards : 1)) {
    shards <<= 1;
    ++shard_bits_;
  }
  if (shard_bits_ == 0) shard_bits_ = 1;  // Keep the >> (64-bits) defined.
  shards_ = std::vector<Shard>(shards);
  for (Shard& shard : shards_) {
    shard.slots.assign(kInitialShardSlots, kNoId);
    shard.slot_mask = kInitialShardSlots - 1;
  }
}

uint32_t ShardedStateStore::InternRoot(const uint64_t* key) {
  const uint64_t hash = HashWords(key, key_words_);
  const uint32_t si = ShardOf(hash);
  Shard& shard = shards_[si];
  uint32_t local;
  if (options_.encoding == StoreOptions::KeyEncoding::kDelta) {
    local = static_cast<uint32_t>(shard.parents.size());
    shard.aux.resize(shard.aux.size() + aux_words_, 0);
    shard.parents.push_back(ParentLink{kNoId, -1, -1});
    shard.hashes.push_back(hash);
    shard.rec_off.push_back(shard.recs.size());
    shard.recs.push_back(0);  // Varint 0: full record follows.
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(key);
    shard.recs.insert(shard.recs.end(), raw,
                      raw + static_cast<size_t>(key_words_) * 8);
  } else {
    // Root aux starts zeroed; the caller fills it via MutableAuxOf.
    std::vector<uint64_t> key_aux(
        static_cast<size_t>(key_words_) + aux_words_, 0);
    std::memcpy(key_aux.data(), key, key_words_ * sizeof(uint64_t));
    Staging::Pending p{hash, 0, kNoId, -1, -1};
    local = AppendToShard(&shard, key_aux.data(), p);
    if (options_.encoding == StoreOptions::KeyEncoding::kCompact) {
      shard.hashes.push_back(hash);
    }
  }
  size_t pos = hash & shard.slot_mask;
  while (shard.slots[pos] != kNoId) pos = (pos + 1) & shard.slot_mask;
  shard.slots[pos] = local;
  const uint32_t id = static_cast<uint32_t>(index_.size());
  index_.push_back(Pack(si, local));
  generation_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void ShardedStateStore::ResetStaging(Staging* staging) const {
  staging->words_.resize(shards_.size());
  staging->pending_.resize(shards_.size());
  staging->recs_.resize(shards_.size());
  staging->rec_lens_.resize(shards_.size());
  // clear() keeps each lane's capacity from earlier levels. No eager
  // reserve: there are O(chunks x shards) lanes and most stay empty, so
  // a speculative floor would dwarf the states it stages.
  for (size_t s = 0; s < shards_.size(); ++s) {
    staging->words_[s].clear();
    staging->pending_[s].clear();
    staging->recs_[s].clear();
    staging->rec_lens_[s].clear();
  }
  staging->count_ = 0;
}

void ShardedStateStore::EncodeRecord(Staging* staging, uint32_t shard,
                                     const uint64_t* key, uint32_t parent,
                                     const uint64_t* parent_key) const {
  std::vector<uint8_t>& out = staging->recs_[shard];
  const size_t start = out.size();
  const size_t full_size = 1 + static_cast<size_t>(key_words_) * 8;
  bool full = parent_key == nullptr || parent == kNoId;
  if (!full) {
    std::vector<uint8_t>& scratch = staging->rec_scratch_;
    scratch.clear();
    PutVarint(&scratch, static_cast<uint64_t>(parent) + 1);
    uint64_t changed = 0;
    for (int w = 0; w < key_words_; ++w) changed += key[w] != parent_key[w];
    PutVarint(&scratch, changed);
    for (int w = 0; w < key_words_; ++w) {
      if (key[w] != parent_key[w]) {
        PutVarint(&scratch, static_cast<uint64_t>(w));
        PutVarint(&scratch, key[w] ^ parent_key[w]);
      }
    }
    if (scratch.size() >= full_size) {
      full = true;  // Delta would not save anything; store the raw key.
    } else {
      out.insert(out.end(), scratch.begin(), scratch.end());
    }
  }
  if (full) {
    out.push_back(0);
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(key);
    out.insert(out.end(), raw, raw + static_cast<size_t>(key_words_) * 8);
  }
  staging->rec_lens_[shard].push_back(static_cast<uint32_t>(out.size() -
                                                            start));
}

void ShardedStateStore::Stage(Staging* staging, const uint64_t* key,
                              const uint64_t* aux, uint32_t parent,
                              GlobalNode move,
                              const uint64_t* parent_key) const {
  const uint64_t hash = HashWords(key, key_words_);
  const uint32_t shard = ShardOf(hash);
  std::vector<uint64_t>& words = staging->words_[shard];
  words.insert(words.end(), key, key + key_words_);
  words.insert(words.end(), aux, aux + aux_words_);
  staging->pending_[shard].push_back(Staging::Pending{
      hash, staging->count_++, parent, move.txn, move.node});
  if (options_.encoding == StoreOptions::KeyEncoding::kDelta) {
    EncodeRecord(staging, shard, key, parent, parent_key);
  }
}

void ShardedStateStore::StageCanonical(Staging* staging, uint64_t* key,
                                       uint64_t* aux, uint32_t parent,
                                       GlobalNode move,
                                       const uint64_t* parent_key) const {
  if (canonicalizer_ != nullptr) canonicalizer_->Canonicalize(key, aux);
  Stage(staging, key, aux, parent, move, parent_key);
}

uint32_t ShardedStateStore::AppendToShard(Shard* shard,
                                          const uint64_t* key_aux,
                                          const Staging::Pending& p) {
  const uint32_t local = static_cast<uint32_t>(shard->parents.size());
  shard->keys.insert(shard->keys.end(), key_aux, key_aux + key_words_);
  shard->aux.insert(shard->aux.end(), key_aux + key_words_,
                    key_aux + key_words_ + aux_words_);
  shard->parents.push_back(ParentLink{p.parent, p.move_txn, p.move_node});
  return local;
}

uint32_t ShardedStateStore::AppendDeltaToShard(Shard* shard,
                                               const PendingAppend& a) {
  const uint32_t local = static_cast<uint32_t>(shard->parents.size());
  shard->aux.insert(shard->aux.end(), a.key_aux + key_words_,
                    a.key_aux + key_words_ + aux_words_);
  shard->parents.push_back(ParentLink{a.parent, a.move_txn, a.move_node});
  shard->rec_off.push_back(shard->recs.size());
  shard->recs.insert(shard->recs.end(), a.rec, a.rec + a.rec_len);
  return local;
}

void ShardedStateStore::GrowShard(Shard* shard) {
  std::vector<uint32_t> next(shard->slots.size() * 2, kNoId);
  const size_t mask = next.size() - 1;
  for (uint32_t local = 0; local < shard->parents.size(); ++local) {
    const uint64_t* key =
        shard->keys.data() + static_cast<size_t>(local) * key_words_;
    size_t pos = HashWords(key, key_words_) & mask;
    while (next[pos] != kNoId) pos = (pos + 1) & mask;
    next[pos] = local;
  }
  shard->slots = std::move(next);
  shard->slot_mask = mask;
}

void ShardedStateStore::GrowShardByHash(Shard* shard) {
  std::vector<uint32_t> next(shard->slots.size() * 2, kNoId);
  const size_t mask = next.size() - 1;
  for (uint32_t local = 0; local < shard->hashes.size(); ++local) {
    size_t pos = shard->hashes[local] & mask;
    while (next[pos] != kNoId) pos = (pos + 1) & mask;
    next[pos] = local;
  }
  shard->slots = std::move(next);
  shard->slot_mask = mask;
}

void ShardedStateStore::KeyDecodeCache::EnsureShape(int key_words) {
  if (key_words_ == key_words) return;
  key_words_ = key_words;
  ids_.assign(kSlots, kNoId);
  words_.assign(kSlots * static_cast<size_t>(key_words), 0);
  scratch_.assign(static_cast<size_t>(key_words), 0);
  compare_.assign(static_cast<size_t>(key_words), 0);
}

const uint64_t* ShardedStateStore::ReconstructKey(
    uint32_t id, KeyDecodeCache* cache) const {
  const size_t mask = KeyDecodeCache::kSlots - 1;
  const size_t kw = static_cast<size_t>(key_words_);
  std::vector<uint32_t>& chain = cache->chain_;
  chain.clear();
  // Walk the parent-record chain until a cached key or a full record.
  uint32_t cur = id;
  const uint64_t* base = nullptr;
  while (true) {
    const size_t slot = cur & mask;
    if (cache->ids_[slot] == cur) {
      base = cache->words_.data() + slot * kw;
      break;
    }
    const Slot sl = Unpack(index_[cur]);
    const Shard& shard = shards_[sl.shard];
    const uint8_t* p = shard.recs.data() + shard.rec_off[sl.local];
    const uint64_t head = GetVarint(&p);
    if (head == 0) {
      uint64_t* dst = cache->words_.data() + slot * kw;
      std::memcpy(dst, p, kw * 8);
      cache->ids_[slot] = cur;
      base = dst;
      break;
    }
    chain.push_back(cur);
    cur = static_cast<uint32_t>(head - 1);
  }
  if (chain.empty()) return base;
  // Unwind: apply xor deltas ancestor-first, caching every intermediate.
  // chain[0] == id is written last, so its slot is authoritative on exit.
  uint64_t* scratch = cache->scratch_.data();
  std::memcpy(scratch, base, kw * 8);
  for (size_t k = chain.size(); k-- > 0;) {
    const uint32_t node = chain[k];
    const Slot sl = Unpack(index_[node]);
    const Shard& shard = shards_[sl.shard];
    const uint8_t* p = shard.recs.data() + shard.rec_off[sl.local];
    GetVarint(&p);  // parent+1, already followed on the way down.
    const uint64_t changed = GetVarint(&p);
    for (uint64_t i = 0; i < changed; ++i) {
      const uint64_t w = GetVarint(&p);
      scratch[w] ^= GetVarint(&p);
    }
    const size_t slot = node & mask;
    cache->ids_[slot] = node;
    std::memcpy(cache->words_.data() + slot * kw, scratch, kw * 8);
  }
  return cache->words_.data() + (id & mask) * kw;
}

bool ShardedStateStore::CommittedKeyEquals(uint32_t shard_idx,
                                           uint32_t local,
                                           const uint64_t* key,
                                           KeyDecodeCache* cache) const {
  const size_t kw = static_cast<size_t>(key_words_);
  const Shard& shard = shards_[shard_idx];
  const uint8_t* p = shard.recs.data() + shard.rec_off[local];
  const uint64_t head = GetVarint(&p);
  if (head == 0) return std::memcmp(p, key, kw * 8) == 0;
  const uint64_t* parent = ReconstructKey(
      static_cast<uint32_t>(head - 1), cache);
  uint64_t* cmp = cache->compare_.data();
  std::memcpy(cmp, parent, kw * 8);
  const uint64_t changed = GetVarint(&p);
  for (uint64_t i = 0; i < changed; ++i) {
    const uint64_t w = GetVarint(&p);
    cmp[w] ^= GetVarint(&p);
  }
  return std::memcmp(cmp, key, kw * 8) == 0;
}

size_t ShardedStateStore::CommitStaged(std::vector<Staging>* chunks,
                                       size_t num_chunks, ThreadPool* pool,
                                       bool dedupe) {
  const bool compact =
      options_.encoding == StoreOptions::KeyEncoding::kCompact;
  // The retire boundary is the shard occupancy at the *first* commit
  // since the last RetireExpanded: a spilled level commits in several
  // batches, all of which belong to the same (unexpanded) frontier.
  if (compact && !retire_base_valid_) {
    retire_base_.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      retire_base_[s] = static_cast<uint32_t>(shards_[s].parents.size());
    }
    retire_base_valid_ = true;
  }
  // Staging sequence of chunk c's ordinal o is chunk_base[c] + o: exactly
  // the order a serial loop over chunks (= parents in id order) would
  // have called Intern.
  size_t total = 0;
  std::vector<size_t> chunk_base(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_base[c] = total;
    total += (*chunks)[c].count_;
  }
  if (total == 0) return 0;
  fresh_marks_.assign(total, kDuplicate);
  // Small batches dedup on the caller. Shards are deduplicated
  // independently and ranked below, so this changes no id.
  if (total < kInlineCommitTuples) pool = nullptr;

  if (options_.encoding == StoreOptions::KeyEncoding::kDelta) {
    CommitShardsDelta(chunks, num_chunks, chunk_base, pool, dedupe);
  } else {
    CommitShardsPlain(chunks, num_chunks, chunk_base, pool, dedupe);
  }

  // Serial rank: allocate dense global ids to the fresh states in
  // staging order — the step that pins down the serial-identical id
  // sequence. One word read per staged tuple.
  const size_t before = index_.size();
  for (size_t seq = 0; seq < total; ++seq) {
    if (fresh_marks_[seq] != kDuplicate) index_.push_back(fresh_marks_[seq]);
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  return index_.size() - before;
}

void ShardedStateStore::CommitShardsPlain(
    std::vector<Staging>* chunks, size_t num_chunks,
    const std::vector<size_t>& chunk_base, ThreadPool* pool, bool dedupe) {
  const bool compact =
      options_.encoding == StoreOptions::KeyEncoding::kCompact;
  // Per-shard dedup in staging order. Shard s touches only its own
  // arenas/table and disjoint fresh_marks_ entries, so shards are
  // embarrassingly parallel.
  auto commit_shard = [&](size_t shard_begin, size_t shard_end,
                          int /*worker*/) {
    const size_t kTupleWords = static_cast<size_t>(key_words_) + aux_words_;
    for (size_t s = shard_begin; s < shard_end; ++s) {
      Shard& shard = shards_[s];
      for (size_t c = 0; c < num_chunks; ++c) {
        const Staging& staging = (*chunks)[c];
        const std::vector<uint64_t>& words = staging.words_[s];
        const std::vector<Staging::Pending>& pending = staging.pending_[s];
        for (size_t t = 0; t < pending.size(); ++t) {
          const Staging::Pending& p = pending[t];
          const uint64_t* key_aux = words.data() + t * kTupleWords;
          if (dedupe) {
            if ((shard.parents.size() + 1) * 2 > shard.slots.size()) {
              if (compact) {
                GrowShardByHash(&shard);
              } else {
                GrowShard(&shard);
              }
            }
            size_t pos = p.hash & shard.slot_mask;
            bool hit = false;
            while (true) {
              uint32_t local = shard.slots[pos];
              if (local == kNoId) break;
              if (compact) {
                // Fingerprint identity: hash-equal is a (possibly
                // colliding) duplicate.
                if (shard.hashes[local] == p.hash) {
                  hit = true;
                  break;
                }
              } else {
                const uint64_t* existing =
                    shard.keys.data() +
                    static_cast<size_t>(local - shard.frontier_base) *
                        key_words_;
                if (std::memcmp(existing, key_aux,
                                key_words_ * sizeof(uint64_t)) == 0) {
                  hit = true;
                  break;
                }
              }
              pos = (pos + 1) & shard.slot_mask;
            }
            if (hit) continue;
            const uint32_t local = AppendToShard(&shard, key_aux, p);
            if (compact) shard.hashes.push_back(p.hash);
            shard.slots[pos] = local;
            fresh_marks_[chunk_base[c] + p.ordinal] =
                Pack(static_cast<uint32_t>(s), local);
          } else {
            const uint32_t local = AppendToShard(&shard, key_aux, p);
            if (compact) shard.hashes.push_back(p.hash);
            fresh_marks_[chunk_base[c] + p.ordinal] =
                Pack(static_cast<uint32_t>(s), local);
          }
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards_.size(), 1, commit_shard, /*inline_below=*/0);
  } else {
    commit_shard(0, shards_.size(), 0);
  }
}

void ShardedStateStore::CommitShardsDelta(
    std::vector<Staging>* chunks, size_t num_chunks,
    const std::vector<size_t>& chunk_base, ThreadPool* pool, bool dedupe) {
  const int workers = pool != nullptr ? pool->threads() : 1;
  if (static_cast<int>(commit_caches_.size()) < workers) {
    commit_caches_.resize(workers);
  }
  if (append_scratch_.size() < shards_.size()) {
    append_scratch_.resize(shards_.size());
  }

  const size_t kTupleWords = static_cast<size_t>(key_words_) + aux_words_;
  // Pass 1 (parallel over shards): probe + provisional slot/hash
  // insertion, appending *nothing* to any record arena. Dedup against an
  // existing state reconstructs its key through the parent-record chain,
  // which reads other shards' committed recs/rec_off/index_ — all stable
  // here precisely because appends are deferred to pass 2 (behind the
  // ParallelFor barrier). Deltas themselves were encoded at stage time.
  auto probe_shard = [&](size_t shard_begin, size_t shard_end, int worker) {
    KeyDecodeCache& cache = commit_caches_[worker];
    cache.EnsureShape(key_words_);
    for (size_t s = shard_begin; s < shard_end; ++s) {
      Shard& shard = shards_[s];
      std::vector<PendingAppend>& appends = append_scratch_[s];
      appends.clear();
      const uint32_t committed = static_cast<uint32_t>(shard.parents.size());
      for (size_t c = 0; c < num_chunks; ++c) {
        const Staging& staging = (*chunks)[c];
        const std::vector<uint64_t>& words = staging.words_[s];
        const std::vector<Staging::Pending>& pending = staging.pending_[s];
        const std::vector<uint32_t>& lens = staging.rec_lens_[s];
        const uint8_t* rec = staging.recs_[s].data();
        for (size_t t = 0; t < pending.size(); ++t) {
          const Staging::Pending& p = pending[t];
          const uint64_t* key_aux = words.data() + t * kTupleWords;
          const uint32_t rec_len = lens[t];
          if (!dedupe) {
            shard.hashes.push_back(p.hash);
            appends.push_back(PendingAppend{key_aux, rec, rec_len, p.parent,
                                            p.move_txn, p.move_node});
            fresh_marks_[chunk_base[c] + p.ordinal] = Pack(
                static_cast<uint32_t>(s),
                committed + static_cast<uint32_t>(appends.size()) - 1);
            rec += rec_len;
            continue;
          }
          if ((shard.hashes.size() + 1) * 2 > shard.slots.size()) {
            GrowShardByHash(&shard);
          }
          size_t pos = p.hash & shard.slot_mask;
          bool hit = false;
          while (true) {
            const uint32_t local = shard.slots[pos];
            if (local == kNoId) break;
            if (shard.hashes[local] == p.hash) {
              bool equal;
              if (local < committed) {
                equal = CommittedKeyEquals(static_cast<uint32_t>(s), local,
                                           key_aux, &cache);
              } else {
                // Earlier fresh tuple of this batch: its full staged key
                // is at hand in the probe scratch.
                equal = std::memcmp(appends[local - committed].key_aux,
                                    key_aux,
                                    key_words_ * sizeof(uint64_t)) == 0;
              }
              if (equal) {
                hit = true;
                break;
              }
            }
            pos = (pos + 1) & shard.slot_mask;
          }
          if (!hit) {
            const uint32_t local =
                static_cast<uint32_t>(shard.hashes.size());
            shard.slots[pos] = local;
            shard.hashes.push_back(p.hash);
            appends.push_back(PendingAppend{key_aux, rec, rec_len, p.parent,
                                            p.move_txn, p.move_node});
            fresh_marks_[chunk_base[c] + p.ordinal] =
                Pack(static_cast<uint32_t>(s), local);
          }
          rec += rec_len;
        }
      }
    }
  };
  // Pass 2 (parallel over shards): materialize the provisional
  // insertions — aux words, parent links, record bytes — in the same
  // order pass 1 discovered them, so local ids line up.
  auto append_shard = [&](size_t shard_begin, size_t shard_end,
                          int /*worker*/) {
    for (size_t s = shard_begin; s < shard_end; ++s) {
      Shard& shard = shards_[s];
      for (const PendingAppend& a : append_scratch_[s]) {
        AppendDeltaToShard(&shard, a);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards_.size(), 1, probe_shard, /*inline_below=*/0);
    pool->ParallelFor(shards_.size(), 1, append_shard, /*inline_below=*/0);
  } else {
    probe_shard(0, shards_.size(), 0);
    append_shard(0, shards_.size(), 0);
  }
}

void ShardedStateStore::RetireExpanded() {
  if (options_.encoding != StoreOptions::KeyEncoding::kCompact ||
      !retire_base_valid_) {
    return;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const uint32_t keep = retire_base_[s];
    const size_t drop = keep - shard.frontier_base;
    if (drop == 0) continue;
    shard.keys.erase(shard.keys.begin(),
                     shard.keys.begin() + drop * key_words_);
    shard.aux.erase(shard.aux.begin(), shard.aux.begin() + drop * aux_words_);
    shard.frontier_base = keep;
  }
  retire_base_valid_ = false;
  generation_.fetch_add(1, std::memory_order_relaxed);
}

bool ShardedStateStore::WriteStaging(std::FILE* file,
                                     const Staging& staging) const {
  auto put = [&](const void* data, size_t bytes) {
    return bytes == 0 || std::fwrite(data, 1, bytes, file) == bytes;
  };
  const uint64_t count = staging.count_;
  if (!put(&count, sizeof(count))) return false;
  const bool delta = options_.encoding == StoreOptions::KeyEncoding::kDelta;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t sizes[3] = {
        staging.words_[s].size(), staging.pending_[s].size(),
        delta ? static_cast<uint64_t>(staging.recs_[s].size()) : 0};
    if (!put(sizes, sizeof(sizes))) return false;
    if (!put(staging.words_[s].data(), sizes[0] * sizeof(uint64_t))) {
      return false;
    }
    if (!put(staging.pending_[s].data(),
             sizes[1] * sizeof(Staging::Pending))) {
      return false;
    }
    if (delta) {
      if (!put(staging.recs_[s].data(), sizes[2])) return false;
      if (!put(staging.rec_lens_[s].data(), sizes[1] * sizeof(uint32_t))) {
        return false;
      }
    }
  }
  return true;
}

bool ShardedStateStore::ReadStaging(std::FILE* file, Staging* staging) const {
  auto get = [&](void* data, size_t bytes) {
    return bytes == 0 || std::fread(data, 1, bytes, file) == bytes;
  };
  ResetStaging(staging);
  uint64_t count = 0;
  if (!get(&count, sizeof(count))) return false;
  staging->count_ = static_cast<uint32_t>(count);
  const bool delta = options_.encoding == StoreOptions::KeyEncoding::kDelta;
  for (size_t s = 0; s < shards_.size(); ++s) {
    uint64_t sizes[3] = {0, 0, 0};
    if (!get(sizes, sizeof(sizes))) return false;
    staging->words_[s].resize(sizes[0]);
    staging->pending_[s].resize(sizes[1]);
    if (!get(staging->words_[s].data(), sizes[0] * sizeof(uint64_t))) {
      return false;
    }
    if (!get(staging->pending_[s].data(),
             sizes[1] * sizeof(Staging::Pending))) {
      return false;
    }
    if (delta) {
      staging->recs_[s].resize(sizes[2]);
      staging->rec_lens_[s].resize(sizes[1]);
      if (!get(staging->recs_[s].data(), sizes[2])) return false;
      if (!get(staging->rec_lens_[s].data(),
               sizes[1] * sizeof(uint32_t))) {
        return false;
      }
    }
  }
  return true;
}

uint64_t ShardedStateStore::StagingBytes(const Staging& staging) const {
  uint64_t bytes = 0;
  for (size_t s = 0; s < staging.words_.size(); ++s) {
    bytes += staging.words_[s].size() * sizeof(uint64_t) +
             staging.pending_[s].size() * sizeof(Staging::Pending) +
             staging.recs_[s].size() +
             staging.rec_lens_[s].size() * sizeof(uint32_t);
  }
  return bytes;
}

std::vector<GlobalNode> ShardedStateStore::PathFromRoot(uint32_t id) const {
  std::vector<GlobalNode> path;
  uint32_t cur = id;
  while (true) {
    const Slot s = Unpack(index_[cur]);
    const ParentLink& link = shards_[s.shard].parents[s.local];
    if (link.parent == kNoId) break;
    path.push_back(GlobalNode{link.move_txn, link.move_node});
    cur = link.parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

StoreMemoryStats ShardedStateStore::MemoryStats() const {
  StoreMemoryStats m;
  m.link_bytes = index_.capacity() * sizeof(uint64_t) +
                 fresh_marks_.capacity() * sizeof(uint64_t);
  for (const Shard& shard : shards_) {
    m.arena_bytes += shard.keys.capacity() * sizeof(uint64_t) +
                     shard.aux.capacity() * sizeof(uint64_t) +
                     shard.hashes.capacity() * sizeof(uint64_t) +
                     shard.rec_off.capacity() * sizeof(uint64_t) +
                     shard.recs.capacity();
    m.probe_bytes += shard.slots.capacity() * sizeof(uint32_t);
    m.link_bytes += shard.parents.capacity() * sizeof(ParentLink);
  }
  return m;
}

size_t ShardedStateStore::MemoryBytes() const {
  return MemoryStats().total();
}

}  // namespace wydb
