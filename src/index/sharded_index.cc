#include "index/sharded_index.h"

#include <algorithm>
#include <span>

namespace gqr {

namespace {

// SplitMix64 finalizer: spreads structured id spaces (sequential ingest
// ids, row indices) evenly across shards.
inline uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardedIndex::ShardedIndex(int code_length, size_t num_shards)
    : code_length_(code_length) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(code_length));
  }
}

size_t ShardedIndex::ShardOf(ItemId id) const {
  return static_cast<size_t>(MixId(id) % shards_.size());
}

Status ShardedIndex::Insert(ItemId id, Code code) {
  Shard& shard = *shards_[ShardOf(id)];
  ShardWriteLock lock(shard);
  Status status = shard.table.Insert(id, code);
  if (status.ok()) ++shard.version;
  return status;
}

Status ShardedIndex::Remove(ItemId id, Code code) {
  Shard& shard = *shards_[ShardOf(id)];
  ShardWriteLock lock(shard);
  Status status = shard.table.Remove(id, code);
  if (status.ok()) ++shard.version;
  return status;
}

bool ShardedIndex::Contains(ItemId id, Code code) const {
  const Shard& shard = *shards_[ShardOf(id)];
  ShardReadLock lock(shard);
  return shard.table.Contains(id, code);
}

size_t ShardedIndex::num_items() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ShardReadLock lock(*shard);
    total += shard->table.num_items();
  }
  return total;
}

size_t ShardedIndex::shard_size(size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardReadLock lock(s);
  return s.table.num_items();
}

uint64_t ShardedIndex::shard_version(size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardReadLock lock(s);
  return s.version;
}

size_t ShardedIndex::ProbeShardLocked(const Shard& s, Code code,
                                      std::vector<ItemId>* out) const {
  // Serve from the frozen snapshot when it is current: the snapshot is
  // immutable, so only the pointer/version read needs the lock. The
  // bucket copy itself cannot race with writers either way — it happens
  // before the shared lock is released, and writers take the exclusive
  // side.
  if (s.snapshot_current()) {
    std::span<const ItemId> items = s.frozen->Probe(code);
    out->insert(out->end(), items.begin(), items.end());
    return items.size();
  }
  return s.table.ProbeInto(code, out);
}

size_t ShardedIndex::ProbeShard(size_t shard, Code code,
                                std::vector<ItemId>* out) const {
  const Shard& s = *shards_[shard];
  ShardReadLock lock(s);
  return ProbeShardLocked(s, code, out);
}

size_t ShardedIndex::ProbeAll(Code code, std::vector<ItemId>* out) const {
  size_t appended = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    appended += ProbeShard(s, code, out);
  }
  return appended;
}

std::vector<Code> ShardedIndex::BucketCodeUnion() const {
  // Every shard's code list is ascending and duplicate-free: a current
  // frozen snapshot's bucket_codes() is shared as is (the snapshot is
  // immutable, and the shared_ptr keeps it alive), a stale shard's live
  // table is walked and sorted. One k-way merge then drops the codes
  // several shards hold.
  std::vector<std::shared_ptr<const StaticHashTable>> frozen(shards_.size());
  std::vector<std::vector<Code>> live(shards_.size());
  std::vector<std::span<const Code>> lists;
  lists.reserve(shards_.size());
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    ShardReadLock lock(s);
    std::span<const Code> list;
    if (s.snapshot_current()) {
      frozen[i] = s.frozen;
      list = frozen[i]->bucket_codes();
    } else {
      live[i] = s.table.BucketCodes();
      list = live[i];
    }
    if (!list.empty()) lists.push_back(list);
    total += list.size();
  }
  std::vector<Code> codes;
  codes.reserve(total);
  while (!lists.empty()) {
    Code next = lists[0].front();
    for (const std::span<const Code>& list : lists) {
      next = std::min(next, list.front());
    }
    codes.push_back(next);
    for (size_t l = lists.size(); l-- > 0;) {
      if (lists[l].front() != next) continue;
      lists[l] = lists[l].subspan(1);
      if (lists[l].empty()) lists.erase(lists.begin() + l);
    }
  }
  return codes;
}

void ShardedIndex::FreezeShardLocked(Shard& s) {
  // Belt and braces at the gate: the attribute makes this a compile-time
  // requirement, the assertion re-states it to the analysis across any
  // future seam (and documents it at the point the version <-> snapshot
  // pairing is established).
  s.mu.AssertHeld();
  s.frozen = std::make_shared<const StaticHashTable>(s.table.SnapshotTable());
  s.frozen_version = s.version;
}

Status ShardedIndex::FreezeShard(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  Shard& s = *shards_[shard];
  // The snapshot is built under the exclusive lock: freezes are rare
  // (corpus stabilization points), and holding the lock keeps the
  // version <-> snapshot pairing exact.
  ShardWriteLock lock(s);
  FreezeShardLocked(s);
  return Status::OK();
}

void ShardedIndex::FreezeAll() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Cannot fail: every index in [0, num_shards) is valid.
    (void)FreezeShard(s);
  }
}

std::shared_ptr<const StaticHashTable> ShardedIndex::FrozenShard(
    size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardReadLock lock(s);
  return s.frozen;
}

bool ShardedIndex::ShardFrozen(size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardReadLock lock(s);
  return s.snapshot_current();
}

}  // namespace gqr
