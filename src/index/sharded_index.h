// ShardedIndex: an N-way sharded DynamicHashTable for concurrent serving.
//
// DynamicHashTable assumes a single writer and no reader overlap. This
// wrapper partitions the corpus by item id across N shards, each guarded
// by its own annotated SharedMutex (util/sync.h), so the index supports
// concurrent Insert/Remove (exclusive per shard) while readers probe
// (shared per shard). Every probe copies the bucket out under the
// shard's lock — readers never hold references into mutable storage, so
// a snapshot can never observe a half-inserted bucket or a reallocation.
//
// Each shard carries a version counter (bumped by every successful
// mutation) and an optional frozen StaticHashTable snapshot, swapped in
// by FreezeShard under a read-mostly shared_ptr. While a shard's frozen
// snapshot is current (frozen version == live version), probes are served
// from the immutable snapshot; the first mutation after a freeze makes
// probes fall back to the live table. This is the serving lifecycle of
// the paper's deployment model — ingest into the dynamic side, freeze to
// the probe-optimal static layout once traffic stabilizes.
//
// Readers wait for writers: an Insert or Remove holds the exclusive lock
// for one table update, but FreezeShard builds the whole snapshot under
// it, so a reader of that shard can block for one snapshot build.
//
// Each probe takes the shard's shared lock for that one bucket, so a
// query is consistent per bucket, not per query: a write that lands
// between two of its buckets is seen by the later bucket. A query that
// starts after a Remove returns never sees the removed item.
//
// The locking protocol is a compile-time contract: every guarded shard
// field is GQR_GUARDED_BY(shard.mu), the lock-held helpers carry
// GQR_REQUIRES(_SHARED), and acquisition goes through the scoped
// ShardReadLock/ShardWriteLock types below (which also implement the
// writer-preference gate). Clang's -Wthread-safety verifies all of it on
// the thread-safety CI leg; gqr-analyze's token rules reject raw std
// mutexes here outright.
#ifndef GQR_INDEX_SHARDED_INDEX_H_
#define GQR_INDEX_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/dynamic_table.h"
#include "index/hash_table.h"
#include "util/atomic.h"
#include "util/bits.h"
#include "util/status.h"
#include "util/sync.h"

namespace gqr {

class ShardedIndex {
 public:
  /// `num_shards` >= 1; clamped to 1 when 0 is passed. Shards partition
  /// items by a mixed hash of the id, so sequential and structured id
  /// spaces both balance.
  ShardedIndex(int code_length, size_t num_shards);

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  int code_length() const { return code_length_; }
  size_t num_shards() const { return shards_.size(); }

  /// The shard owning item `id` (pure function of id and shard count).
  size_t ShardOf(ItemId id) const;

  /// Adds an item under `code` to its shard (exclusive lock on that shard
  /// only). Error statuses are those of DynamicHashTable::Insert.
  Status Insert(ItemId id, Code code);

  /// Removes an item from its shard (exclusive lock on that shard only).
  Status Remove(ItemId id, Code code);

  /// True if the id is currently indexed under `code` (shared lock).
  bool Contains(ItemId id, Code code) const;

  /// Total items across shards. Each shard is read under its shared lock;
  /// the sum is not a cross-shard atomic snapshot (fine for monitoring
  /// and for quiesced verification).
  size_t num_items() const;

  /// Items in shard `shard` (shared lock).
  size_t shard_size(size_t shard) const;

  /// Mutation counter of `shard`: bumped once per successful Insert or
  /// Remove. Readers can detect "shard unchanged since I looked".
  uint64_t shard_version(size_t shard) const;

  /// Appends the items of bucket `code` in `shard` to `*out`, copied
  /// under the shard's shared lock (or served lock-light from the frozen
  /// snapshot when it is current). Returns the number appended.
  size_t ProbeShard(size_t shard, Code code, std::vector<ItemId>* out) const;

  /// Appends bucket `code` across all shards in shard order. Because the
  /// shards partition the corpus, the union equals the bucket of an
  /// unsharded table with the same contents.
  size_t ProbeAll(Code code, std::vector<ItemId>* out) const;

  /// Sorted, de-duplicated union of non-empty bucket codes across shards
  /// — the bucket list HR/QR probers rank. Equal to the bucket_codes()
  /// of an unsharded table with the same contents. Linear in the shards'
  /// bucket counts when every shard is frozen; a stale shard adds the
  /// sort of its live bucket codes.
  std::vector<Code> BucketCodeUnion() const;

  /// Freezes `shard`: builds an immutable StaticHashTable snapshot of its
  /// current contents and publishes it under the shard's read-mostly
  /// pointer. Probes of this shard are then served from the snapshot
  /// until the next mutation. Returns InvalidArgument for a bad index.
  Status FreezeShard(size_t shard);

  /// Freezes every shard.
  void FreezeAll();

  /// The last published snapshot of `shard` (null before the first
  /// freeze). The snapshot is immutable; it may be stale if the shard
  /// mutated after the freeze — compare shard_version yourself if that
  /// matters.
  std::shared_ptr<const StaticHashTable> FrozenShard(size_t shard) const;

  /// True when `shard`'s frozen snapshot exists and no mutation happened
  /// after it was taken.
  bool ShardFrozen(size_t shard) const;

 private:
  struct Shard {
    explicit Shard(int code_length) : table(code_length) {}

    // The capability guarding everything below it. `mutable` so const
    // (reader) methods can lock; the annotated type keeps even those
    // reads inside compiler-checked scopes.
    mutable SharedMutex mu;
    // Advisory writer-preference gate, deliberately NOT guarded by mu:
    // glibc's shared_mutex is reader-preferring, so under sustained read
    // load an unbroken relay of shared holders starves ingest and
    // freezes indefinitely. Readers yield while this is non-zero (a
    // counter-intent atomic — the lock itself provides all
    // synchronization);
    // a reader may slip past a registering writer, which costs the
    // writer one more beat, never correctness.
    mutable Atomic<int> writers_waiting{0};
    DynamicHashTable table GQR_GUARDED_BY(mu);
    uint64_t version GQR_GUARDED_BY(mu) = 0;
    uint64_t frozen_version GQR_GUARDED_BY(mu) = 0;
    std::shared_ptr<const StaticHashTable> frozen GQR_GUARDED_BY(mu);

    /// True when the frozen snapshot exists and no mutation happened
    /// after it was taken, so it may stand in for the live table.
    bool snapshot_current() const GQR_REQUIRES_SHARED(mu) {
      return frozen != nullptr && frozen_version == version;
    }
  };

  /// Scoped shared lock on one shard, with the writer-preference gate in
  /// front. Acquiring while already holding the shard's lock in either
  /// mode is a compile-time error (double-acquire) — the invariant the
  /// old ReadLock() helper could only state in a comment.
  class GQR_SCOPED_CAPABILITY ShardReadLock {
   public:
    explicit ShardReadLock(const Shard& s) GQR_ACQUIRE_SHARED(s.mu)
        : mu_(&s.mu) {
      while (s.writers_waiting.Load() > 0) {
        SpinYield();
      }
      mu_->LockShared();
    }
    ~ShardReadLock() GQR_RELEASE() { mu_->UnlockShared(); }

    ShardReadLock(const ShardReadLock&) = delete;
    ShardReadLock& operator=(const ShardReadLock&) = delete;

   private:
    SharedMutex* mu_;
  };

  /// Scoped exclusive lock on one shard; registers in the gate while
  /// contending so readers yield.
  class GQR_SCOPED_CAPABILITY ShardWriteLock {
   public:
    explicit ShardWriteLock(Shard& s) GQR_ACQUIRE(s.mu) : mu_(&s.mu) {
      s.writers_waiting.FetchAdd(1);
      mu_->Lock();
      s.writers_waiting.FetchSub(1);
    }
    ~ShardWriteLock() GQR_RELEASE() { mu_->Unlock(); }

    ShardWriteLock(const ShardWriteLock&) = delete;
    ShardWriteLock& operator=(const ShardWriteLock&) = delete;

   private:
    SharedMutex* mu_;
  };

  /// Lock-held body of ProbeShard: serves from the frozen snapshot when
  /// it is current, else copies out of the live table.
  size_t ProbeShardLocked(const Shard& s, Code code,
                          std::vector<ItemId>* out) const
      GQR_REQUIRES_SHARED(s.mu);

  /// Lock-held body of FreezeShard: publishes the snapshot and pairs it
  /// with the version at which it was taken.
  void FreezeShardLocked(Shard& s) GQR_REQUIRES(s.mu);

  int code_length_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gqr

#endif  // GQR_INDEX_SHARDED_INDEX_H_
