// StaticHashTable: the bucket index of one hash table.
//
// Built once from the per-item codes, then immutable: item ids are sorted
// by code into one contiguous array, and probing a bucket is one lookup
// of its (offset, length) plus a linear span scan. The lookup depends on
// how full the code space is (DESIGN.md section 1):
//  - dense (2^m <= 2 * B): a by-code offset array of 2^m + 1 entries, so
//    bucket c is [off[c], off[c + 1]) — two adjacent loads, no hashing;
//  - sparse (large m): an open-addressing map from code to bucket index,
//    the only layout whose size does not grow with 2^m.
// The dense array is never larger than the slot map it replaces (which
// holds >= 2B slots). This mirrors how L2H indexes are deployed (build
// offline, probe online) and keeps the probe path allocation-free.
#ifndef GQR_INDEX_HASH_TABLE_H_
#define GQR_INDEX_HASH_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/bits.h"

namespace gqr {

class StaticHashTable {
 public:
  StaticHashTable() = default;

  /// Builds the table from codes[i] = bucket signature of item i.
  /// code_length is m (1..64); codes must fit in m bits.
  StaticHashTable(const std::vector<Code>& codes, int code_length);

  /// Builds the table from an explicit id set: codes[i] is the bucket
  /// signature of item ids[i]. The ids need not be dense — this is how a
  /// shard of a partitioned index freezes, holding an arbitrary subset of
  /// the corpus. Buckets come out sorted by code, items within a bucket
  /// ascending by id (matching the dense constructor).
  StaticHashTable(const std::vector<ItemId>& ids,
                  const std::vector<Code>& codes, int code_length);

  int code_length() const { return code_length_; }
  size_t num_items() const { return item_ids_.size(); }
  /// Number of non-empty buckets (B in the paper's complexity analysis).
  size_t num_buckets() const { return bucket_codes_.size(); }

  /// Items in bucket `code`; empty span when the bucket does not exist.
  std::span<const ItemId> Probe(Code code) const;

  /// Signature of every non-empty bucket (ascending code order).
  const std::vector<Code>& bucket_codes() const { return bucket_codes_; }

  /// Size of bucket index b (aligned with bucket_codes()).
  size_t bucket_size(size_t b) const {
    return bucket_offsets_[b + 1] - bucket_offsets_[b];
  }
  /// Items of bucket index b.
  std::span<const ItemId> bucket_items(size_t b) const {
    return {item_ids_.data() + bucket_offsets_[b],
            bucket_offsets_[b + 1] - bucket_offsets_[b]};
  }

  /// True when probes read the by-code offset array (dense code space,
  /// 2^m <= 2B); false when they go through the sparse slot map.
  bool direct_addressed() const { return !by_code_.empty(); }

  /// Largest bucket population; useful for occupancy diagnostics.
  size_t MaxBucketSize() const;

 private:
  /// Open-addressing lookup: index into bucket_codes_ or kNotFound.
  static constexpr uint32_t kNotFound = 0xffffffffu;
  uint32_t FindBucket(Code code) const;
  /// Builds by_code_ (dense code space) or slots_ / slot_mask_ (sparse)
  /// from the finished bucket_codes_ / bucket_offsets_.
  void BuildLookup();

  int code_length_ = 0;
  std::vector<ItemId> item_ids_;         // Sorted by code, then id.
  std::vector<Code> bucket_codes_;       // Ascending unique codes.
  std::vector<uint32_t> bucket_offsets_; // Size num_buckets + 1.
  // Dense code space only: 2^m + 1 item offsets indexed by code; empty
  // otherwise.
  std::vector<uint32_t> by_code_;
  // Sparse code space only — open addressing: slot -> bucket index + 1,
  // 0 = empty.
  std::vector<uint32_t> slots_;
  uint64_t slot_mask_ = 0;
};

}  // namespace gqr

#endif  // GQR_INDEX_HASH_TABLE_H_
