#include "index/hash_table.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace gqr {

namespace {

// SplitMix64: cheap, well-mixed integer hash for the code -> slot map.
inline uint64_t MixCode(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

namespace {

std::vector<ItemId> IotaIds(size_t n) {
  std::vector<ItemId> ids(n);
  std::iota(ids.begin(), ids.end(), ItemId{0});
  return ids;
}

}  // namespace

StaticHashTable::StaticHashTable(const std::vector<Code>& codes,
                                 int code_length)
    : StaticHashTable(IotaIds(codes.size()), codes, code_length) {}

StaticHashTable::StaticHashTable(const std::vector<ItemId>& ids,
                                 const std::vector<Code>& codes,
                                 int code_length)
    : code_length_(code_length) {
  GQR_CHECK(code_length >= 1 && code_length <= 64)
      << "code length " << code_length;
  GQR_CHECK_EQ(ids.size(), codes.size());
  const Code mask = LowBitsMask(code_length);
  (void)mask;
  const size_t n = ids.size();

  // Sort (code, id) pairs: items land bucket-contiguous, ascending by id
  // within a bucket (the dense constructor's order exactly).
  std::vector<std::pair<Code, ItemId>> entries(n);
  for (size_t i = 0; i < n; ++i) {
    GQR_CHECK_EQ(codes[i] & ~mask, Code{0})
        << "code exceeds code_length bits at item " << i;
    entries[i] = {codes[i], ids[i]};
  }
  std::sort(entries.begin(), entries.end());

  // Item array + unique codes + offsets.
  item_ids_.resize(n);
  bucket_offsets_.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    item_ids_[i] = entries[i].second;
    const Code c = entries[i].first;
    if (bucket_codes_.empty() || bucket_codes_.back() != c) {
      if (!bucket_codes_.empty()) {
        bucket_offsets_.push_back(static_cast<uint32_t>(i));
      }
      bucket_codes_.push_back(c);
    }
  }
  bucket_offsets_.push_back(static_cast<uint32_t>(n));
  if (bucket_codes_.empty()) bucket_offsets_.assign(1, 0);

  BuildLookup();
}

void StaticHashTable::BuildLookup() {
  const size_t buckets = bucket_codes_.size();
  // Dense: the same 2^m <= 2B rule as QrProber's flip-mask table.
  if (code_length_ < 32 && (size_t{1} << code_length_) <= 2 * buckets) {
    // by_code_[c] = offset of the first bucket whose code is >= c, so an
    // absent code reads an empty range and a present one its bucket.
    const size_t codes = size_t{1} << code_length_;
    by_code_.resize(codes + 1);
    size_t b = 0;
    for (size_t c = 0; c <= codes; ++c) {
      while (b < buckets && bucket_codes_[b] < c) ++b;
      by_code_[c] = bucket_offsets_[b];
    }
    return;
  }
  // Sparse: open-addressing map sized to <= 50% load.
  size_t slot_count = 16;
  while (slot_count < buckets * 2) slot_count <<= 1;
  slots_.assign(slot_count, 0);
  slot_mask_ = slot_count - 1;
  for (size_t b = 0; b < buckets; ++b) {
    uint64_t slot = MixCode(bucket_codes_[b]) & slot_mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & slot_mask_;
    slots_[slot] = static_cast<uint32_t>(b) + 1;
  }
}

uint32_t StaticHashTable::FindBucket(Code code) const {
  if (slots_.empty()) return kNotFound;
  uint64_t slot = MixCode(code) & slot_mask_;
  while (true) {
    const uint32_t v = slots_[slot];
    if (v == 0) return kNotFound;
    if (bucket_codes_[v - 1] == code) return v - 1;
    slot = (slot + 1) & slot_mask_;
  }
}

std::span<const ItemId> StaticHashTable::Probe(Code code) const {
  std::span<const ItemId> items;
  if (!by_code_.empty()) {
    if (code >= by_code_.size() - 1) return {};
    items = {item_ids_.data() + by_code_[code],
             by_code_[code + 1] - by_code_[code]};
  } else {
    const uint32_t b = FindBucket(code);
    if (b == kNotFound) return {};
    items = bucket_items(b);
  }
#if defined(__GNUC__) || defined(__clang__)
  // The caller is about to stream this id span into the candidate
  // gather; start pulling its first lines while it sets up.
  __builtin_prefetch(items.data(), 0, 3);
#endif
  return items;
}

size_t StaticHashTable::MaxBucketSize() const {
  size_t best = 0;
  for (size_t b = 0; b < num_buckets(); ++b) {
    best = std::max(best, bucket_size(b));
  }
  return best;
}

}  // namespace gqr
