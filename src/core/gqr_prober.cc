#include "core/gqr_prober.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace gqr {

namespace {

// Heap storage reserved per prober. Each Next() pops one entry and pushes
// at most two, so after N emissions the heap holds at most N + 1 entries;
// 1024 covers every realistic bucket budget (the paper's sweeps probe
// hundreds of buckets), capped by the 2^m total bucket count for short
// codes. 24 bytes per entry -> at most 24 KB per in-flight query.
size_t HeapReserve(int m) {
  const size_t kBudget = 1024;
  if (m >= 11) return kBudget;
  return std::min(kBudget, size_t{1} << m);
}

}  // namespace

GqrProber::GqrProber(const QueryHashInfo& info, uint32_t table)
    : table_(table), m_(info.code_length()), query_code_(info.code) {
  GQR_CHECK(m_ >= 1 && m_ <= 64) << "code length " << m_;
  // Reserve the heap's backing vector up front: the container adaptor is
  // rebuilt from a reserved vector (the move preserves capacity), so
  // Next() only touches the allocator past HeapReserve() entries.
  std::vector<Entry> storage;
  storage.reserve(HeapReserve(m_));
  heap_ = decltype(heap_)(std::greater<Entry>(), std::move(storage));
  // Sorted projected vector (Definition 3): sort |p_i(q)| ascending and
  // remember the mapping back to original bit positions.
  perm_.resize(m_);
  std::iota(perm_.begin(), perm_.end(), 0);
  std::sort(perm_.begin(), perm_.end(), [&](int a, int b) {
    if (info.flip_costs[a] != info.flip_costs[b]) {
      return info.flip_costs[a] < info.flip_costs[b];
    }
    return a < b;
  });
  sorted_costs_.resize(m_);
  for (int s = 0; s < m_; ++s) sorted_costs_[s] = info.flip_costs[perm_[s]];
}

Code GqrProber::BucketForMask(uint64_t mask) const {
  Code bucket = query_code_;
  while (mask != 0) {
    const int s = LowestSetBit(mask);
    bucket = FlipBit(bucket, perm_[s]);
    mask &= mask - 1;
  }
  return bucket;
}

void GqrProber::Expand(const Entry& top) {
  if (top.rightmost + 1 >= m_) return;  // Leaf: no Append/Swap.
  const int j = top.rightmost;
  const double append_qd = top.qd + sorted_costs_[j + 1];
  const double swap_qd =
      top.qd + sorted_costs_[j + 1] - sorted_costs_[j];
  heap_.push(Entry{append_qd, top.mask | (uint64_t{1} << (j + 1)), j + 1});
  heap_.push(Entry{swap_qd,
                   (top.mask ^ (uint64_t{1} << j)) | (uint64_t{1} << (j + 1)),
                   j + 1});
}

bool GqrProber::Next(ProbeTarget* target) {
  if (!emitted_root_) {
    // Iteration 1 of Algorithm 2/4: probe the query's own bucket (the
    // all-zero flipping vector) and seed the heap with v^r = (1,0,...,0),
    // the root of the generation tree.
    emitted_root_ = true;
    heap_.push(Entry{sorted_costs_[0], uint64_t{1}, 0});
    last_qd_ = 0.0;
    target->table = table_;
    target->bucket = query_code_;
    return true;
  }
  if (heap_.empty()) return false;
  const Entry top = heap_.top();
  heap_.pop();
  Expand(top);
  last_qd_ = top.qd;
  target->table = table_;
  target->bucket = BucketForMask(top.mask);
  return true;
}

}  // namespace gqr
