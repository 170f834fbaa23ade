// GQR: generate-to-probe quantization-distance ranking (paper §5,
// Algorithms 2-4) — the headline algorithm of the paper.
//
// Instead of computing and sorting QD for every bucket upfront (QR's
// "slow start"), GQR generates the bucket with the next-smallest QD on
// demand. Per-query state:
//
//   - The *sorted projected vector* (Definition 3): flipping costs sorted
//     ascending, with the permutation back to original bit positions.
//   - A min-heap over *sorted flipping vectors* (Definition 2/3). Each
//     heap entry is a <= 64-bit mask over sorted cost positions, its QD,
//     and the index of its rightmost set bit — O(1) per entry, so the
//     generation tree of Definition 4 is never materialized (this is the
//     "shared generation tree" optimization of §5.3 taken to its limit:
//     the tree structure is implicit in two bit operations, which
//     micro_core measured faster than following a precomputed tree).
//
// Expansion follows Algorithm 4: popping entry v with rightmost set bit j
// pushes Append(v) (set bit j+1; QD + cost[j+1]) and Swap(v) (move bit j
// to j+1; QD + cost[j+1] - cost[j]). Property 1 (every flipping vector
// generated exactly once) and Property 2 (children have >= QD) make the
// emission order exactly ascending QD — tested invariants.
#ifndef GQR_CORE_GQR_PROBER_H_
#define GQR_CORE_GQR_PROBER_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "core/prober.h"
#include "hash/binary_hasher.h"
#include "util/attributes.h"

namespace gqr {

class GqrProber : public BucketProber {
 public:
  /// `table` tags emitted ProbeTargets (multi-table probing composes
  /// several GqrProbers; see multi_prober.h).
  explicit GqrProber(const QueryHashInfo& info, uint32_t table = 0);

  /// Emits buckets in ascending QD; the first bucket is c(q) itself
  /// (QD 0). Exhausts after all 2^m buckets. GQR_HOT: the per-probe
  /// path is statically checked allocation-free (gqr-analyze);
  /// heap growth stays within the capacity reserved at construction.
  GQR_HOT bool Next(ProbeTarget* target) override;

  double last_score() const override { return last_qd_; }

  /// GQR's score *is* the quantization distance, and emission order is
  /// ascending QD, so the last QD lower-bounds every future one.
  double qd_bound() const override { return last_qd_; }

  /// Current heap size (paper: at most i entries after i iterations).
  size_t heap_size() const { return heap_.size(); }

 private:
  struct Entry {
    double qd;
    uint64_t mask;  // Sorted flipping vector: bit s = flip sorted pos s.
    int rightmost;  // Index of the highest set bit of mask.

    bool operator>(const Entry& other) const {
      // Min-heap on QD; mask as a deterministic tie-break.
      if (qd != other.qd) return qd > other.qd;
      return mask > other.mask;
    }
  };

  /// Pushes both children of `top` (Algorithm 4's Append and Swap).
  GQR_HOT void Expand(const Entry& top);

  /// Applies Algorithm 3: flips the original code bits addressed by the
  /// sorted mask through the sort permutation.
  GQR_HOT Code BucketForMask(uint64_t mask) const;

  uint32_t table_;
  int m_;
  Code query_code_;
  std::vector<double> sorted_costs_;  // Ascending flip costs.
  std::vector<int> perm_;             // sorted pos -> original bit index.
  // Min-heap over sorted flipping vectors. Its storage is reserved at
  // construction (the heap grows by at most one entry per Next), so
  // probing a typical candidate budget never reallocates mid-stream.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  bool emitted_root_ = false;
  double last_qd_ = 0.0;
};

}  // namespace gqr

#endif  // GQR_CORE_GQR_PROBER_H_
