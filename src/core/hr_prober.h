// HR: Hamming ranking (paper §2.2) — the default querying method of
// existing L2H work and the paper's main baseline.
//
// Sorts all non-empty buckets by Hamming distance to the query's code
// (bucket sort over the m+1 possible distances, the O(B) retrieval the
// paper credits HR with) and probes in that order, ties broken by code.
#ifndef GQR_CORE_HR_PROBER_H_
#define GQR_CORE_HR_PROBER_H_

#include <vector>

#include "core/prober.h"
#include "hash/binary_hasher.h"
#include "index/hash_table.h"

namespace gqr {

class HrProber : public BucketProber {
 public:
  HrProber(const QueryHashInfo& info, const StaticHashTable& table,
           uint32_t table_id = 0);

  /// As above, from an explicit bucket list (ascending code order for the
  /// canonical within-distance tie-break) and code length m — used by the
  /// sharded path with the bucket-code union across shards.
  HrProber(const QueryHashInfo& info, const std::vector<Code>& bucket_codes,
           int code_length, uint32_t table_id = 0);

  bool Next(ProbeTarget* target) override;
  double last_score() const override { return last_distance_; }

  /// A bucket at Hamming distance h differs from c(q) in h bits, so its
  /// QD is at least the sum of the h smallest flipping costs — and
  /// future buckets have h' >= h, so the prefix sum lower-bounds every
  /// future QD too. This is what lets the Theorem-2 termination rule
  /// fire soundly on a Hamming-ranked stream.
  double qd_bound() const override {
    return cost_prefix_[static_cast<size_t>(last_distance_)];
  }

 private:
  uint32_t table_id_;
  std::vector<Code> order_;  // Ascending Hamming distance.
  std::vector<int> distances_;
  std::vector<double> cost_prefix_;  // Prefix sums of sorted flip costs.
  size_t pos_ = 0;
  double last_distance_ = 0.0;
};

}  // namespace gqr

#endif  // GQR_CORE_HR_PROBER_H_
