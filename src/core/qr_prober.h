// QR: quantization-distance ranking (paper §4.2, Algorithm 1).
//
// Computes QD for every *non-empty* bucket of the table upfront, ranks
// them all, and probes in ascending order. Semantically what GQR
// produces, but orders every bucket before the first probe — the "slow
// start" GQR exists to remove. Kept as the reference implementation and
// for the Figure 6 comparison.
//
// The ranking is the exact (QD, code) order of a comparison sort, at
// linear expected cost: a counting sort scatters the buckets into one
// bin per bucket by a monotone map of QD, and each bin is then sorted
// with the exact comparator. When every QD is equal the single bin
// falls back to std::sort, so the worst case stays O(B log B).
#ifndef GQR_CORE_QR_PROBER_H_
#define GQR_CORE_QR_PROBER_H_

#include <vector>

#include "core/prober.h"
#include "hash/binary_hasher.h"
#include "index/hash_table.h"

namespace gqr {

class QrProber : public BucketProber {
 public:
  QrProber(const QueryHashInfo& info, const StaticHashTable& table,
           uint32_t table_id = 0);

  /// As above, from an explicit bucket list instead of a table — used by
  /// the sharded path, which ranks the bucket-code *union* across shards.
  /// Emission order depends only on the code set (ties broken by code),
  /// so this is identical to the table constructor when `bucket_codes`
  /// holds the table's bucket_codes() in any order.
  QrProber(const QueryHashInfo& info, const std::vector<Code>& bucket_codes,
           uint32_t table_id = 0);

  bool Next(ProbeTarget* target) override;
  double last_score() const override { return last_qd_; }

  /// QR's score is the quantization distance itself (ascending).
  double qd_bound() const override { return last_qd_; }

  /// One ranked bucket.
  struct Scored {
    double qd;
    Code bucket;
  };

 private:
  uint32_t table_id_;
  std::vector<Scored> order_;  // Ascending (QD, code).
  size_t pos_ = 0;
  double last_qd_ = 0.0;
};

}  // namespace gqr

#endif  // GQR_CORE_QR_PROBER_H_
