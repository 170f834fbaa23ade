// GHR: generate-to-probe Hamming ranking, a.k.a. hash lookup (paper
// §6.3) — HR's slow start removed the same way GQR removes QR's.
//
// Generates candidate codes directly in ascending Hamming distance from
// c(q): radius 0 is c(q) itself, radius r enumerates all C(m, r) flip
// masks via Gosper's hack. Lazily enumerates, so a budget-limited search
// touches only a prefix of the 2^m code space (possibly including empty
// buckets, which cost one failed table lookup each).
#ifndef GQR_CORE_GHR_PROBER_H_
#define GQR_CORE_GHR_PROBER_H_

#include <vector>

#include "core/prober.h"
#include "hash/binary_hasher.h"

namespace gqr {

class GhrProber : public BucketProber {
 public:
  /// code_length is m; info supplies c(q). The probe *order* ignores the
  /// flip costs — Hamming ranking uses no magnitude information, which
  /// is exactly its coarse-grain problem — but qd_bound() keeps their
  /// sorted prefix sums so bound-based termination stays sound here too.
  GhrProber(const QueryHashInfo& info, uint32_t table = 0);

  bool Next(ProbeTarget* target) override;
  double last_score() const override {
    return static_cast<double>(radius_);
  }

  /// Sum of the radius_ smallest flipping costs: a bucket differing in
  /// h >= radius_ bits has QD at least this large (see HrProber).
  double qd_bound() const override {
    return cost_prefix_[static_cast<size_t>(radius_)];
  }

 private:
  /// Advances mask_ to the next flip mask, bumping the radius when the
  /// current radius is exhausted. Returns false past radius m.
  bool AdvanceMask();

  uint32_t table_;
  int m_;
  Code query_code_;
  Code code_space_mask_;
  std::vector<double> cost_prefix_;  // Prefix sums of sorted flip costs.
  int radius_ = 0;       // Hamming distance of the last emitted bucket.
  uint64_t mask_ = 0;    // Current flip mask (popcount == radius_).
  bool emitted_root_ = false;
};

}  // namespace gqr

#endif  // GQR_CORE_GHR_PROBER_H_
