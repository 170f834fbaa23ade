// BucketProber: the querying-method abstraction.
//
// A querying method is, per the paper, exactly a rule for the *order in
// which buckets are probed*. A prober is constructed per query and emits
// (table, bucket-signature) pairs in its method's order:
//   - HR  (hr_prober.h):  ascending Hamming distance, full sort upfront.
//   - GHR (ghr_prober.h): ascending Hamming distance, generate-to-probe.
//   - QR  (qr_prober.h):  ascending quantization distance, full sort.
//   - GQR (gqr_prober.h): ascending quantization distance, generate-to-
//                         probe (the paper's headline algorithm).
// The Searcher (searcher.h) consumes any prober, evaluates probed items,
// and reranks — so querying methods are swappable under one API.
#ifndef GQR_CORE_PROBER_H_
#define GQR_CORE_PROBER_H_

#include <cstdint>

#include "util/bits.h"

namespace gqr {

/// One bucket to probe: a table index (0 for single-table methods) and
/// the bucket's signature in that table.
struct ProbeTarget {
  uint32_t table = 0;
  Code bucket = 0;
};

class BucketProber {
 public:
  virtual ~BucketProber() = default;

  /// Emits the next bucket to probe. Returns false when the method has
  /// exhausted its bucket sequence.
  virtual bool Next(ProbeTarget* target) = 0;

  /// The similarity indicator (QD for QR/GQR, Hamming distance for
  /// HR/GHR) of the bucket last returned by Next(). Probers emit buckets
  /// in non-decreasing score order (Property 2). The Searcher's stops do
  /// not read it — a Hamming distance is no distance bound — but
  /// qd_bound() below.
  virtual double last_score() const = 0;

  /// A sound lower bound on the quantization distance of the bucket last
  /// emitted AND of every bucket this prober will emit later. Theorem 2
  /// turns it into a distance bound — every item of any
  /// current-or-future bucket lies at least mu * qd_bound() away — which
  /// is what makes the TerminationPolicy margin rule
  /// (plan/termination.h) sound for every method:
  ///   QR/GQR  return last_score() (the QD itself; future QDs are >=).
  ///   HR/GHR  return the sum of the h smallest flipping costs at
  ///           Hamming radius h: a bucket differing in h' >= h bits has
  ///           QD >= that prefix sum (costs are non-negative).
  /// The default returns 0 — no usable bound, so bound-based termination
  /// never fires — which is the only sound answer for probers that merge
  /// streams (MultiProber) or carry no cost information.
  virtual double qd_bound() const { return 0.0; }
};

}  // namespace gqr

#endif  // GQR_CORE_PROBER_H_
