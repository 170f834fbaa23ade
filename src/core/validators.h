// Paper-property validators: executable forms of the paper's guarantees.
//
//   Property 1 — every bucket of a probe stream is emitted exactly once.
//   Property 2 — emissions come in non-decreasing score (QD or Hamming)
//     order, which is what makes budget- and score-based early stopping
//     sound.
//   Theorem 2 — mu * QD(q, b) lower-bounds the true Euclidean distance
//     from q to every item of bucket b.
//
// The checks live where streams are consumed, not in the probers: the
// Searcher hands every bucket it takes from any BucketProber to
// ValidateProbedBucket, and the enumerators that are not BucketProbers
// (MIH, Multi-Probe LSH, IMI's multi-sequence sweep) feed their own
// emissions to a ProbeSequenceValidator. Everything here compiles in
// every build (the fuzz harness uses it in release builds too), but
// every call from product code sits inside a GQR_VALIDATE_ENABLED
// block, so release builds run none of it. The validating CI leg builds
// with -DGQR_VALIDATE=ON and runs the full suite under these contracts.
#ifndef GQR_CORE_VALIDATORS_H_
#define GQR_CORE_VALIDATORS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "core/prober.h"
#include "data/dataset.h"

#if defined(GQR_VALIDATE) && GQR_VALIDATE
#define GQR_VALIDATE_ENABLED 1
#else
#define GQR_VALIDATE_ENABLED 0
#endif

namespace gqr {

/// Watches one emission stream at a time: Property 2 on every
/// Observe(), Property 1 once per stream in Finish(). Its one key vector
/// keeps its capacity across streams, so a reused checker stops
/// allocating once it has seen its longest stream.
class ProbeSequenceValidator {
 public:
  /// `where` names the stream's producer in failure messages; it must
  /// outlive the validator (string literals do).
  explicit ProbeSequenceValidator(const char* where) : where_(where) {}

  /// Finishes a stream still open, so an enumerator that stops early
  /// (budget reached, prober dropped) is held to Property 1 too.
  ~ProbeSequenceValidator() { Finish(); }

  /// Records one emission: `key` must be unique within `table` across
  /// the stream (Property 1) and `score` must not fall below the
  /// previous emission's, up to a 1e-9 relative slack for incremental
  /// score arithmetic (Property 2).
  void Observe(uint32_t table, uint64_t key, double score);

  /// Ends the stream: aborts if any (table, key) was observed twice
  /// (Property 1), then empties the checker for the next stream.
  void Finish();

 private:
  const char* where_;
  std::vector<std::pair<uint32_t, uint64_t>> keys_;  // (table, key).
  double last_score_ = 0.0;
};

/// The Searcher's one check per consumed bucket: records `target` with
/// the prober's last_score() in `stream` and, for a positive `mu` under
/// the Euclidean metric, checks Theorem 2: mu * prober.qd_bound() must
/// not exceed the exact distance from `query` to any of the bucket's
/// `items` (recomputed here, so compressed-mode searches are checked
/// too).
void ValidateProbedBucket(ProbeSequenceValidator* stream,
                          const BucketProber& prober,
                          const ProbeTarget& target,
                          std::span<const ItemId> items, double mu,
                          Metric metric, const float* query,
                          const Dataset& base);

/// Cross-checks one firing of the TerminationPolicy margin rule
/// (plan/termination.h) against the exact Theorem-2 inequality it
/// claims: the policy parameters must be usable (mu > 0, margin finite
/// and positive) and the bound mu * qd_bound >= margin * kth_distance
/// must actually hold, recomputed here from the raw components. Called
/// by the Searcher on every early-termination decision on the live
/// probe stream; a planted wrong margin (or a stop the bound does not
/// justify) aborts — tests/adaptive_plan_test.cc's death regression.
void ValidateTerminationDecision(double mu, double margin, double qd_bound,
                                 double kth_distance);

}  // namespace gqr

#endif  // GQR_CORE_VALIDATORS_H_
