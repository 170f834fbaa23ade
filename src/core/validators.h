// Paper-property validators: executable forms of the paper's guarantees,
// compiled in only under -DGQR_VALIDATE=ON (zero cost otherwise).
//
//   Property 1 — the Append/Swap generation emits every flipping vector
//     exactly once. Validated by hashing every emission key (the sorted
//     flipping-vector mask for GQR, the bucket signature for QR/HR/GHR)
//     into a per-query set and aborting on a duplicate.
//   Property 2 — emissions come in non-decreasing score (QD or Hamming)
//     order, which is what makes budget- and score-based early stopping
//     sound. Validated per Next() against the previous score, with a
//     tiny relative tolerance for the incremental QD arithmetic.
//   Theorem 2 — mu * QD(q, b) lower-bounds the true Euclidean distance
//     from q to every item of bucket b. Validated in the Searcher, against
//     the prober's qd_bound(), for every candidate it evaluates whenever
//     the caller supplies a Theorem-2 mu (SearchOptions::termination, or
//     RangeSearch's mu) under the Euclidean metric.
//
// The hooks are compile-time: probers carry a validator member and the
// Searcher calls ValidateTheorem2Bound only inside GQR_VALIDATE_ENABLED
// blocks, so release builds contain no trace of this machinery. The
// validating CI leg builds with -DGQR_VALIDATE=ON and runs the full
// suite — including the differential suites (sharded vs single-table,
// GQR vs QR) — under these contracts.
#ifndef GQR_CORE_VALIDATORS_H_
#define GQR_CORE_VALIDATORS_H_

#include "util/check.h"

#if defined(GQR_VALIDATE) && GQR_VALIDATE
#define GQR_VALIDATE_ENABLED 1
#else
#define GQR_VALIDATE_ENABLED 0
#endif

#if GQR_VALIDATE_ENABLED

#include <cstdint>
#include <unordered_set>

namespace gqr {

/// Per-query watcher over one prober's emission stream. Constructed
/// alongside the prober (probers are per-query objects), so no reset is
/// needed between queries.
class ProbeSequenceValidator {
 public:
  /// `where` names the prober in failure messages; it must outlive the
  /// validator (string literals do).
  explicit ProbeSequenceValidator(const char* where) : where_(where) {}

  /// Records one emission: `key` must be globally unique across the
  /// prober's stream (Property 1) and `score` non-decreasing
  /// (Property 2).
  void ObserveEmission(uint64_t key, double score);

  /// Property 2 only — for merged streams (MultiProber) where the same
  /// bucket signature legitimately recurs across tables.
  void ObserveScore(double score);

  size_t emitted() const { return emitted_; }

 private:
  const char* where_;
  std::unordered_set<uint64_t> seen_;
  double last_score_ = 0.0;
  bool any_ = false;
  size_t emitted_ = 0;
};

/// Theorem 2: mu * score must lower-bound the exact Euclidean distance
/// of an item evaluated from the bucket whose QD is `score`. Aborts with
/// both sides of the inequality on violation.
void ValidateTheorem2Bound(double mu, double score, double distance);

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

#endif  // GQR_VALIDATE_ENABLED

#endif  // GQR_CORE_VALIDATORS_H_
