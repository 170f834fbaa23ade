#include "core/validators.h"

#if GQR_VALIDATE_ENABLED

#include <cmath>
#include <cstdint>

namespace gqr {

namespace {

// Incremental QD updates (parent QD + cost deltas) and the sorted-cost
// prefix sums they shadow agree only up to rounding; allow a relative
// slack far below any real ordering violation.
constexpr double kScoreSlack = 1e-9;

}  // namespace

void ProbeSequenceValidator::ObserveEmission(uint64_t key, double score) {
  GQR_CHECK(seen_.insert(key).second)
      << " [" << where_ << "] Property 1 violated: emission key 0x"
      << std::hex << key << std::dec << " generated twice (emission #"
      << emitted_ << ")";
  ObserveScore(score);
}

void ProbeSequenceValidator::ObserveScore(double score) {
  if (any_) {
    GQR_CHECK_GE(score, last_score_ - kScoreSlack * (1.0 + std::abs(
                                                              last_score_)))
        << " [" << where_ << "] Property 2 violated: score decreased at "
        << "emission #" << emitted_;
  }
  any_ = true;
  last_score_ = score;
  ++emitted_;
}

void ValidateTheorem2Bound(double mu, double score, double distance) {
  GQR_CHECK_LE(mu * score, distance + 1e-4 * (1.0 + distance))
      << " [Searcher] Theorem 2 violated: mu*QD must lower-bound the "
      << "Euclidean distance of every item in the probed bucket (mu="
      << mu << ", QD=" << score << ")";
}

void ValidateTerminationDecision(double mu, double margin, double qd_bound,
                                 double kth_distance) {
  GQR_CHECK_GT(mu, 0.0)
      << " [Searcher] termination fired with no Theorem 2 constant";
  GQR_CHECK(std::isfinite(margin) && margin > 0.0)
      << " [Searcher] termination fired with an unusable margin "
      << margin;
  // Recompute the claimed inequality from its raw components; the tiny
  // relative slack absorbs nothing but the multiply's own rounding, so
  // a stop the bound does not justify (e.g. a sign or side mix-up in
  // the Searcher's condition) aborts here.
  GQR_CHECK_GE(mu * qd_bound,
               margin * kth_distance * (1.0 - 1e-12) - 1e-300)
      << " [Searcher] early termination not justified by Theorem 2: "
      << "mu * qd_bound = " << mu * qd_bound << " < margin * d_k = "
      << margin * kth_distance;
}

}  // namespace gqr

#endif  // GQR_VALIDATE_ENABLED
