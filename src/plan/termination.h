// TerminationPolicy: the margin-scaled Theorem-2 early-termination rule
// of the adaptive probe-budget planner (DESIGN.md section 16).
//
// Theorem 2 gives, for any item o of a bucket b, the lower bound
// ||o - q|| >= mu * QD(q, b). Probers emit buckets in non-decreasing
// score order and expose qd_bound() — a lower bound on the QD of the
// last bucket and of every bucket still to come — so once
//
//     mu * qd_bound() >= margin * d_k
//
// (d_k the running k-th nearest distance), no unprobed bucket can hold
// an item closer than margin * d_k, and probing stops. The margin
// trades exactness for probe cost:
//
//   margin = inf  never fires: results are bit-identical to the same
//                 search without a policy (the differential contract of
//                 tests/adaptive_plan_test.cc).
//   margin = 1    the sound stop of §4.1: nothing the search skipped
//                 could have entered the top-k. Pure savings.
//   margin < 1    aggressive: stops once remaining items provably lie
//                 beyond margin * d_k. Every returned distance is then
//                 guaranteed within a 1/margin factor of what the full
//                 fixed-budget search over the same stream returns
//                 (per-rank: d_adaptive[i] <= d_fixed[i] / margin — see
//                 the proof sketch in DESIGN.md section 16).
//
// Under GQR_VALIDATE every firing of the rule is re-derived from the
// exact Theorem-2 inequality by core/validators.cc, and every item of
// every bucket the Searcher consumes is checked against mu * qd_bound()
// on the live stream.
#ifndef GQR_PLAN_TERMINATION_H_
#define GQR_PLAN_TERMINATION_H_

#include <cmath>
#include <limits>

namespace gqr {

struct TerminationPolicy {
  /// Theorem 2 constant of the prober's hasher (core/qd.h TheoremTwoMu);
  /// 0 disables the rule.
  double mu = 0.0;
  /// Stop threshold scale on the k-th distance; must be positive.
  /// Infinity (the default) disables the rule.
  double margin = std::numeric_limits<double>::infinity();

  /// True when the rule can ever fire. A policy with mu = 0 or an
  /// infinite margin is inert and the search is bit-identical to one
  /// with no policy at all.
  bool enabled() const { return mu > 0.0 && std::isfinite(margin); }

  /// True when margin is usable (positive; infinity allowed — it simply
  /// never fires). Checked by the Searcher at query start.
  bool valid() const { return margin > 0.0 && mu >= 0.0; }

  /// The rule itself: every unprobed item lies at least mu * qd_bound
  /// away; stop once that provably exceeds margin * kth_distance.
  bool ShouldStop(double qd_bound, double kth_distance) const {
    return mu * qd_bound >= margin * kth_distance;
  }
};

}  // namespace gqr

#endif  // GQR_PLAN_TERMINATION_H_
