#include "core/validators.h"

#include <algorithm>
#include <cmath>

#include "la/vector_ops.h"
#include "util/check.h"

namespace gqr {

namespace {

// Incremental QD updates (parent QD + cost deltas) and the sorted-cost
// prefix sums they shadow agree only up to rounding; allow a relative
// slack far below any real ordering violation.
constexpr double kScoreSlack = 1e-9;

}  // namespace

void ProbeSequenceValidator::Observe(uint32_t table, uint64_t key,
                                     double score) {
  if (!keys_.empty()) {
    GQR_CHECK_GE(score, last_score_ - kScoreSlack * (1.0 + std::abs(
                                                              last_score_)))
        << " [" << where_ << "] Property 2 violated: score decreased at "
        << "emission #" << keys_.size() << " (table " << table << ")";
  }
  last_score_ = score;
  keys_.emplace_back(table, key);
}

void ProbeSequenceValidator::Finish() {
  std::sort(keys_.begin(), keys_.end());
  const auto dup = std::adjacent_find(keys_.begin(), keys_.end());
  GQR_CHECK(dup == keys_.end())
      << " [" << where_ << "] Property 1 violated: table " << dup->first
      << " key 0x" << std::hex << dup->second << std::dec
      << " emitted twice in a stream of " << keys_.size() << " emissions";
  keys_.clear();
}

void ValidateProbedBucket(ProbeSequenceValidator* stream,
                          const BucketProber& prober,
                          const ProbeTarget& target,
                          std::span<const ItemId> items, double mu,
                          Metric metric, const float* query,
                          const Dataset& base) {
  stream->Observe(target.table, target.bucket, prober.last_score());
  if (mu <= 0.0 || metric != Metric::kEuclidean) return;
  // Theorem 2: every item of the bucket lies at least mu * qd_bound()
  // away — the fact that makes the termination stop (and RangeSearch
  // exactness) sound. qd_bound()'s prefix-sum form is what keeps the
  // Hamming probers (whose last_score is a bit count, not a QD) inside
  // Theorem 2. A wrongly large mu fires here on the live probe stream.
  const double bound = mu * prober.qd_bound();
  for (ItemId id : items) {
    const double distance = L2Distance(query, base.Row(id), base.dim());
    GQR_CHECK_LE(bound, distance + 1e-4 * (1.0 + distance))
        << " [Searcher] Theorem 2 violated: mu*QD must lower-bound the "
        << "Euclidean distance of every item in the probed bucket (mu="
        << mu << ", QD=" << prober.qd_bound() << ", item " << id << ")";
  }
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
