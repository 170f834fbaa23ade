// MultiProber: merges the bucket streams of several per-table probers by
// their similarity indicator, yielding a single globally score-ordered
// probe sequence across tables (paper §6.3.5 evaluates multi-table GHR;
// the same merge works for GQR since both emit non-decreasing scores).
//
// A multi-table search has no score stop: MultiProber keeps the default
// qd_bound() of 0, so TerminationPolicy and RangeSearch's mu never fire
// on it, and only the candidate and bucket budgets end the search.
#ifndef GQR_CORE_MULTI_PROBER_H_
#define GQR_CORE_MULTI_PROBER_H_

#include <memory>
#include <queue>
#include <vector>

#include "core/prober.h"

namespace gqr {

class MultiProber : public BucketProber {
 public:
  /// Takes ownership of one prober per table. Each must emit buckets in
  /// non-decreasing last_score() order (all probers in this library do).
  explicit MultiProber(std::vector<std::unique_ptr<BucketProber>> probers);

  bool Next(ProbeTarget* target) override;
  double last_score() const override { return last_score_; }

 private:
  struct Pending {
    double score;
    ProbeTarget target;
    size_t prober;

    bool operator>(const Pending& other) const {
      if (score != other.score) return score > other.score;
      return prober > other.prober;
    }
  };

  /// Pulls the next bucket from prober p into the merge heap.
  void Refill(size_t p);

  std::vector<std::unique_ptr<BucketProber>> probers_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      heap_;
  double last_score_ = 0.0;
};

}  // namespace gqr

#endif  // GQR_CORE_MULTI_PROBER_H_
