#include "core/multi_prober.h"

namespace gqr {

MultiProber::MultiProber(
    std::vector<std::unique_ptr<BucketProber>> probers)
    : probers_(std::move(probers)) {
  for (size_t p = 0; p < probers_.size(); ++p) Refill(p);
}

void MultiProber::Refill(size_t p) {
  ProbeTarget t;
  if (probers_[p]->Next(&t)) {
    heap_.push(Pending{probers_[p]->last_score(), t, p});
  }
}

bool MultiProber::Next(ProbeTarget* target) {
  if (heap_.empty()) return false;
  const Pending top = heap_.top();
  heap_.pop();
  Refill(top.prober);
  last_score_ = top.score;
  *target = top.target;
  return true;
}

}  // namespace gqr
