#include "core/ghr_prober.h"

#include <algorithm>

#include "util/check.h"

namespace gqr {

GhrProber::GhrProber(const QueryHashInfo& info, uint32_t table)
    : table_(table),
      m_(info.code_length()),
      query_code_(info.code),
      code_space_mask_(LowBitsMask(info.code_length())) {
  // Gosper enumeration needs headroom bits.
  GQR_CHECK(m_ >= 1 && m_ <= 63) << "code length " << m_;
  std::vector<double> sorted_costs = info.flip_costs;
  std::sort(sorted_costs.begin(), sorted_costs.end());
  cost_prefix_.assign(static_cast<size_t>(m_) + 1, 0.0);
  for (int i = 0; i < m_; ++i) {
    cost_prefix_[i + 1] = cost_prefix_[i] + sorted_costs[i];
  }
}

bool GhrProber::AdvanceMask() {
  if (radius_ == 0 || mask_ == 0) {
    // Start radius 1: lowest mask with one bit.
    radius_ = 1;
    mask_ = 1;
    return true;
  }
  const uint64_t next = NextSamePopCount(mask_);
  if ((next & ~code_space_mask_) == 0) {
    mask_ = next;
    return true;
  }
  // Radius exhausted; move to the next one.
  if (radius_ >= m_) return false;
  ++radius_;
  mask_ = LowBitsMask(radius_);
  return true;
}

bool GhrProber::Next(ProbeTarget* target) {
  if (!emitted_root_) {
    emitted_root_ = true;
    radius_ = 0;
    target->table = table_;
    target->bucket = query_code_;
    return true;
  }
  if (!AdvanceMask()) return false;
  target->table = table_;
  target->bucket = query_code_ ^ mask_;
  return true;
}

}  // namespace gqr
