#include "core/hr_prober.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/check.h"

namespace gqr {

HrProber::HrProber(const QueryHashInfo& info, const StaticHashTable& table,
                   uint32_t table_id)
    : HrProber(info, table.bucket_codes(), table.code_length(), table_id) {}

HrProber::HrProber(const QueryHashInfo& info,
                   const std::vector<Code>& bucket_codes, int code_length,
                   uint32_t table_id)
    : table_id_(table_id) {
  const int m = code_length;
  GQR_CHECK_EQ(info.code_length(), m)
      << "flip-cost vector does not match the code length";
  // Prefix sums of the ascending flip costs: cost_prefix_[h] is the
  // least possible QD of any bucket at Hamming distance >= h (qd_bound).
  std::vector<double> sorted_costs = info.flip_costs;
  std::sort(sorted_costs.begin(), sorted_costs.end());
  cost_prefix_.assign(static_cast<size_t>(m) + 1, 0.0);
  for (int i = 0; i < m; ++i) {
    cost_prefix_[i + 1] = cost_prefix_[i] + sorted_costs[i];
  }
  // Counting sort over the m+1 possible Hamming distances, scattered
  // straight into order_/distances_. The scatter is stable, so an
  // ascending bucket_codes() keeps ascending code order within each
  // distance ("ties are broken arbitrarily" in the paper; this makes the
  // tie-break deterministic). Each distance is computed once and kept in
  // a per-thread buffer for the scatter pass.
  thread_local std::vector<uint8_t> code_distance;
  const size_t n = bucket_codes.size();
  if (code_distance.size() < n) code_distance.resize(n);
  std::array<size_t, 66> start{};  // start[d + 1] counts distance d.
  for (size_t i = 0; i < n; ++i) {
    code_distance[i] =
        static_cast<uint8_t>(HammingDistance(info.code, bucket_codes[i]));
    ++start[code_distance[i] + 1];
  }
  for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  order_.resize(n);
  distances_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t at = start[code_distance[i]]++;
    order_[at] = bucket_codes[i];
    distances_[at] = code_distance[i];
  }
}

bool HrProber::Next(ProbeTarget* target) {
  if (pos_ >= order_.size()) return false;
  last_distance_ = static_cast<double>(distances_[pos_]);
  target->table = table_id_;
  target->bucket = order_[pos_];
  ++pos_;
  return true;
}

}  // namespace gqr
