#include "core/multiprobe_lsh.h"

#include <algorithm>
#include <numeric>

#include "util/bits.h"
#include "util/check.h"

namespace gqr {

size_t IntCodeTable::VectorHash::operator()(const IntCode& v) const {
  // FNV-1a over the raw int32 payload.
  uint64_t h = 1469598103934665603ull;
  for (int32_t x : v) {
    auto u = static_cast<uint32_t>(x);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(h);
}

IntCodeTable::IntCodeTable(const std::vector<IntCode>& codes)
    : num_items_(codes.size()) {
  for (size_t i = 0; i < codes.size(); ++i) {
    buckets_[codes[i]].push_back(static_cast<ItemId>(i));
  }
}

std::span<const ItemId> IntCodeTable::Probe(const IntCode& code) const {
  auto it = buckets_.find(code);
  if (it == buckets_.end()) return {};
  return it->second;
}

MultiProbeLshProber::MultiProbeLshProber(const E2lshQueryInfo& info)
    : query_code_(info.code) {
  const int m = static_cast<int>(info.code.size());
  GQR_CHECK_GE(m, 1);
  // 2m candidate perturbations: (i, -1) costs x_i, (i, +1) costs w - x_i.
  // Scores use squared costs per Multi-Probe LSH. The subset mask must
  // fit 63 bits; m <= 31 covers every practical table.
  num_perturbations_ = std::min(2 * m, 62);
  std::vector<double> costs(2 * m);
  std::vector<int> coords(2 * m), deltas(2 * m);
  for (int i = 0; i < m; ++i) {
    const double down = info.distance_down[i];
    costs[2 * i] = down * down;
    coords[2 * i] = i;
    deltas[2 * i] = -1;
    const double up = info.bucket_width - down;
    costs[2 * i + 1] = up * up;
    coords[2 * i + 1] = i;
    deltas[2 * i + 1] = +1;
  }
  std::vector<int> order(2 * m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (costs[a] != costs[b]) return costs[a] < costs[b];
    return a < b;
  });
  order.resize(num_perturbations_);
  sorted_costs_.resize(num_perturbations_);
  coord_.resize(num_perturbations_);
  delta_.resize(num_perturbations_);
  for (int s = 0; s < num_perturbations_; ++s) {
    sorted_costs_[s] = costs[order[s]];
    coord_[s] = coords[order[s]];
    delta_[s] = deltas[order[s]];
  }
}

bool MultiProbeLshProber::IsValid(uint64_t mask) const {
  // Invalid iff two selected perturbations touch the same coordinate
  // (necessarily with opposite deltas, since each (i, delta) is unique).
  uint64_t seen_coords = 0;
  uint64_t rest = mask;
  while (rest != 0) {
    const int s = LowestSetBit(rest);
    rest &= rest - 1;
    const uint64_t bit = uint64_t{1} << coord_[s];
    if (seen_coords & bit) return false;
    seen_coords |= bit;
  }
  return true;
}

IntCode MultiProbeLshProber::Apply(uint64_t mask) const {
  IntCode bucket = query_code_;
  while (mask != 0) {
    const int s = LowestSetBit(mask);
    mask &= mask - 1;
    bucket[coord_[s]] += delta_[s];
  }
  return bucket;
}

bool MultiProbeLshProber::Next(IntCode* bucket) {
  if (!emitted_root_) {
    emitted_root_ = true;
    heap_.push(Entry{sorted_costs_[0], uint64_t{1}, 0});
    last_score_ = 0.0;
    *bucket = query_code_;
#if GQR_VALIDATE_ENABLED
    emitted_.Observe(0, /*key=*/0, last_score_);
#endif
    return true;
  }
  // Pop until a valid perturbation set emerges (invalid ones still expand,
  // because their children may be valid).
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (top.rightmost + 1 < num_perturbations_) {
      const int j = top.rightmost;
      // "Expand" and "shift" of Lv et al. == Append and Swap of GQR.
      heap_.push(Entry{top.score + sorted_costs_[j + 1],
                       top.mask | (uint64_t{1} << (j + 1)), j + 1});
      heap_.push(Entry{top.score + sorted_costs_[j + 1] - sorted_costs_[j],
                       (top.mask ^ (uint64_t{1} << j)) |
                           (uint64_t{1} << (j + 1)),
                       j + 1});
    }
    if (!IsValid(top.mask)) {
      ++invalid_generated_;
      continue;
    }
    last_score_ = top.score;
    *bucket = Apply(top.mask);
#if GQR_VALIDATE_ENABLED
    emitted_.Observe(0, top.mask, last_score_);
#endif
    return true;
  }
  return false;
}

}  // namespace gqr
