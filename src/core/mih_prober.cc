#include "core/mih_prober.h"

#include "core/validators.h"
#include "util/check.h"

namespace gqr {

MihIndex::MihIndex(const std::vector<Code>& codes, int code_length,
                   int num_blocks)
    : code_length_(code_length), item_codes_(codes) {
  GQR_CHECK(code_length >= 1 && code_length <= 64)
      << "code length " << code_length;
  GQR_CHECK(num_blocks >= 1 && num_blocks <= code_length)
      << "block count " << num_blocks << " for m=" << code_length;
  blocks_.reserve(num_blocks);
  for (int b = 0; b < num_blocks; ++b) {
    Block block;
    block.bit_begin = code_length * b / num_blocks;
    block.bit_end = code_length * (b + 1) / num_blocks;
    std::vector<Code> subs(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      subs[i] = Substring(codes[i], block);
    }
    block.table = StaticHashTable(subs, block.bit_end - block.bit_begin);
    blocks_.push_back(std::move(block));
  }
}

std::vector<ItemId> MihIndex::Collect(Code query_code, size_t max_candidates,
                                      ProbeStats* stats) const {
  std::vector<ItemId> out;
  if (max_candidates == 0 || item_codes_.empty()) return out;
  out.reserve(max_candidates);

  const size_t n = item_codes_.size();
  std::vector<bool> seen(n, false);
  // Pool of discovered-but-not-yet-emitted candidates, binned by exact
  // full-code Hamming distance.
  std::vector<std::vector<ItemId>> by_distance(code_length_ + 1);

  const int num_blocks = static_cast<int>(blocks_.size());
  int probed_radius = -1;  // Substring radius already probed in all blocks.

  for (int r = 0; r <= code_length_ && out.size() < max_candidates; ++r) {
    const int needed_radius = r / num_blocks;
    // Probe each block at every not-yet-probed substring radius up to the
    // pigeonhole bound for full radius r.
    while (probed_radius < needed_radius) {
      ++probed_radius;
      for (const Block& block : blocks_) {
        const int sub_bits = block.bit_end - block.bit_begin;
        if (probed_radius > sub_bits) continue;
        const Code q_sub = Substring(query_code, block);
        // Enumerate substrings at exactly `probed_radius` flips.
        uint64_t mask = probed_radius == 0 ? 0 : LowBitsMask(probed_radius);
        const Code space = LowBitsMask(sub_bits);
        for (;;) {
          if (stats != nullptr) ++stats->substring_lookups;
          for (ItemId id : block.table.Probe(q_sub ^ mask)) {
            if (seen[id]) {
              if (stats != nullptr) ++stats->duplicates;
              continue;
            }
            seen[id] = true;
            const int full_d = HammingDistance(item_codes_[id], query_code);
            if (full_d > r && stats != nullptr) ++stats->distance_filtered;
            by_distance[full_d].push_back(id);
          }
          if (mask == 0) break;
          const uint64_t next = NextSamePopCount(mask);
          if ((next & ~space) != 0) break;
          mask = next;
        }
      }
    }
    // Emit everything at exact distance r (coverage of distance <= r is
    // guaranteed once all blocks are probed to floor(r/B)).
    for (ItemId id : by_distance[r]) {
      out.push_back(id);
      if (out.size() >= max_candidates) break;
    }
  }
#if GQR_VALIDATE_ENABLED
  // Items in ascending full-code Hamming distance, each at most once.
  ProbeSequenceValidator emitted("MihIndex::Collect");
  for (ItemId id : out) {
    emitted.Observe(0, id, HammingDistance(item_codes_[id], query_code));
  }
#endif
  return out;
}

}  // namespace gqr
