// Multi-Probe LSH (Lv-Josephson-Wang-Charikar-Li, VLDB'07): the
// perturbation-sequence querying method for integer-coded E2LSH tables,
// implemented as the paper's §5.3 comparison baseline.
//
// For a query q, coordinate i can be perturbed by -1 (cost: distance of
// q's projection to the lower slot boundary, x_i) or +1 (cost: w - x_i).
// A perturbation set's score is the sum of *squared* costs (Multi-Probe
// LSH's model of collision probability); sets are generated in ascending
// score with a min-heap over the sorted 2m costs using the classic
// shift/expand operations. Unlike GQR's flipping vectors, a generated
// set can be INVALID — it may contain both the -1 and +1 perturbation of
// the same coordinate — and must be skipped; this (and the integer code
// space preventing a shared generation tree) is exactly the contrast
// drawn in §5.3.
#ifndef GQR_CORE_MULTIPROBE_LSH_H_
#define GQR_CORE_MULTIPROBE_LSH_H_

#include <cstdint>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/validators.h"
#include "data/dataset.h"
#include "hash/e2lsh.h"

namespace gqr {

/// Bucket table over integer codes (one E2LSH table).
class IntCodeTable {
 public:
  IntCodeTable() = default;
  /// codes[i] = integer code of item i.
  explicit IntCodeTable(const std::vector<IntCode>& codes);

  size_t num_buckets() const { return buckets_.size(); }
  size_t num_items() const { return num_items_; }

  /// Items whose code equals `code`; empty when absent.
  std::span<const ItemId> Probe(const IntCode& code) const;

 private:
  struct VectorHash {
    size_t operator()(const IntCode& v) const;
  };
  std::unordered_map<IntCode, std::vector<ItemId>, VectorHash> buckets_;
  size_t num_items_ = 0;
};

/// Generates buckets to probe in ascending perturbation score.
class MultiProbeLshProber {
 public:
  explicit MultiProbeLshProber(const E2lshQueryInfo& info);

  /// Emits the next bucket's integer code. Returns false once every
  /// valid perturbation set has been emitted.
  bool Next(IntCode* bucket);

  /// Score (sum of squared boundary distances) of the last bucket.
  double last_score() const { return last_score_; }

  /// Perturbation sets generated so far that were invalid and skipped
  /// (contained +1 and -1 on the same coordinate) — the overhead GQR's
  /// flipping vectors avoid by construction.
  size_t invalid_generated() const { return invalid_generated_; }

 private:
  struct Entry {
    double score;
    uint64_t mask;  // Subset of the sorted 2m perturbations.
    int rightmost;

    bool operator>(const Entry& other) const {
      if (score != other.score) return score > other.score;
      return mask > other.mask;
    }
  };

  /// True when the sorted-index subset maps to a valid perturbation set.
  bool IsValid(uint64_t mask) const;
  /// Applies the perturbation set to the query code.
  IntCode Apply(uint64_t mask) const;

  IntCode query_code_;
  int num_perturbations_;            // 2m, capped at 63 for the mask.
  std::vector<double> sorted_costs_; // Ascending squared costs.
  std::vector<int> coord_;           // Sorted pos -> coordinate.
  std::vector<int> delta_;           // Sorted pos -> -1 or +1.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  bool emitted_root_ = false;
  double last_score_ = 0.0;
  size_t invalid_generated_ = 0;
#if GQR_VALIDATE_ENABLED
  // Valid masks in ascending score, each at most once (Property 1 is
  // checked when the prober is destroyed).
  ProbeSequenceValidator emitted_{"MultiProbeLshProber"};
#endif
};

}  // namespace gqr

#endif  // GQR_CORE_MULTIPROBE_LSH_H_
