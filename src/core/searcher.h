// Searcher: the retrieval + evaluation loop shared by every querying
// method (Algorithm 1/2's candidate collection and rerank).
//
// The Searcher consumes any BucketProber, fetches the items of each
// probed bucket from a bucket source (a static, dynamic, sharded or
// multi-table index), evaluates their exact distances to the query with
// a bounded max-heap of size k, and returns the top-k. Stop criteria
// follow the paper: a candidate budget N (the default), an optional
// bucket budget, and the Theorem-2 stop of §4.1 through
// SearchOptions::termination (at margin 1, stop once mu * qd_bound() of
// the current bucket can no longer beat the running k-th nearest
// distance).
//
// Candidates are evaluated a bucket at a time through the batched SIMD
// eval path (core/eval_batch.h), with per-query metric constants cached
// up front. Fetching runs one bucket ahead: unless a stop can hold after
// the current bucket, the next one is emitted, fetched and its first
// rows prefetched while the current one is evaluated, and every stop
// rule reads the qd_bound() of the bucket it just evaluated (DESIGN.md
// section 19). With SearchOptions::compressed set, the per-bucket pass
// runs against the compressed rows instead and only a k * alpha
// shortlist is exact-reranked at the end (DESIGN.md section 14); the
// final top-k is still reported with exact fp32 distances. All working
// memory lives in a SearchScratch — including the projection buffer the
// batched hashing phase of core/batch_search.cc fills through
// BinaryHasher::HashQueryBatch; callers that pass nullptr get a
// per-thread scratch, so steady-state searches perform no heap
// allocations beyond the returned result vectors — and none at all
// through SearchInto once result capacity has warmed up.
#ifndef GQR_CORE_SEARCHER_H_
#define GQR_CORE_SEARCHER_H_

#include <concepts>
#include <cstddef>
#include <vector>

#include "core/eval_batch.h"
#include "core/metric.h"
#include "core/prober.h"
#include "data/dataset.h"
#include "index/dynamic_table.h"
#include "index/hash_table.h"
#include "index/multi_table.h"
#include "index/sharded_index.h"
#include "plan/termination.h"
#include "util/attributes.h"

namespace gqr {

class BudgetPlanner;

/// The adaptive-budget hook of SearchOptions (DESIGN.md section 16).
/// With a planner attached the Searcher asks it for the query's starting
/// budget at query start and reports the finished stats back at query
/// end; the batch entry points (BatchSearch, ShardedSearch,
/// QueryService) fill the per-query fields through SetQueryPlanInput
/// (core/batch_search.h), deriving each query's exploration ticket as
/// `ticket + query index`. Single-query callers set
/// `feature_key = QueryFeatureKey(info)` and a ticket themselves.
struct QueryPlanInput {
  /// Borrowed, internally synchronized, shareable across threads; null
  /// disables planning entirely (the default — zero behavior change).
  const BudgetPlanner* planner = nullptr;
  /// plan::QueryFeatureKey of this query's flipping-cost distribution.
  uint64_t feature_key = 0;
  /// Deterministic exploration ticket (base ticket for batch paths).
  uint64_t ticket = 0;
};

struct SearchOptions {
  /// Number of neighbors to return.
  size_t k = 20;
  /// Candidate budget N of Algorithms 1-2: stop once this many items have
  /// been evaluated. 0 means unlimited (probe everything the prober
  /// emits).
  size_t max_candidates = 1000;
  /// Optional cap on probed buckets (0 = unlimited).
  size_t max_buckets = 0;
  Metric metric = Metric::kEuclidean;
  /// Compressed rerank mode (DESIGN.md section 14). When set, candidates
  /// are scored against this compressed representation of the base set
  /// (must be an encoding of the same n x dim data), a top-(k *
  /// rerank_alpha) shortlist is kept, and the shortlist alone is
  /// exact-reranked against the fp32 rows — per-candidate bytes drop 4x
  /// (SQ8) / 2x (fp16) while the returned distances stay exact. Borrowed;
  /// must outlive the search.
  const CompressedDataset* compressed = nullptr;
  /// Shortlist oversampling factor alpha (>= 1). Larger alpha buys back
  /// recall lost to quantization error at the shortlist boundary; alpha=4
  /// recovers the exact top-k on every dataset we test (see
  /// tests/compressed_rerank_test.cc).
  size_t rerank_alpha = 4;
  /// Margin-scaled Theorem-2 early termination (plan/termination.h),
  /// the search's one score stop. Inert by default (infinite margin):
  /// results are then bit-identical to a search without the policy. With
  /// mu > 0 and a finite margin the search stops once
  /// mu * prober->qd_bound() >= margin * d_k — exact at margin 1 (§4.1's
  /// early stop, for every method), approximation bounded by 1/margin
  /// below it. A prober whose qd_bound() is 0 (MultiProber) never stops
  /// on it.
  TerminationPolicy termination;
  /// Adaptive budget planning (plan/planner.h); inert when
  /// plan.planner == nullptr.
  QueryPlanInput plan;
};

struct SearchStats {
  size_t buckets_probed = 0;     // Prober emissions consumed.
  size_t buckets_nonempty = 0;   // ... of which existed in the table.
  size_t items_evaluated = 0;    // Exact distance computations.
  size_t duplicates_skipped = 0; // Multi-table only.
  size_t items_reranked = 0;     // Shortlist size (compressed mode only).
  /// Items evaluated up to and including the last one that changed the
  /// top-k (the probes-to-convergence observation the planner learns
  /// from; in compressed mode, the last change of the k*alpha shortlist).
  size_t items_to_last_improvement = 0;
  /// Budget the planner chose for this query (0 = no planner attached).
  size_t planned_budget = 0;
  bool terminated = false;       // The Theorem-2 score stop fired.
  bool explored = false;         // Epsilon-greedy ran the full budget.
};

struct SearchResult {
  /// Approximate k-NN ids, ascending by exact distance.
  std::vector<ItemId> ids;
  /// Exact distances, parallel to ids.
  std::vector<float> distances;
  SearchStats stats;

  /// Empties the result for reuse, keeping vector capacity.
  void Clear() {
    ids.clear();
    distances.clear();
    stats = SearchStats{};
  }
};

/// The bucket sources a Searcher probes; Searcher::SearchInto is
/// instantiated for exactly these.
template <typename T>
concept BucketSource =
    std::same_as<T, StaticHashTable> || std::same_as<T, DynamicHashTable> ||
    std::same_as<T, ShardedIndex> || std::same_as<T, MultiTableIndex>;

class Searcher {
 public:
  /// The searcher borrows the base set; it must outlive the searcher.
  explicit Searcher(const Dataset& base) : base_(&base) {}

  /// Probes `source` in the prober's order and writes the top-k into
  /// `*result` (cleared first, capacity reused). A null `scratch` uses
  /// the calling thread's scratch. Per source:
  ///  - StaticHashTable: one frozen table.
  ///  - DynamicHashTable: a mutable table (streaming ingest/delete). Only
  ///    generate-to-probe probers (GQR/GHR) apply — HR/QR need the bucket
  ///    list of a frozen table.
  ///  - ShardedIndex: each probed bucket is the union of the bucket
  ///    across shards, copied out under the per-shard shared locks, so
  ///    this is safe while writers Insert/Remove concurrently. On a
  ///    quiesced index the result is identical to searching an unsharded
  ///    table with the same contents (the shards partition the corpus, so
  ///    every probed bucket sees the same item set, and budget accounting
  ///    proceeds whole-bucket exactly as in the single-table path). HR/QR
  ///    probers additionally need the bucket-code union; see
  ///    MakeShardedProber in core/sharded_search.h.
  ///  - MultiTableIndex: ProbeTarget::table selects the table; items
  ///    seen in an earlier table are de-duplicated (epoch-stamped visited
  ///    set).
  /// With a warm scratch and result this does not touch the heap; it is
  /// what BatchSearch drives. GQR_HOT: statically checked allocation-free
  /// (gqr-analyze) — amortized growth of the warmed scratch/result
  /// buffers is the only allocator contact, asserted at runtime by
  /// tests/scratch_reuse_test.cc. Instantiated in searcher.cc for the
  /// four BucketSource types.
  template <BucketSource Source>
  GQR_HOT void SearchInto(const float* query, BucketProber* prober,
                          const Source& source, const SearchOptions& options,
                          SearchScratch* scratch, SearchResult* result) const;

  /// SearchInto into a fresh result.
  template <BucketSource Source>
  SearchResult Search(const float* query, BucketProber* prober,
                      const Source& source, const SearchOptions& options,
                      SearchScratch* scratch = nullptr) const;

  /// Reranks an explicit candidate list (used by the MIH and IMI paths,
  /// which generate candidates rather than buckets).
  SearchResult RerankCandidates(const float* query,
                                const std::vector<ItemId>& candidates,
                                const SearchOptions& options,
                                SearchScratch* scratch = nullptr) const;
  GQR_HOT void RerankCandidatesInto(const float* query,
                                    const std::vector<ItemId>& candidates,
                                    const SearchOptions& options,
                                    SearchScratch* scratch,
                                    SearchResult* result) const;

  /// Range search (§4.1's distance-threshold early stop): returns every
  /// probed item within `radius` of the query under `metric`, ascending
  /// by distance. With mu > 0 (the Theorem 2 constant of the prober's
  /// hasher) probing stops once mu * prober->qd_bound() >= radius and
  /// sets stats.terminated — and because mu * qd_bound() lower-bounds
  /// the distance to every item of every unprobed bucket, the result is
  /// then *exact* for every method: no in-range item is missed. With
  /// mu == 0, or a prober whose qd_bound() is 0, the prober is exhausted
  /// (still exact, just slower).
  SearchResult RangeSearch(const float* query, BucketProber* prober,
                           const StaticHashTable& table, float radius,
                           double mu, Metric metric = Metric::kEuclidean,
                           SearchScratch* scratch = nullptr) const;

  const Dataset& base() const { return *base_; }

 private:
  const Dataset* base_;
};

}  // namespace gqr

#endif  // GQR_CORE_SEARCHER_H_
