// Batched candidate evaluation + reusable search scratch.
//
// The candidate-verification loop is the end-to-end bottleneck of every
// querying method (bucket generation is O(log i) per probe; verification
// is O(d) per candidate). This layer makes that loop fast and
// allocation-free:
//
//  - QueryContext caches the per-query terms of the metric (the query
//    norm for cosine) once, instead of recomputing them per candidate.
//  - EvalDistancesBatch scores a whole bucket's candidates at once
//    through the dispatched SIMD kernels, software-prefetching upcoming
//    base rows while the current ones are being scored.
//  - SearchScratch owns every buffer the Searcher hot path needs
//    (candidate ids, distances, the top-k heap storage, and an
//    epoch-stamped visited set replacing the per-query std::vector<bool>
//    of multi-table search). Reusing one scratch across queries makes the
//    hot path allocation-free after warmup.
#ifndef GQR_CORE_EVAL_BATCH_H_
#define GQR_CORE_EVAL_BATCH_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "core/validators.h"
#include "data/compressed_dataset.h"
#include "data/dataset.h"
#include "util/attributes.h"

namespace gqr {

/// Per-query constants of the metric, computed once per search.
struct QueryContext {
  Metric metric = Metric::kEuclidean;
  /// |query|; only meaningful under Metric::kAngular.
  float query_norm = 0.f;
};

/// Builds the context for one query (computes the query norm for cosine).
QueryContext MakeQueryContext(const float* query, size_t dim, Metric metric);

/// out[i] = distance(base.Row(ids[i]), query) under ctx.metric, for
/// i in [0, count). Euclidean distances are true L2 (sqrt applied);
/// angular is 1 - cosine with the cached query norm (1.0 when either
/// vector has zero norm, matching CosineDistance). Prefetches rows a few
/// candidates ahead so the gather's cache misses overlap the arithmetic.
/// GQR_HOT: the per-candidate loop performs no allocation at all, a
/// contract gqr-analyze's hot-path check enforces.
GQR_HOT void EvalDistancesBatch(const float* query, const QueryContext& ctx,
                                const Dataset& base, const ItemId* ids,
                                size_t count, float* out);

/// As EvalDistancesBatch, but scores candidates against their compressed
/// rows (CompKernels asymmetric distances), touching 1/4 (SQ8) or 1/2
/// (fp16) of the bytes per candidate. Euclidean distances are true L2 of
/// query vs *decoded* row; angular uses the encode-time cached row norm
/// so only the asymmetric dot runs per candidate. Distances are
/// approximate relative to the fp32 rows — the searcher uses them to
/// build a k*alpha shortlist it then exact-reranks (DESIGN.md section
/// 14). GQR_HOT: the per-candidate loop performs no allocation.
GQR_HOT void EvalDistancesBatchCompressed(const float* query,
                                          const QueryContext& ctx,
                                          const CompressedDataset& comp,
                                          const ItemId* ids, size_t count,
                                          float* out);

/// Prefetches the rows an Eval* call over ids[0, count) reads before its
/// own in-loop prefetch takes over: from `comp`'s rows when it is set
/// (what EvalDistancesBatchCompressed reads), else from `base`. The
/// Searcher issues it for the next bucket before evaluating the current
/// one, so those first misses overlap the evaluation.
GQR_HOT void PrefetchEvalHead(const Dataset& base,
                              const CompressedDataset* comp,
                              const ItemId* ids, size_t count);

/// Reusable per-thread buffers for the Searcher hot path. A scratch may be
/// reused across queries, searchers, and datasets (buffers only ever
/// grow); it must not be shared by concurrent searches.
struct SearchScratch {
  /// Candidate ids of the bucket currently being evaluated.
  std::vector<ItemId> ids;
  /// Distances parallel to `ids`.
  std::vector<float> distances;
  /// Max-heap storage of the bounded top-k.
  std::vector<std::pair<float, ItemId>> heap;
  /// Projection buffer for batched query hashing: HashQueryBatch writes
  /// a tile's worth of projections (tile_rows x code_length doubles)
  /// here, so the hashing phase of BatchSearch reuses one allocation per
  /// worker instead of allocating per query.
  std::vector<double> projection;
  /// Gather buffers for sharded probing: ShardedIndex bucket copies land
  /// here, since a sharded probe cannot hand out spans into mutable shard
  /// storage. Two, because the Searcher's one-bucket lookahead keeps the
  /// bucket being evaluated and the next one live at once.
  std::array<std::vector<ItemId>, 2> shard_items;
  /// Shortlist ids drained from the compressed-pass heap, then exact-
  /// reranked against the fp32 rows (compressed rerank mode only).
  std::vector<ItemId> shortlist;
  /// Epoch-stamped visited set for multi-table de-duplication:
  /// visited[id] == epoch  <=>  id was already evaluated this query.
  /// Bumping the epoch invalidates all stamps in O(1), so queries after
  /// the first never touch (or zero) the whole array.
  std::vector<uint32_t> visited;
  uint32_t epoch = 0;
#if GQR_VALIDATE_ENABLED
  /// Properties 1-2 over the probe stream the Searcher consumes.
  ProbeSequenceValidator probe_stream{"Searcher"};
#endif

  /// Starts a new query: clears the per-bucket buffers (keeping capacity)
  /// and, when `need_visited`, advances the epoch and ensures the visited
  /// array covers `base_size` items.
  void BeginQuery(size_t base_size, bool need_visited);

  /// True if `id` was already seen this query; marks it seen otherwise.
  /// Only valid between BeginQuery(_, true) and the next BeginQuery.
  bool CheckAndMarkSeen(ItemId id) {
    uint32_t& stamp = visited[id];
    if (stamp == epoch) return true;
    stamp = epoch;
    return false;
  }
};

/// The calling thread's scratch; used by the Searcher when the caller
/// does not pass one explicitly. Worker threads of the shared pool keep
/// theirs alive across batches, so BatchSearch reuses buffers after the
/// first few queries.
SearchScratch& ThreadLocalSearchScratch();

}  // namespace gqr

#endif  // GQR_CORE_EVAL_BATCH_H_
