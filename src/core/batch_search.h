// BatchSearch: answer a whole query batch in parallel.
//
// The batch is answered in two phases. First the whole query block is
// hashed up front through BinaryHasher::HashQueryBatch — for projection
// hashers that is one blocked GEMM per 64-query tile instead of one
// scalar GEMV (plus two heap allocations) per query, and it is
// bit-identical to per-query HashQuery. Then each query probes and
// evaluates from its precomputed QueryHashInfo; queries are
// embarrassingly parallel (probers hold per-query state), so both phases
// shard over a thread pool. Every worker thread drives the Searcher
// through its thread-local SearchScratch, so after the first few queries
// per worker the hot path stops allocating. Useful for offline evaluation
// and bulk serving; the single-query Searcher path remains the
// latency-oriented API.
#ifndef GQR_CORE_BATCH_SEARCH_H_
#define GQR_CORE_BATCH_SEARCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/searcher.h"
#include "data/dataset.h"
#include "eval/harness.h"
#include "hash/binary_hasher.h"
#include "index/hash_table.h"
#include "util/thread_pool.h"

namespace gqr {

/// Phase 1 of every batch path: hashes the whole query block in parallel
/// 64-query tiles (one blocked GEMM per tile for projection hashers),
/// writing infos[0..queries.size()). `infos` must already have that many
/// elements; their flip_costs capacity is reused. Bit-identical to
/// per-query HashQuery. Tile boundaries are fixed, so results do not
/// depend on the pool.
void BatchHashQueries(const BinaryHasher& hasher, const Dataset& queries,
                      QueryHashInfo* infos, ThreadPool* pool = nullptr);

/// Raw-pointer variant for callers whose query block is not a Dataset
/// (the serving coalescer gathers submitted queries into a flat buffer):
/// hashes `count` queries laid out row-major with `stride` floats between
/// consecutive query starts, writing infos[0..count). Same fixed 64-query
/// tiling and bit-identity guarantees as the Dataset overload (which
/// delegates here).
void BatchHashQueries(const BinaryHasher& hasher, const float* queries,
                      size_t count, size_t stride, QueryHashInfo* infos,
                      ThreadPool* pool = nullptr);

/// Fills the per-query plan inputs (DESIGN.md section 16) when a planner
/// is attached: the feature key from the query's own hash info, and the
/// exploration ticket `options->plan.ticket + position` — deterministic
/// whatever the thread interleaving. Shared by BatchSearch, ShardedSearch
/// and the serving coalescer.
void SetQueryPlanInput(const QueryHashInfo& info, uint64_t position,
                       SearchOptions* options);

/// The per-query prober a batch path builds from the query's hash info.
using ProberFactory =
    std::function<std::unique_ptr<BucketProber>(const QueryHashInfo&)>;

/// The two phases of every batch path over `source`: batch-hash the
/// whole query block, then probe + evaluate each query in parallel with
/// the prober `make_prober` builds for it, through the worker thread's
/// scratch. `*results` is resized to the batch (element vectors keep
/// their capacity). Instantiated for StaticHashTable (BatchSearchInto)
/// and ShardedIndex (ShardedSearchInto).
template <BucketSource Source>
void RunBatchSearch(const Searcher& searcher, const BinaryHasher& hasher,
                    const Source& source, const Dataset& queries,
                    const ProberFactory& make_prober,
                    const SearchOptions& options,
                    std::vector<SearchResult>* results, ThreadPool* pool);

/// Runs `method` for every row of `queries` against one table, in
/// parallel. results[q] corresponds to queries.Row(q). `pool` overrides
/// the shared process pool (pass a 1-thread pool for deterministic
/// single-threaded runs; results are identical either way). Compressed
/// rerank mode plumbs through unchanged: set SearchOptions::compressed
/// (and rerank_alpha) and every query scores candidates against the
/// compressed rows, exact-reranking only its shortlist — the compressed
/// kernels are bit-identical across dispatch levels, so batch results
/// stay level-independent.
std::vector<SearchResult> BatchSearch(const Searcher& searcher,
                                      const BinaryHasher& hasher,
                                      const StaticHashTable& table,
                                      const Dataset& queries,
                                      QueryMethod method,
                                      const SearchOptions& options,
                                      ThreadPool* pool = nullptr);

/// As BatchSearch, but reuses `*results` (resized to the batch; element
/// vectors keep their capacity), for callers that drain batches in a
/// loop and want steady-state runs free of per-query allocations.
void BatchSearchInto(const Searcher& searcher, const BinaryHasher& hasher,
                     const StaticHashTable& table, const Dataset& queries,
                     QueryMethod method, const SearchOptions& options,
                     std::vector<SearchResult>* results,
                     ThreadPool* pool = nullptr);

}  // namespace gqr

#endif  // GQR_CORE_BATCH_SEARCH_H_
