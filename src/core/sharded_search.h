// ShardedSearch: the batch query path over a concurrent ShardedIndex.
//
// Runs BatchSearch's two phases through the same driver (RunBatchSearch
// in core/batch_search.h) — batched query hashing, then per-query probe
// + evaluate over the pool — but probes the sharded index: every emitted
// bucket is gathered as the union of that bucket across shards (copied
// under the per-shard shared locks), so searches run safely while
// writers Insert/Remove concurrently.
//
// Probe order is the *global* bucket order of the querying method, not a
// per-shard order: GQR/GHR generate codes straight from the query (the
// code sequence is table-independent), and HR/QR sort the bucket-code
// union across shards — which, because shards partition the corpus,
// equals the bucket list of the equivalent unsharded table. Budget
// accounting therefore proceeds whole-bucket exactly as in BatchSearch,
// and on a quiesced index ShardedSearch returns results identical to
// single-table BatchSearch for any shard count (bit-identical on a
// 1-shard index, where even within-bucket item order coincides).
#ifndef GQR_CORE_SHARDED_SEARCH_H_
#define GQR_CORE_SHARDED_SEARCH_H_

#include <memory>
#include <vector>

#include "core/searcher.h"
#include "data/dataset.h"
#include "eval/harness.h"
#include "hash/binary_hasher.h"
#include "index/sharded_index.h"
#include "util/thread_pool.h"

namespace gqr {

/// Creates the per-query prober implementing `method` against a sharded
/// index. `bucket_union` is the index's BucketCodeUnion() (may be empty
/// for GQR/GHR, which generate codes without a bucket list); it is
/// borrowed for HR/QR construction only. `code_length` is the index's m.
std::unique_ptr<BucketProber> MakeShardedProber(
    QueryMethod method, const QueryHashInfo& info,
    const std::vector<Code>& bucket_union, int code_length);

/// True for the sort-upfront methods (HR/QR) whose probers need the
/// index's BucketCodeUnion(); GQR/GHR generate codes straight from the
/// query and can skip the cross-shard snapshot. Shared by ShardedSearch
/// and the serving coalescer so both snapshot exactly when required.
bool MethodNeedsBucketUnion(QueryMethod method);

/// Runs `method` for every row of `queries` against the sharded index,
/// in parallel over `pool` (null = the shared pool). Safe under
/// concurrent Insert/Remove; on a quiesced index, results are identical
/// to BatchSearch over the equivalent unsharded table. For HR/QR the
/// bucket-code union is snapshotted once per batch, up front.
/// SearchOptions::compressed works here as in BatchSearch: the sharded
/// probe gathers ids as usual and only candidate scoring switches to the
/// compressed rows (the compressed dataset is indexed by the same global
/// ItemIds the shards store).
std::vector<SearchResult> ShardedSearch(const Searcher& searcher,
                                        const BinaryHasher& hasher,
                                        const ShardedIndex& index,
                                        const Dataset& queries,
                                        QueryMethod method,
                                        const SearchOptions& options,
                                        ThreadPool* pool = nullptr);

/// As ShardedSearch, but reuses `*results` (resized to the batch;
/// element vectors keep their capacity).
void ShardedSearchInto(const Searcher& searcher, const BinaryHasher& hasher,
                       const ShardedIndex& index, const Dataset& queries,
                       QueryMethod method, const SearchOptions& options,
                       std::vector<SearchResult>* results,
                       ThreadPool* pool = nullptr);

}  // namespace gqr

#endif  // GQR_CORE_SHARDED_SEARCH_H_
