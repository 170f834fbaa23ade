#include "core/batch_search.h"

#include <algorithm>

#include "plan/planner.h"
#include "util/parallel_for.h"

namespace gqr {

namespace {

// Queries hashed per batched-projection tile. Tile boundaries are fixed
// (independent of thread count), so batch results are deterministic
// across pools — and since HashQueryBatch is bit-identical to HashQuery,
// across the batched and per-query paths too.
constexpr size_t kHashTile = 64;

// Per-calling-thread QueryHashInfo storage, reused across batches so the
// steady-state hashing phase performs no per-query allocation (each
// info's flip_costs keeps its capacity).
std::vector<QueryHashInfo>& TlQueryInfos(size_t n) {
  thread_local std::vector<QueryHashInfo> infos;
  if (infos.size() < n) infos.resize(n);
  return infos;
}

}  // namespace

void BatchHashQueries(const BinaryHasher& hasher, const float* queries,
                      size_t count, size_t stride, QueryHashInfo* infos,
                      ThreadPool* pool) {
  const size_t num_tiles = (count + kHashTile - 1) / kHashTile;
  ParallelFor(0, num_tiles, [&](size_t t) {
    const size_t lo = t * kHashTile;
    const size_t hi = std::min(count, lo + kHashTile);
    hasher.HashQueryBatch(queries + lo * stride, hi - lo, stride,
                          &ThreadLocalSearchScratch().projection, &infos[lo]);
  }, /*min_parallel=*/2, pool);
}

void BatchHashQueries(const BinaryHasher& hasher, const Dataset& queries,
                      QueryHashInfo* infos, ThreadPool* pool) {
  BatchHashQueries(hasher, queries.data(), queries.size(), queries.dim(),
                   infos, pool);
}

void SetQueryPlanInput(const QueryHashInfo& info, uint64_t position,
                       SearchOptions* options) {
  if (options->plan.planner == nullptr) return;
  options->plan.feature_key = QueryFeatureKey(info);
  options->plan.ticket += position;
}

template <BucketSource Source>
void RunBatchSearch(const Searcher& searcher, const BinaryHasher& hasher,
                    const Source& source, const Dataset& queries,
                    const ProberFactory& make_prober,
                    const SearchOptions& options,
                    std::vector<SearchResult>* results, ThreadPool* pool) {
  const size_t nq = queries.size();
  results->resize(nq);
  if (nq == 0) return;

  // Phase 1: hash the whole query block up front, one batched projection
  // (a single GEMM for projection hashers) per tile. Worker threads
  // project into their thread-local SearchScratch's projection buffer.
  std::vector<QueryHashInfo>& infos = TlQueryInfos(nq);
  BatchHashQueries(hasher, queries, infos.data(), pool);

  // Phase 2: probe + evaluate per query, starting from the precomputed
  // QueryHashInfo.
  ParallelFor(0, nq, [&](size_t q) {
    const float* query = queries.Row(static_cast<ItemId>(q));
    std::unique_ptr<BucketProber> prober = make_prober(infos[q]);
    SearchOptions per_query = options;
    SetQueryPlanInput(infos[q], q, &per_query);
    // nullptr scratch = the worker thread's scratch, which persists
    // across queries and batches on the pool's threads.
    searcher.SearchInto(query, prober.get(), source, per_query,
                        /*scratch=*/nullptr, &(*results)[q]);
  }, /*min_parallel=*/2, pool);
}

template void RunBatchSearch(const Searcher&, const BinaryHasher&,
                             const StaticHashTable&, const Dataset&,
                             const ProberFactory&, const SearchOptions&,
                             std::vector<SearchResult>*, ThreadPool*);
template void RunBatchSearch(const Searcher&, const BinaryHasher&,
                             const ShardedIndex&, const Dataset&,
                             const ProberFactory&, const SearchOptions&,
                             std::vector<SearchResult>*, ThreadPool*);

void BatchSearchInto(const Searcher& searcher, const BinaryHasher& hasher,
                     const StaticHashTable& table, const Dataset& queries,
                     QueryMethod method, const SearchOptions& options,
                     std::vector<SearchResult>* results, ThreadPool* pool) {
  RunBatchSearch(
      searcher, hasher, table, queries,
      [&](const QueryHashInfo& info) { return MakeProber(method, info, table); },
      options, results, pool);
}

std::vector<SearchResult> BatchSearch(const Searcher& searcher,
                                      const BinaryHasher& hasher,
                                      const StaticHashTable& table,
                                      const Dataset& queries,
                                      QueryMethod method,
                                      const SearchOptions& options,
                                      ThreadPool* pool) {
  std::vector<SearchResult> results;
  BatchSearchInto(searcher, hasher, table, queries, method, options, &results,
                  pool);
  return results;
}

}  // namespace gqr
