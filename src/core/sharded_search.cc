#include "core/sharded_search.h"

#include "core/batch_search.h"
#include "core/ghr_prober.h"
#include "core/gqr_prober.h"
#include "core/hr_prober.h"
#include "core/qr_prober.h"

namespace gqr {

std::unique_ptr<BucketProber> MakeShardedProber(
    QueryMethod method, const QueryHashInfo& info,
    const std::vector<Code>& bucket_union, int code_length) {
  switch (method) {
    case QueryMethod::kHR:
      return std::make_unique<HrProber>(info, bucket_union, code_length);
    case QueryMethod::kGHR:
      return std::make_unique<GhrProber>(info);
    case QueryMethod::kQR:
      return std::make_unique<QrProber>(info, bucket_union);
    case QueryMethod::kGQR:
      return std::make_unique<GqrProber>(info);
  }
  return nullptr;
}

bool MethodNeedsBucketUnion(QueryMethod method) {
  return method == QueryMethod::kHR || method == QueryMethod::kQR;
}

void ShardedSearchInto(const Searcher& searcher, const BinaryHasher& hasher,
                       const ShardedIndex& index, const Dataset& queries,
                       QueryMethod method, const SearchOptions& options,
                       std::vector<SearchResult>* results, ThreadPool* pool) {
  // HR/QR sort a bucket list upfront; snapshot the cross-shard union
  // once per batch (one shared-lock pass per shard). Under concurrent
  // ingest the union is a point-in-time approximation — new buckets
  // created after the snapshot are not probed this batch, which is the
  // same staleness any sorted-upfront method has on a mutating index.
  std::vector<Code> bucket_union;
  if (MethodNeedsBucketUnion(method)) {
    bucket_union = index.BucketCodeUnion();
  }
  RunBatchSearch(
      searcher, hasher, index, queries,
      [&](const QueryHashInfo& info) {
        return MakeShardedProber(method, info, bucket_union,
                                 index.code_length());
      },
      options, results, pool);
}

std::vector<SearchResult> ShardedSearch(const Searcher& searcher,
                                        const BinaryHasher& hasher,
                                        const ShardedIndex& index,
                                        const Dataset& queries,
                                        QueryMethod method,
                                        const SearchOptions& options,
                                        ThreadPool* pool) {
  std::vector<SearchResult> results;
  ShardedSearchInto(searcher, hasher, index, queries, method, options,
                    &results, pool);
  return results;
}

}  // namespace gqr
