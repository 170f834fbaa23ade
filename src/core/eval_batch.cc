#include "core/eval_batch.h"

#include <algorithm>
#include <cmath>

#include "la/simd_kernels.h"
#include "la/vector_ops.h"

namespace gqr {

namespace {

// How many candidates ahead to prefetch in the fp32 loops. Rows are
// gathered from random buckets, so each one is a likely cache miss; the
// distance is scaled to the row's cache-line count so the loop keeps a
// roughly constant number of lines in flight (~32: enough memory-level
// parallelism to hide DRAM latency on a DRAM-resident corpus) — a fixed
// short distance leaves small rows latency-bound with only a handful of
// outstanding misses. Bounded to [4, 32] candidates of headroom so tiny
// rows do not prefetch past useful reach and huge rows keep a minimum
// pipeline. (The compressed loops do not burst-prefetch like this: they
// pace line prefetches through the fused `_pf` kernels instead — see
// kCompressedPfDist below.)
constexpr size_t kPrefetchLines = 32;

constexpr size_t PrefetchAhead(size_t row_bytes) {
  const size_t lines = (row_bytes + 63) / 64;
  const size_t ahead = kPrefetchLines / lines;
  return ahead < 4 ? 4 : (ahead > 32 ? 32 : ahead);
}

// Lookahead for the prefetch-fused compressed kernels: the row evaluated
// at step i paces prefetches of row i + kCompressedPfDist into L2 as it
// runs (CompressedKernels doc). Four rows of lead is enough pipeline to
// cover DRAM latency at the pacing rate while staying well inside L2.
constexpr size_t kCompressedPfDist = 4;

}  // namespace

QueryContext MakeQueryContext(const float* query, size_t dim, Metric metric) {
  QueryContext ctx;
  ctx.metric = metric;
  // Cached once per query; the per-candidate loop never recomputes it.
  // Norm() uses the same dispatched dot kernel as the fused per-candidate
  // evaluation, so cached-norm cosine matches one-shot CosineDistance.
  if (metric == Metric::kAngular) ctx.query_norm = Norm(query, dim);
  return ctx;
}

void EvalDistancesBatch(const float* query, const QueryContext& ctx,
                        const Dataset& base, const ItemId* ids, size_t count,
                        float* out) {
  const float* data = base.data();
  const size_t dim = base.dim();
  const size_t ahead = PrefetchAhead(dim * sizeof(float));
  const DistanceKernels& k = Kernels();
  if (ctx.metric == Metric::kEuclidean) {
    for (size_t i = 0; i < count; ++i) {
      if (i + ahead < count) {
        PrefetchRow(data + static_cast<size_t>(ids[i + ahead]) * dim, dim);
      }
      const float* row = data + static_cast<size_t>(ids[i]) * dim;
      out[i] = std::sqrt(k.squared_l2(row, query, dim));
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    if (i + ahead < count) {
      PrefetchRow(data + static_cast<size_t>(ids[i + ahead]) * dim, dim);
    }
    const float* row = data + static_cast<size_t>(ids[i]) * dim;
    float dot, row_norm2;
    k.dot_and_norm(row, query, dim, &dot, &row_norm2);
    out[i] = (row_norm2 == 0.f || ctx.query_norm == 0.f)
                 ? 1.f
                 : 1.f - dot / (std::sqrt(row_norm2) * ctx.query_norm);
  }
}

void EvalDistancesBatchCompressed(const float* query, const QueryContext& ctx,
                                  const CompressedDataset& comp,
                                  const ItemId* ids, size_t count,
                                  float* out) {
  const size_t dim = comp.dim();
  const CompressedKernels& k = CompKernels();
  if (comp.kind() == CompressionKind::kSq8) {
    const float* min = comp.min();
    const float* scale = comp.scale();
    const auto pf_row = [&](size_t i) {
      return i + kCompressedPfDist < count
                 ? comp.Sq8Row(ids[i + kCompressedPfDist])
                 : nullptr;
    };
    if (ctx.metric == Metric::kEuclidean) {
      for (size_t i = 0; i < count; ++i) {
        out[i] = std::sqrt(k.squared_l2_sq8_pf(query, comp.Sq8Row(ids[i]),
                                               min, scale, dim, pf_row(i)));
      }
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      const float dot = k.dot_sq8_pf(query, comp.Sq8Row(ids[i]), min, scale,
                                     dim, pf_row(i));
      const float row_norm2 = comp.row_norm2(ids[i]);
      out[i] = (row_norm2 == 0.f || ctx.query_norm == 0.f)
                   ? 1.f
                   : 1.f - dot / (std::sqrt(row_norm2) * ctx.query_norm);
    }
    return;
  }
  const auto pf_row = [&](size_t i) {
    return i + kCompressedPfDist < count
               ? comp.Fp16Row(ids[i + kCompressedPfDist])
               : nullptr;
  };
  if (ctx.metric == Metric::kEuclidean) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = std::sqrt(k.squared_l2_fp16_pf(query, comp.Fp16Row(ids[i]),
                                              dim, pf_row(i)));
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const float dot = k.dot_fp16_pf(query, comp.Fp16Row(ids[i]), dim,
                                    pf_row(i));
    const float row_norm2 = comp.row_norm2(ids[i]);
    out[i] = (row_norm2 == 0.f || ctx.query_norm == 0.f)
                 ? 1.f
                 : 1.f - dot / (std::sqrt(row_norm2) * ctx.query_norm);
  }
}

void PrefetchEvalHead(const Dataset& base, const CompressedDataset* comp,
                      const ItemId* ids, size_t count) {
  if (comp != nullptr) {
    const size_t head = std::min(count, kCompressedPfDist);
    const size_t bytes = comp->bytes_per_row();
    for (size_t i = 0; i < head; ++i) {
      const void* row = comp->kind() == CompressionKind::kSq8
                            ? static_cast<const void*>(comp->Sq8Row(ids[i]))
                            : static_cast<const void*>(comp->Fp16Row(ids[i]));
      PrefetchBytes(row, bytes);
    }
    return;
  }
  const size_t dim = base.dim();
  const size_t head = std::min(count, PrefetchAhead(dim * sizeof(float)));
  for (size_t i = 0; i < head; ++i) PrefetchRow(base.Row(ids[i]), dim);
}

void SearchScratch::BeginQuery(size_t base_size, bool need_visited) {
  ids.clear();
  distances.clear();
  heap.clear();
  shortlist.clear();
  if (!need_visited) return;
  if (++epoch == 0) {
    // Epoch counter wrapped (once per 2^32 queries): stale stamps could
    // collide with the new epoch, so pay one full reset and restart at 1.
    std::fill(visited.begin(), visited.end(), 0u);
    epoch = 1;
  }
  if (visited.size() < base_size) visited.resize(base_size, 0u);
}

SearchScratch& ThreadLocalSearchScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace gqr
