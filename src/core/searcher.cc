#include "core/searcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/eval_batch.h"
#include "core/validators.h"
#include "plan/planner.h"
#include "util/check.h"

namespace gqr {

namespace {

// Bounded top-k by exact distance. A max-heap whose root is the running
// k-th best distance, which doubles as the early-stop threshold. Storage
// lives in the caller's scratch so repeated searches reuse it.
class TopK {
 public:
  TopK(size_t k, std::vector<std::pair<float, ItemId>>* heap)
      : k_(k), heap_(heap) {
    heap_->clear();
  }

  /// Returns true when the offer changed the heap — the signal the
  /// planner's probes-to-convergence observation is built from.
  /// [[nodiscard]] so an accidentally ignored improvement signal cannot
  /// silently skew the feedback loop; rerank loops that genuinely only
  /// want the heap effect discard with an explicit (void).
  [[nodiscard]] bool Offer(float distance, ItemId id) {
    if (heap_->size() < k_) {
      heap_->emplace_back(distance, id);
      std::push_heap(heap_->begin(), heap_->end());
      return true;
    }
    if (distance < heap_->front().first) {
      std::pop_heap(heap_->begin(), heap_->end());
      heap_->back() = {distance, id};
      std::push_heap(heap_->begin(), heap_->end());
      return true;
    }
    return false;
  }

  size_t size() const { return heap_->size(); }
  bool full() const { return heap_->size() >= k_; }
  float worst() const { return heap_->front().first; }

  void Drain(std::vector<ItemId>* ids, std::vector<float>* distances) {
    ids->resize(heap_->size());
    distances->resize(heap_->size());
    for (size_t i = heap_->size(); i-- > 0;) {
      std::pop_heap(heap_->begin(), heap_->end());
      (*ids)[i] = heap_->back().second;
      (*distances)[i] = heap_->back().first;
      heap_->pop_back();
    }
  }

 private:
  size_t k_;
  std::vector<std::pair<float, ItemId>>* heap_;
};

// The heap size of a search: k, or in compressed mode (DESIGN.md
// section 14) the k * alpha shortlist, once the compressed rows are
// checked to encode the base set.
size_t HeapSize(const Dataset& base, const SearchOptions& options) {
  const CompressedDataset* comp = options.compressed;
  if (comp == nullptr) return options.k;
  GQR_CHECK_EQ(comp->size(), base.size())
      << "compressed dataset does not cover the base set";
  GQR_CHECK_EQ(comp->dim(), base.dim())
      << "compressed dataset dim does not match the base set";
  GQR_CHECK_GE(options.rerank_alpha, size_t{1})
      << "rerank_alpha must be >= 1";
  return options.k * options.rerank_alpha;
}

// The tail of every search: drains `top` into the result. In compressed
// mode `top` holds the shortlist by compressed distance; it is rescored
// against the fp32 rows and the exact top-k carved out of it, so the
// returned distances are exact.
void DrainInto(const Dataset& base, const float* query,
               const QueryContext& ctx, const SearchOptions& options,
               SearchScratch& s, TopK& top, SearchResult* result) {
  if (options.compressed == nullptr) {
    top.Drain(&result->ids, &result->distances);
    return;
  }
  top.Drain(&s.shortlist, &s.distances);
  result->stats.items_reranked = s.shortlist.size();
  if (!s.shortlist.empty()) {
    s.distances.resize(s.shortlist.size());
    EvalDistancesBatch(query, ctx, base, s.shortlist.data(),
                       s.shortlist.size(), s.distances.data());
  }
  TopK exact_top(options.k, &s.heap);
  for (size_t i = 0; i < s.shortlist.size(); ++i) {
    // Heap effect only: the exact rerank pass is past the point where
    // improvement feeds the convergence observation.
    (void)exact_top.Offer(s.distances[i], s.shortlist[i]);
  }
  exact_top.Drain(&result->ids, &result->distances);
}

}  // namespace

template <BucketSource Source>
void Searcher::SearchInto(const float* query, BucketProber* prober,
                          const Source& source, const SearchOptions& options,
                          SearchScratch* scratch, SearchResult* result) const {
  GQR_CHECK(options.k > 0) << "SearchOptions::k must be positive";
  GQR_CHECK(options.termination.valid())
      << "SearchOptions::termination is malformed (margin must be > 0, "
      << "mu >= 0)";
  const CompressedDataset* comp = options.compressed;
  const size_t heap_k = HeapSize(*base_, options);
  SearchScratch& s = scratch != nullptr ? *scratch : ThreadLocalSearchScratch();
  result->Clear();
  SearchStats& stats = result->stats;
  // The per-source bucket fetch into buffer `slot`. Static, dynamic and
  // multi-table sources return a view of the table's own storage. The
  // sharded gather copies each shard's sub-bucket under that shard's
  // shared lock, so the returned span never dangles into mutable storage.
  const auto probe = [&](const ProbeTarget& t,
                         size_t slot) -> std::span<const ItemId> {
    if constexpr (std::same_as<Source, ShardedIndex>) {
      auto& items = s.shard_items[slot];
      items.clear();
      source.ProbeAll(t.bucket, &items);
      return {items.data(), items.size()};
    } else if constexpr (std::same_as<Source, MultiTableIndex>) {
      return source.table(t.table).Probe(t.bucket);
    } else {
      return source.Probe(t.bucket);
    }
  };
  // De-duplication across overlapping tables; a single table (or the
  // shards of a ShardedIndex) partitions the items, so no visited set is
  // needed.
  bool dedup = false;
  if constexpr (std::same_as<Source, MultiTableIndex>) {
    dedup = source.num_tables() > 1;
  }
  s.BeginQuery(base_->size(), dedup);
  const QueryContext ctx = MakeQueryContext(query, base_->dim(),
                                            options.metric);
  // Compressed mode keeps a k * alpha shortlist during probing; the exact
  // top-k is carved out of it afterwards.
  TopK top(heap_k, &s.heap);

  // Adaptive budget: ask the planner (if any) for this query's starting
  // budget. The learned budget never exceeds the caller's fixed one and
  // is floored at the heap size so the top-k can always fill.
  const BudgetPlanner* planner = options.plan.planner;
  PlanDecision decision;
  decision.budget = options.max_candidates;
  if (planner != nullptr) {
    decision = planner->Plan(options.plan.feature_key, options.plan.ticket,
                             options.max_candidates);
    if (decision.budget != 0 && decision.budget < heap_k) {
      decision.budget = heap_k;
    }
    stats.planned_budget = decision.budget;
    stats.explored = decision.explored;
  }
  const size_t max_candidates = decision.budget;
  size_t last_improvement = 0;

  // The stop rules after a bucket with qd_bound() `bound`, once `items`
  // candidates are evaluated and the heap is `full` with k-th distance
  // `worst`. The score rule fires more readily as `worst` falls, so
  // passing -infinity asks whether a stop *can* hold.
  enum class Stop { kNone, kBudget, kTerminate };
  const auto stop_after = [&](size_t items, bool full, double worst,
                              double bound) {
    if (max_candidates != 0 && items >= max_candidates) return Stop::kBudget;
    if (options.max_buckets != 0 &&
        stats.buckets_probed >= options.max_buckets) {
      return Stop::kBudget;
    }
    if (!full) return Stop::kNone;
    // Margin-scaled Theorem-2 termination (plan/termination.h), the early
    // stop of §4.1: every unprobed bucket has QD >= this bucket's
    // qd_bound(), so once mu * qd_bound() >= margin * d_k no remaining
    // item can improve the result by more than the margin allows (exact
    // at margin 1; see DESIGN.md section 16). Inert by default — an
    // infinite margin never fires, keeping the bit-identity contract of
    // tests/adaptive_plan_test.cc. In compressed mode `worst` is the
    // k*alpha-th *compressed* distance — larger than the k-th, so the
    // stop fires later (conservative), but the threshold itself carries
    // quantization error; exactness claims only hold for the
    // uncompressed path.
    if (options.termination.enabled() &&
        options.termination.ShouldStop(bound, worst)) {
      return Stop::kTerminate;
    }
    return Stop::kNone;
  };

  // One-bucket lookahead: bucket i + 1 is emitted, fetched, and its first
  // rows prefetched before bucket i is evaluated, so the fetch overlaps
  // the evaluation. Once bucket i + 1 is emitted the prober's qd_bound()
  // describes it, so every check on bucket i reads the bound recorded in
  // bucket i's Fetched. Bucket i + 1 is peeked
  // only when no stop can hold after bucket i, so every emitted bucket is
  // consumed and a query makes at most one Next() call (the one that
  // returns false) beyond the buckets it probes. `probe(target, slot)`
  // fetches into buffer `slot`; the two buckets alternate slots, so a
  // buffered fetch never overwrites the bucket being evaluated.
  struct Fetched {
    std::span<const ItemId> items;
    double bound = 0.0;  // The prober's qd_bound() at emission.
  };
  ProbeTarget target;
  size_t slot = 0;
  const auto fetch_next = [&](Fetched* f) {
    if (!prober->Next(&target)) return false;
    slot ^= 1;
    f->items = probe(target, slot);
    f->bound = prober->qd_bound();
#if GQR_VALIDATE_ENABLED
    ValidateProbedBucket(&s.probe_stream, *prober, target, f->items,
                         options.termination.mu, options.metric, query,
                         *base_);
#endif
    return true;
  };
  Fetched cur;
  bool have = fetch_next(&cur);
  while (have) {
    const double bound = cur.bound;
    ++stats.buckets_probed;
    if (!cur.items.empty()) ++stats.buckets_nonempty;
    // The bucket's fresh candidates: the fetched span itself, or its
    // not-yet-seen items when several tables overlap.
    std::span<const ItemId> cands = cur.items;
    if (dedup) {
      s.ids.clear();
      for (ItemId id : cur.items) {
        if (s.CheckAndMarkSeen(id)) {
          ++stats.duplicates_skipped;
          continue;
        }
        s.ids.push_back(id);
      }
      cands = {s.ids.data(), s.ids.size()};
    }
    const bool may_stop =
        stop_after(stats.items_evaluated + cands.size(),
                   top.size() + cands.size() >= heap_k,
                   -std::numeric_limits<double>::infinity(),
                   bound) != Stop::kNone;
    Fetched next;
    have = !may_stop && fetch_next(&next);
    if (have) {
      PrefetchEvalHead(*base_, comp, next.items.data(), next.items.size());
    }
    // Score the bucket's candidates in one batched pass (whole buckets are
    // evaluated even when they overshoot the candidate budget).
    if (!cands.empty()) {
      s.distances.resize(cands.size());
      if (comp != nullptr) {
        EvalDistancesBatchCompressed(query, ctx, *comp, cands.data(),
                                     cands.size(), s.distances.data());
      } else {
        EvalDistancesBatch(query, ctx, *base_, cands.data(), cands.size(),
                           s.distances.data());
      }
      for (size_t i = 0; i < cands.size(); ++i) {
        if (top.Offer(s.distances[i], cands[i])) {
          last_improvement = stats.items_evaluated + i + 1;
        }
      }
      stats.items_evaluated += cands.size();
    }
    if (!may_stop) {
      cur = next;
      continue;
    }
    const Stop stop = stop_after(stats.items_evaluated, top.full(),
                                 top.full() ? top.worst() : 0.0, bound);
    if (stop == Stop::kTerminate) {
#if GQR_VALIDATE_ENABLED
      ValidateTerminationDecision(options.termination.mu,
                                  options.termination.margin, bound,
                                  top.worst());
#endif
      stats.terminated = true;
    }
    if (stop != Stop::kNone) break;
    // No stop held after all: fetch the bucket the peek skipped.
    have = fetch_next(&cur);
  }
#if GQR_VALIDATE_ENABLED
  s.probe_stream.Finish();
#endif
  stats.items_to_last_improvement = last_improvement;
  if (planner != nullptr) {
    planner->Observe(options.plan.feature_key, decision, stats);
  }
  DrainInto(*base_, query, ctx, options, s, top, result);
}

template <BucketSource Source>
SearchResult Searcher::Search(const float* query, BucketProber* prober,
                              const Source& source,
                              const SearchOptions& options,
                              SearchScratch* scratch) const {
  SearchResult result;
  SearchInto(query, prober, source, options, scratch, &result);
  return result;
}

#define GQR_INSTANTIATE_SEARCH(Source)                                     \
  template void Searcher::SearchInto(const float*, BucketProber*,          \
                                     const Source&, const SearchOptions&,  \
                                     SearchScratch*, SearchResult*) const; \
  template SearchResult Searcher::Search(                                  \
      const float*, BucketProber*, const Source&, const SearchOptions&,    \
      SearchScratch*) const;
GQR_INSTANTIATE_SEARCH(StaticHashTable)
GQR_INSTANTIATE_SEARCH(DynamicHashTable)
GQR_INSTANTIATE_SEARCH(ShardedIndex)
GQR_INSTANTIATE_SEARCH(MultiTableIndex)
#undef GQR_INSTANTIATE_SEARCH

SearchResult Searcher::RangeSearch(const float* query, BucketProber* prober,
                                   const StaticHashTable& table, float radius,
                                   double mu, Metric metric,
                                   SearchScratch* scratch) const {
  SearchScratch& s = scratch != nullptr ? *scratch : ThreadLocalSearchScratch();
  s.BeginQuery(base_->size(), /*need_visited=*/false);
  const QueryContext ctx = MakeQueryContext(query, base_->dim(), metric);
  SearchResult result;
  std::vector<std::pair<float, ItemId>> hits;
  ProbeTarget target;
  while (prober->Next(&target)) {
    ++result.stats.buckets_probed;
    const double bound = prober->qd_bound();
    std::span<const ItemId> items = table.Probe(target.bucket);
#if GQR_VALIDATE_ENABLED
    ValidateProbedBucket(&s.probe_stream, *prober, target, items, mu, metric,
                         query, *base_);
#endif
    if (!items.empty()) {
      ++result.stats.buckets_nonempty;
      s.ids.assign(items.begin(), items.end());
      s.distances.resize(s.ids.size());
      EvalDistancesBatch(query, ctx, *base_, s.ids.data(), s.ids.size(),
                         s.distances.data());
      for (size_t i = 0; i < s.ids.size(); ++i) {
        if (s.distances[i] <= radius) hits.emplace_back(s.distances[i],
                                                        s.ids[i]);
      }
      result.stats.items_evaluated += s.ids.size();
    }
    // Distance-threshold stop of §4.1: every unprobed bucket b has
    // QD >= qd_bound(), and items in b are at distance >= mu * QD(b).
    if (mu > 0.0 && mu * bound >= radius) {
      result.stats.terminated = true;
      break;
    }
  }
#if GQR_VALIDATE_ENABLED
  s.probe_stream.Finish();
#endif
  std::sort(hits.begin(), hits.end());
  result.ids.reserve(hits.size());
  result.distances.reserve(hits.size());
  for (const auto& [d, id] : hits) {
    result.ids.push_back(id);
    result.distances.push_back(d);
  }
  return result;
}

void Searcher::RerankCandidatesInto(const float* query,
                                    const std::vector<ItemId>& candidates,
                                    const SearchOptions& options,
                                    SearchScratch* scratch,
                                    SearchResult* result) const {
  const CompressedDataset* comp = options.compressed;
  const size_t heap_k = HeapSize(*base_, options);
  SearchScratch& s = scratch != nullptr ? *scratch : ThreadLocalSearchScratch();
  result->Clear();
  s.BeginQuery(base_->size(), /*need_visited=*/false);
  const QueryContext ctx = MakeQueryContext(query, base_->dim(),
                                            options.metric);
  TopK top(heap_k, &s.heap);
  // The candidate list is already in the caller's order; evaluate the
  // first max_candidates of it (matching the per-item budget check of the
  // probing path), chunked so the distance buffer stays cache-resident.
  size_t limit = candidates.size();
  if (options.max_candidates != 0) {
    limit = std::min(limit, options.max_candidates);
  }
  constexpr size_t kChunk = 1024;
  for (size_t start = 0; start < limit; start += kChunk) {
    const size_t n = std::min(kChunk, limit - start);
    s.distances.resize(std::max(s.distances.size(), n));
    if (comp != nullptr) {
      EvalDistancesBatchCompressed(query, ctx, *comp,
                                   candidates.data() + start, n,
                                   s.distances.data());
    } else {
      EvalDistancesBatch(query, ctx, *base_, candidates.data() + start, n,
                         s.distances.data());
    }
    for (size_t i = 0; i < n; ++i) {
      (void)top.Offer(s.distances[i], candidates[start + i]);
    }
    result->stats.items_evaluated += n;
  }
  DrainInto(*base_, query, ctx, options, s, top, result);
}

SearchResult Searcher::RerankCandidates(const float* query,
                                        const std::vector<ItemId>& candidates,
                                        const SearchOptions& options,
                                        SearchScratch* scratch) const {
  SearchResult result;
  RerankCandidatesInto(query, candidates, options, scratch, &result);
  return result;
}

}  // namespace gqr
