// Scratch-reuse and batch-parallelism tests:
//  - the Searcher hot path performs zero heap allocations per query once
//    its SearchScratch and result buffers are warm,
//  - BatchSearch returns identical results with 1 thread and N threads,
//  - the epoch-stamped visited set survives epoch wraparound.
//
// Allocation accounting replaces the global operator new/delete for the
// whole test binary; the replacements only count, so every other test is
// unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/batch_search.h"
#include "core/gqr_prober.h"
#include "core/searcher.h"
#include "data/synthetic.h"
#include "hash/itq.h"
#include "util/thread_pool.h"

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

// GCC's -Wmismatched-new-delete sees through the replacement operator
// new above (it inlines the malloc) and flags these free() calls at
// every optimized call site; pairing malloc/free across replaced global
// operators is exactly what the standard requires of a replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace gqr {
namespace {

size_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

struct Fixture {
  Dataset base;
  Dataset queries;
  LinearHasher hasher;
  StaticHashTable table;

  static Fixture Make() {
    SyntheticSpec spec;
    spec.n = 2500;
    spec.dim = 16;
    spec.num_clusters = 25;
    spec.seed = 77;
    Dataset all = GenerateClusteredGaussian(spec);
    Rng rng(9);
    auto [base, queries] = all.SplitQueries(40, &rng);
    ItqOptions opt;
    opt.code_length = 8;
    LinearHasher hasher = TrainItq(base, opt);
    StaticHashTable table(hasher.HashDataset(base), 8);
    return Fixture{std::move(base), std::move(queries), std::move(hasher),
                   std::move(table)};
  }
};

// A prober that replays a fixed bucket sequence. Probers like GQR
// legitimately allocate while expanding their generation frontier; this
// one lets the test isolate the *Searcher's* allocations.
class FixedSequenceProber : public BucketProber {
 public:
  explicit FixedSequenceProber(const std::vector<Code>* buckets)
      : buckets_(buckets) {}

  bool Next(ProbeTarget* target) override {
    if (pos_ >= buckets_->size()) return false;
    target->table = 0;
    target->bucket = (*buckets_)[pos_++];
    return true;
  }

  double last_score() const override { return static_cast<double>(pos_); }

 private:
  const std::vector<Code>* buckets_;
  size_t pos_ = 0;
};

TEST(ScratchReuseTest, SearchHotPathIsAllocationFreeAfterWarmup) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 10;
  so.max_candidates = 400;

  // Every non-empty bucket, replayed for each query.
  const std::vector<Code> buckets = f.table.bucket_codes();

  SearchScratch scratch;
  std::vector<SearchResult> results(f.queries.size());

  auto run_all = [&] {
    for (size_t q = 0; q < f.queries.size(); ++q) {
      FixedSequenceProber prober(&buckets);
      searcher.SearchInto(f.queries.Row(static_cast<ItemId>(q)), &prober,
                          f.table, so, &scratch, &results[q]);
    }
  };

  run_all();  // Warmup: scratch + per-result capacity grow to steady state.
  std::vector<SearchResult> expected = results;

  const size_t before = AllocCount();
  run_all();
  EXPECT_EQ(AllocCount(), before)
      << "Searcher hot path allocated after warmup";

  // Reuse changed nothing about the answers.
  for (size_t q = 0; q < results.size(); ++q) {
    EXPECT_EQ(results[q].ids, expected[q].ids) << "query " << q;
    EXPECT_EQ(results[q].distances, expected[q].distances) << "query " << q;
  }
}

TEST(ScratchReuseTest, ShardedSearchHotPathIsAllocationFreeAfterWarmup) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 10;
  so.max_candidates = 400;

  // Two shards probed from frozen snapshots, two live: the
  // double-buffered gather reuses the scratch on both paths.
  ShardedIndex index(8, 4);
  const std::vector<Code> codes = f.hasher.HashDataset(f.base);
  for (size_t id = 0; id < codes.size(); ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), codes[id]).ok());
  }
  ASSERT_TRUE(index.FreezeShard(0).ok());
  ASSERT_TRUE(index.FreezeShard(3).ok());
  const std::vector<Code> buckets = f.table.bucket_codes();

  SearchScratch scratch;
  std::vector<SearchResult> results(f.queries.size());
  auto run_all = [&] {
    for (size_t q = 0; q < f.queries.size(); ++q) {
      FixedSequenceProber prober(&buckets);
      searcher.SearchInto(f.queries.Row(static_cast<ItemId>(q)), &prober,
                          index, so, &scratch, &results[q]);
    }
  };

  run_all();  // Warmup.
  const size_t before = AllocCount();
  run_all();
  EXPECT_EQ(AllocCount(), before)
      << "sharded Searcher hot path allocated after warmup";
}

TEST(ScratchReuseTest, RerankHotPathIsAllocationFreeAfterWarmup) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 10;
  so.max_candidates = 0;
  so.metric = Metric::kAngular;  // Covers the fused cosine path too.

  std::vector<ItemId> candidates;
  for (size_t i = 0; i < f.base.size(); i += 2) {
    candidates.push_back(static_cast<ItemId>(i));
  }

  SearchScratch scratch;
  SearchResult result;
  searcher.RerankCandidatesInto(f.queries.Row(0), candidates, so, &scratch,
                                &result);
  const size_t before = AllocCount();
  for (int pass = 0; pass < 3; ++pass) {
    searcher.RerankCandidatesInto(f.queries.Row(0), candidates, so, &scratch,
                                  &result);
  }
  EXPECT_EQ(AllocCount(), before);
  EXPECT_EQ(result.ids.size(), 10u);
}

TEST(ScratchReuseTest, BatchSearchDeterministicAcrossThreadCounts) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 10;
  so.max_candidates = 300;

  ThreadPool one(1);
  ThreadPool many(4);
  auto serial = BatchSearch(searcher, f.hasher, f.table, f.queries,
                            QueryMethod::kGQR, so, &one);
  auto parallel = BatchSearch(searcher, f.hasher, f.table, f.queries,
                              QueryMethod::kGQR, so, &many);
  auto shared = BatchSearch(searcher, f.hasher, f.table, f.queries,
                            QueryMethod::kGQR, so);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), shared.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    EXPECT_EQ(serial[q].ids, parallel[q].ids) << "query " << q;
    EXPECT_EQ(serial[q].distances, parallel[q].distances) << "query " << q;
    EXPECT_EQ(serial[q].ids, shared[q].ids) << "query " << q;
    EXPECT_EQ(serial[q].stats.items_evaluated,
              parallel[q].stats.items_evaluated);
  }
}

TEST(ScratchReuseTest, BatchSearchIntoReusesResultStorage) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 5;
  so.max_candidates = 200;

  std::vector<SearchResult> results;
  BatchSearchInto(searcher, f.hasher, f.table, f.queries, QueryMethod::kGQR,
                  so, &results);
  std::vector<SearchResult> first = results;
  BatchSearchInto(searcher, f.hasher, f.table, f.queries, QueryMethod::kGQR,
                  so, &results);
  ASSERT_EQ(results.size(), f.queries.size());
  for (size_t q = 0; q < results.size(); ++q) {
    EXPECT_EQ(results[q].ids, first[q].ids) << "query " << q;
  }
}

TEST(ScratchReuseTest, HashingHotPathsAreAllocationFreeAfterWarmup) {
  Fixture f = Fixture::Make();

  // Warmup: thread-local projection buffers and this query's flip_costs
  // reach steady-state capacity.
  QueryHashInfo info;
  f.hasher.HashQueryInto(f.queries.Row(0), &info);
  Code code = f.hasher.HashItem(f.base.Row(0));

  const size_t before = AllocCount();
  for (int pass = 0; pass < 5; ++pass) {
    f.hasher.HashQueryInto(f.queries.Row(0), &info);
    code ^= f.hasher.HashItem(f.base.Row(0));
  }
  EXPECT_EQ(AllocCount(), before)
      << "HashQueryInto/HashItem allocated after warmup";
  (void)code;
}

TEST(ScratchReuseTest, HashQueryBatchIsAllocationFreeAfterWarmup) {
  Fixture f = Fixture::Make();

  std::vector<QueryHashInfo> infos(f.queries.size());
  std::vector<double> scratch;
  auto run = [&] {
    f.hasher.HashQueryBatch(f.queries.Row(0), f.queries.size(),
                            f.queries.dim(), &scratch, infos.data());
  };
  run();  // Warmup: scratch + every info's flip_costs grow once.

  const size_t before = AllocCount();
  run();
  EXPECT_EQ(AllocCount(), before) << "HashQueryBatch allocated after warmup";
}

TEST(ScratchReuseTest, GqrProberProbesWithoutReallocation) {
  Fixture f = Fixture::Make();
  QueryHashInfo info = f.hasher.HashQuery(f.queries.Row(0));

  // Construction reserves the heap (and builds perm_/sorted_costs_);
  // draining every bucket of an 8-bit code stays within that reserve, so
  // Next() itself must never touch the allocator.
  GqrProber prober(info);
  const size_t before = AllocCount();
  ProbeTarget target;
  size_t emitted = 0;
  while (prober.Next(&target)) ++emitted;
  EXPECT_EQ(emitted, size_t{1} << info.code_length());
  EXPECT_EQ(AllocCount(), before) << "GqrProber::Next allocated mid-stream";
}

TEST(ScratchReuseTest, VisitedSetSurvivesEpochWrap) {
  SearchScratch s;
  s.BeginQuery(/*base_size=*/8, /*need_visited=*/true);
  EXPECT_FALSE(s.CheckAndMarkSeen(3));
  EXPECT_TRUE(s.CheckAndMarkSeen(3));

  // Force the epoch counter to its max: the next query wraps it, which
  // must reset every stamp instead of aliasing old ones.
  s.epoch = 0xffffffffu;
  s.visited.assign(s.visited.size(), 0xffffffffu);  // All "seen" at max.
  s.BeginQuery(8, true);
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_FALSE(s.CheckAndMarkSeen(3));
  EXPECT_TRUE(s.CheckAndMarkSeen(3));
  EXPECT_FALSE(s.CheckAndMarkSeen(7));
}

TEST(ScratchReuseTest, ScratchGrowsAcrossDatasets) {
  // One scratch reused against a larger base must expand its visited set.
  SearchScratch s;
  s.BeginQuery(4, true);
  EXPECT_FALSE(s.CheckAndMarkSeen(3));
  s.BeginQuery(16, true);
  EXPECT_FALSE(s.CheckAndMarkSeen(15));
  EXPECT_TRUE(s.CheckAndMarkSeen(15));
  // Previous-query stamps are invalidated by the epoch bump alone.
  EXPECT_FALSE(s.CheckAndMarkSeen(3));
}

}  // namespace
}  // namespace gqr
