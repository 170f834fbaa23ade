// Tests for the Searcher: rerank correctness, budgets, early stop,
// metrics, and the MIH/IMI rerank path.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/gqr_prober.h"
#include "core/qd.h"
#include "core/searcher.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "hash/itq.h"
#include "la/vector_ops.h"

namespace gqr {
namespace {

struct Fixture {
  Dataset base;
  LinearHasher hasher;
  StaticHashTable table;

  static Fixture Make(size_t n = 3000, size_t dim = 12, int m = 10) {
    SyntheticSpec spec;
    spec.n = n;
    spec.dim = dim;
    spec.num_clusters = 30;
    spec.seed = 91;
    Dataset base = GenerateClusteredGaussian(spec);
    ItqOptions opt;
    opt.code_length = m;
    LinearHasher hasher = TrainItq(base, opt);
    StaticHashTable table(hasher.HashDataset(base), m);
    return Fixture{std::move(base), std::move(hasher), std::move(table)};
  }
};

TEST(SearcherTest, UnlimitedBudgetFindsExactNeighbors) {
  Fixture f = Fixture::Make(1000);
  Searcher searcher(f.base);
  const float* query = f.base.Row(17);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 10;
  opt.max_candidates = 0;  // Probe everything.
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  Neighbors exact = BruteForceKnn(f.base, query, 10);
  EXPECT_EQ(r.ids, exact.ids);
  EXPECT_EQ(r.stats.items_evaluated, f.base.size());
}

TEST(SearcherTest, ResultsSortedAscendingDistance) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  const float* query = f.base.Row(3);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 20;
  opt.max_candidates = 500;
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  ASSERT_EQ(r.ids.size(), 20u);
  for (size_t i = 1; i < r.distances.size(); ++i) {
    EXPECT_LE(r.distances[i - 1], r.distances[i]);
  }
  // Distances are genuine.
  for (size_t i = 0; i < r.ids.size(); ++i) {
    EXPECT_FLOAT_EQ(r.distances[i],
                    L2Distance(f.base.Row(r.ids[i]), query, f.base.dim()));
  }
}

TEST(SearcherTest, CandidateBudgetStopsEvaluation) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  const float* query = f.base.Row(5);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 5;
  opt.max_candidates = 100;
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  EXPECT_GE(r.stats.items_evaluated, 100u);
  // Overshoot is bounded by one bucket's population.
  EXPECT_LE(r.stats.items_evaluated, 100u + f.table.MaxBucketSize());
}

TEST(SearcherTest, BucketBudgetStopsProbing) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  const float* query = f.base.Row(6);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 5;
  opt.max_candidates = 0;
  opt.max_buckets = 7;
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  EXPECT_EQ(r.stats.buckets_probed, 7u);
}

TEST(SearcherTest, LargerBudgetNeverHurtsRecall) {
  Fixture f = Fixture::Make();
  Searcher searcher(f.base);
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto qid = static_cast<ItemId>(rng.Uniform(f.base.size()));
    const float* query = f.base.Row(qid);
    Neighbors exact = BruteForceKnn(f.base, query, 10);
    double prev_hits = -1.0;
    for (size_t budget : {50u, 200u, 1000u, 3000u}) {
      QueryHashInfo info = f.hasher.HashQuery(query);
      GqrProber prober(info);
      SearchOptions opt;
      opt.k = 10;
      opt.max_candidates = budget;
      SearchResult r = searcher.Search(query, &prober, f.table, opt);
      double hits = 0;
      for (ItemId id : r.ids) {
        if (std::find(exact.ids.begin(), exact.ids.end(), id) !=
            exact.ids.end()) {
          ++hits;
        }
      }
      EXPECT_GE(hits, prev_hits);
      prev_hits = hits;
    }
  }
}

TEST(SearcherTest, EarlyStopPreservesResultsAndSavesWork) {
  Fixture f = Fixture::Make(2000);
  Searcher searcher(f.base);
  const double mu = TheoremTwoMu(f.hasher);
  ASSERT_GT(mu, 0.0);
  const float* query = f.base.Row(42);
  QueryHashInfo info = f.hasher.HashQuery(query);

  SearchOptions no_stop;
  no_stop.k = 10;
  no_stop.max_candidates = 0;
  GqrProber p1(info);
  SearchResult full = searcher.Search(query, &p1, f.table, no_stop);

  SearchOptions stop = no_stop;
  stop.termination = TerminationPolicy{mu, 1.0};
  GqrProber p2(info);
  SearchResult stopped = searcher.Search(query, &p2, f.table, stop);

  // The margin-1 Theorem-2 stop is sound: same top-k as the exhaustive
  // run.
  EXPECT_EQ(stopped.ids, full.ids);
  // And it should truncate the probe sequence on clustered data.
  EXPECT_LE(stopped.stats.buckets_probed, full.stats.buckets_probed);
  EXPECT_TRUE(stopped.stats.terminated);
}

TEST(SearcherTest, RerankCandidatesMatchesManualSort) {
  Fixture f = Fixture::Make(500);
  Searcher searcher(f.base);
  const float* query = f.base.Row(9);
  std::vector<ItemId> candidates = {3, 99, 250, 7, 400, 9, 123};
  SearchOptions opt;
  opt.k = 3;
  opt.max_candidates = 0;
  SearchResult r = searcher.RerankCandidates(query, candidates, opt);
  std::sort(candidates.begin(), candidates.end(),
            [&](ItemId a, ItemId b) {
              return SquaredL2(f.base.Row(a), query, f.base.dim()) <
                     SquaredL2(f.base.Row(b), query, f.base.dim());
            });
  candidates.resize(3);
  EXPECT_EQ(r.ids, candidates);
}

TEST(SearcherTest, AngularMetric) {
  Fixture f = Fixture::Make(500);
  Searcher searcher(f.base);
  const float* query = f.base.Row(11);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 5;
  opt.max_candidates = 0;
  opt.metric = Metric::kAngular;
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  ASSERT_EQ(r.ids.size(), 5u);
  for (size_t i = 0; i < r.ids.size(); ++i) {
    EXPECT_FLOAT_EQ(r.distances[i], CosineDistance(f.base.Row(r.ids[i]),
                                                   query, f.base.dim()));
  }
}

TEST(SearcherTest, FewerItemsThanKReturnsAll) {
  Fixture f = Fixture::Make(500);
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchOptions opt;
  opt.k = 10;
  opt.max_candidates = 3;  // Stops after the first bucket >= 3 items.
  SearchResult r = searcher.Search(query, &prober, f.table, opt);
  EXPECT_LE(r.ids.size(), 10u);
  EXPECT_GE(r.ids.size(), 1u);
}

}  // namespace
}  // namespace gqr
