// Tests for §4.1 distance-threshold (range) search: exactness under the
// Theorem 2 early stop, against brute force — and the same exactness of
// the margin-1 termination stop of k-NN search, for every querying
// method.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/gqr_prober.h"
#include "core/qd.h"
#include "core/searcher.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "hash/itq.h"
#include "la/vector_ops.h"

namespace gqr {
namespace {

struct RangeFixture {
  Dataset base;
  LinearHasher hasher;
  StaticHashTable table;
  double mu;

  // `scale` multiplies every coordinate of the base before training.
  // Distances, flip costs and QDs shrink with it while Hamming radii do
  // not, so a small scale (flip costs below 1) catches a stop that reads
  // a bit count where it needs a QD.
  static RangeFixture Make(uint64_t seed, float scale = 1.0f) {
    SyntheticSpec spec;
    spec.n = 4000;
    spec.dim = 12;
    spec.num_clusters = 40;
    spec.cluster_stddev = 4.0;
    spec.zipf_exponent = 0.5;
    spec.seed = seed;
    Dataset base = GenerateClusteredGaussian(spec);
    for (size_t i = 0; i < base.size(); ++i) {
      float* row = base.MutableRow(static_cast<ItemId>(i));
      for (size_t j = 0; j < base.dim(); ++j) row[j] *= scale;
    }
    ItqOptions opt;
    opt.code_length = 9;
    opt.seed = seed;
    LinearHasher hasher = TrainItq(base, opt);
    StaticHashTable table(hasher.HashDataset(base), 9);
    const double mu = TheoremTwoMu(hasher);
    return RangeFixture{std::move(base), std::move(hasher),
                        std::move(table), mu};
  }
};

std::vector<ItemId> BruteForceRange(const Dataset& base, const float* q,
                                    float radius) {
  std::vector<std::pair<float, ItemId>> hits;
  for (size_t i = 0; i < base.size(); ++i) {
    const float d = L2Distance(base.Row(static_cast<ItemId>(i)), q,
                               base.dim());
    if (d <= radius) hits.emplace_back(d, static_cast<ItemId>(i));
  }
  std::sort(hits.begin(), hits.end());
  std::vector<ItemId> ids;
  for (const auto& [d, id] : hits) ids.push_back(id);
  return ids;
}

class RangeSearchTest : public ::testing::TestWithParam<int> {};

TEST_P(RangeSearchTest, ExactUnderEarlyStop) {
  RangeFixture f = RangeFixture::Make(160 + GetParam());
  ASSERT_GT(f.mu, 0.0);
  Searcher searcher(f.base);
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const auto qid = static_cast<ItemId>(rng.Uniform(f.base.size()));
    const float* query = f.base.Row(qid);
    for (float radius : {1.0f, 5.0f, 15.0f}) {
      QueryHashInfo info = f.hasher.HashQuery(query);
      GqrProber prober(info);
      SearchResult r =
          searcher.RangeSearch(query, &prober, f.table, radius, f.mu);
      EXPECT_EQ(r.ids, BruteForceRange(f.base, query, radius))
          << "radius " << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSearchTest, ::testing::Values(1, 2, 3));

TEST(RangeSearchTest, EarlyStopActuallyTruncates) {
  RangeFixture f = RangeFixture::Make(170);
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber with_stop(info);
  SearchResult stopped =
      searcher.RangeSearch(query, &with_stop, f.table, 2.0f, f.mu);
  GqrProber without_stop(info);
  SearchResult exhaustive =
      searcher.RangeSearch(query, &without_stop, f.table, 2.0f, 0.0);
  EXPECT_EQ(stopped.ids, exhaustive.ids);
  EXPECT_TRUE(stopped.stats.terminated);
  EXPECT_LT(stopped.stats.buckets_probed, exhaustive.stats.buckets_probed);
  EXPECT_LT(stopped.stats.items_evaluated,
            exhaustive.stats.items_evaluated);
}

// Every querying method, at the fixture's scale and at a small-flip-cost
// copy of it. Both stops read the prober's qd_bound(), which lower-bounds
// the QD of every bucket still to come — for HR/GHR too, whose
// last_score() is a Hamming radius and bounds nothing at small scales.
class MethodExactnessTest
    : public ::testing::TestWithParam<std::tuple<QueryMethod, float>> {};

TEST_P(MethodExactnessTest, RangeSearchMatchesBruteForce) {
  const auto [method, scale] = GetParam();
  for (uint64_t seed : {161u, 162u, 163u}) {
    RangeFixture f = RangeFixture::Make(seed, scale);
    ASSERT_GT(f.mu, 0.0);
    Searcher searcher(f.base);
    Rng rng(seed);
    size_t stopped = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const auto qid = static_cast<ItemId>(rng.Uniform(f.base.size()));
      const float* query = f.base.Row(qid);
      const QueryHashInfo info = f.hasher.HashQuery(query);
      for (float radius : {1.0f, 5.0f, 15.0f}) {
        auto prober = MakeProber(method, info, f.table);
        SearchResult r = searcher.RangeSearch(query, prober.get(), f.table,
                                              radius * scale, f.mu);
        EXPECT_EQ(r.ids, BruteForceRange(f.base, query, radius * scale))
            << "seed " << seed << " query " << qid << " radius "
            << radius * scale;
        if (r.stats.terminated) ++stopped;
      }
    }
    // Exactness must not come from exhausting every prober.
    EXPECT_GT(stopped, 0u) << "seed " << seed;
  }
}

TEST_P(MethodExactnessTest, MarginOneTerminationMatchesBruteForce) {
  const auto [method, scale] = GetParam();
  for (uint64_t seed : {161u, 162u, 163u}) {
    RangeFixture f = RangeFixture::Make(seed, scale);
    Searcher searcher(f.base);
    Rng rng(seed);
    SearchOptions exhaustive;
    exhaustive.k = 10;
    exhaustive.max_candidates = 0;
    SearchOptions stop = exhaustive;
    stop.termination = TerminationPolicy{f.mu, 1.0};
    size_t terminated = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const auto qid = static_cast<ItemId>(rng.Uniform(f.base.size()));
      const float* query = f.base.Row(qid);
      const QueryHashInfo info = f.hasher.HashQuery(query);
      auto p1 = MakeProber(method, info, f.table);
      const SearchResult want =
          searcher.Search(query, p1.get(), f.table, exhaustive);
      ASSERT_EQ(want.stats.items_evaluated, f.base.size());
      auto p2 = MakeProber(method, info, f.table);
      const SearchResult got = searcher.Search(query, p2.get(), f.table, stop);
      EXPECT_EQ(got.ids, want.ids) << "seed " << seed << " query " << qid;
      EXPECT_EQ(got.distances, want.distances)
          << "seed " << seed << " query " << qid;
      if (got.stats.terminated) ++terminated;
    }
    EXPECT_GT(terminated, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, MethodExactnessTest,
    ::testing::Combine(::testing::Values(QueryMethod::kHR, QueryMethod::kGHR,
                                         QueryMethod::kQR, QueryMethod::kGQR),
                       ::testing::Values(1.0f, 0.02f)),
    [](const auto& info) {
      return std::string(QueryMethodName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == 1.0f ? "_Scale1" : "_SmallFlipCosts");
    });

TEST(RangeSearchTest, ResultsSortedAndWithinRadius) {
  RangeFixture f = RangeFixture::Make(171);
  Searcher searcher(f.base);
  const float* query = f.base.Row(7);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  const float radius = 10.0f;
  SearchResult r =
      searcher.RangeSearch(query, &prober, f.table, radius, f.mu);
  for (size_t i = 0; i < r.ids.size(); ++i) {
    EXPECT_LE(r.distances[i], radius);
    if (i > 0) {
      EXPECT_LE(r.distances[i - 1], r.distances[i]);
    }
  }
  // The query is its own row: distance 0 must be present.
  ASSERT_FALSE(r.ids.empty());
  EXPECT_EQ(r.ids[0], 7u);
}

TEST(RangeSearchTest, AngularMetricMatchesBruteForce) {
  RangeFixture f = RangeFixture::Make(173);
  Searcher searcher(f.base);
  const float* query = f.base.Row(11);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  const float radius = 0.05f;  // Cosine distance threshold.
  // mu = 0: exhaust the prober (the Euclidean Theorem 2 bound does not
  // transfer to cosine radii, so no early stop is claimed here).
  SearchResult r = searcher.RangeSearch(query, &prober, f.table, radius, 0.0,
                                        Metric::kAngular);
  std::vector<std::pair<float, ItemId>> hits;
  for (size_t i = 0; i < f.base.size(); ++i) {
    const float d =
        CosineDistance(f.base.Row(static_cast<ItemId>(i)), query,
                       f.base.dim());
    if (d <= radius) hits.emplace_back(d, static_cast<ItemId>(i));
  }
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(r.ids.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(r.ids[i], hits[i].second);
    EXPECT_FLOAT_EQ(r.distances[i], hits[i].first);
  }
  // The query's own row is at cosine distance 0.
  ASSERT_FALSE(r.ids.empty());
  EXPECT_EQ(r.ids[0], 11u);
}

TEST(RangeSearchTest, ZeroRadiusFindsExactDuplicatesOnly) {
  RangeFixture f = RangeFixture::Make(172);
  Searcher searcher(f.base);
  const float* query = f.base.Row(3);
  QueryHashInfo info = f.hasher.HashQuery(query);
  GqrProber prober(info);
  SearchResult r = searcher.RangeSearch(query, &prober, f.table, 0.0f, f.mu);
  ASSERT_GE(r.ids.size(), 1u);
  for (float d : r.distances) EXPECT_FLOAT_EQ(d, 0.f);
}

}  // namespace
}  // namespace gqr
