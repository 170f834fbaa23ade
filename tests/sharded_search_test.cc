// Differential tests for the sharded serving path: ShardedSearch over a
// ShardedIndex must return results identical to single-table BatchSearch
// for every querying method and shard count (the shards partition the
// corpus, and probing follows the same global bucket order), plus unit
// coverage of ShardedIndex semantics and the per-shard GQR probe-order
// property (Property 1/2: full ascending-QD enumeration).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/batch_search.h"
#include "core/gqr_prober.h"
#include "core/qd.h"
#include "core/sharded_search.h"
#include "data/synthetic.h"
#include "hash/itq.h"
#include "hash/pcah.h"

namespace gqr {
namespace {

constexpr int kBits = 10;

struct ShardFixture {
  Dataset base;
  Dataset queries;
  LinearHasher hasher;
  std::vector<Code> codes;
  StaticHashTable table;

  static ShardFixture Make(bool use_itq) {
    SyntheticSpec spec;
    spec.n = 3000;
    spec.dim = 12;
    spec.num_clusters = 25;
    spec.seed = use_itq ? 311 : 313;
    Dataset all = GenerateClusteredGaussian(spec);
    Rng rng(7);
    auto [base, queries] = all.SplitQueries(40, &rng);
    LinearHasher hasher = [&] {
      if (use_itq) {
        ItqOptions opt;
        opt.code_length = kBits;
        return TrainItq(base, opt);
      }
      PcahOptions opt;
      opt.code_length = kBits;
      return TrainPcah(base, opt);
    }();
    std::vector<Code> codes = hasher.HashDataset(base);
    StaticHashTable table(codes, kBits);
    return ShardFixture{std::move(base), std::move(queries),
                        std::move(hasher), std::move(codes),
                        std::move(table)};
  }

  void Populate(ShardedIndex* index) const {
    for (size_t id = 0; id < base.size(); ++id) {
      ASSERT_TRUE(
          index->Insert(static_cast<ItemId>(id), codes[id]).ok());
    }
  }
};

void ExpectSameResults(const std::vector<SearchResult>& expected,
                       const std::vector<SearchResult>& actual,
                       const char* label) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(expected[q].ids, actual[q].ids) << label << " query " << q;
    EXPECT_EQ(expected[q].distances, actual[q].distances)
        << label << " query " << q;
    EXPECT_EQ(expected[q].stats.items_evaluated,
              actual[q].stats.items_evaluated)
        << label << " query " << q;
    EXPECT_EQ(expected[q].stats.buckets_probed,
              actual[q].stats.buckets_probed)
        << label << " query " << q;
  }
}

TEST(ShardedSearchTest, MatchesBatchSearchAcrossShardCountsAndMethods) {
  for (bool use_itq : {true, false}) {
    ShardFixture f = ShardFixture::Make(use_itq);
    Searcher searcher(f.base);
    SearchOptions so;
    so.k = 10;
    so.max_candidates = 400;
    for (QueryMethod m :
         {QueryMethod::kGQR, QueryMethod::kQR, QueryMethod::kHR}) {
      const auto expected = BatchSearch(searcher, f.hasher, f.table,
                                        f.queries, m, so);
      for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
        ShardedIndex index(kBits, shards);
        f.Populate(&index);
        const auto got = ShardedSearch(searcher, f.hasher, index,
                                       f.queries, m, so);
        const std::string label = std::string(use_itq ? "itq" : "pcah") +
                                  "/" + QueryMethodName(m) + "/" +
                                  std::to_string(shards) + " shards";
        ExpectSameResults(expected, got, label.c_str());
      }
    }
  }
}

TEST(ShardedSearchTest, FrozenShardsServeIdenticalResults) {
  ShardFixture f = ShardFixture::Make(/*use_itq=*/true);
  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 8;
  so.max_candidates = 300;
  ShardedIndex index(kBits, 4);
  f.Populate(&index);
  const auto live = ShardedSearch(searcher, f.hasher, index, f.queries,
                                  QueryMethod::kGQR, so);
  index.FreezeAll();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_TRUE(index.ShardFrozen(s));
  }
  const auto frozen = ShardedSearch(searcher, f.hasher, index, f.queries,
                                    QueryMethod::kGQR, so);
  ExpectSameResults(live, frozen, "frozen");
  // A mutation invalidates that shard's snapshot; searches fall back to
  // the live table and still see the new item.
  const ItemId extra = static_cast<ItemId>(f.base.size() - 1);
  ASSERT_TRUE(index.Remove(extra, f.codes[extra]).ok());
  ASSERT_TRUE(index.Insert(extra, f.codes[extra]).ok());
  EXPECT_FALSE(index.ShardFrozen(index.ShardOf(extra)));
  const auto after = ShardedSearch(searcher, f.hasher, index, f.queries,
                                   QueryMethod::kGQR, so);
  ExpectSameResults(live, after, "after freeze invalidation");
}

TEST(ShardedSearchTest, GqrProbeOrderMatchesFullQdEnumerationPerShard) {
  // Property 1/2 per shard: against any shard's frozen snapshot, the GQR
  // prober emits every bucket of the 2^m code space exactly once in
  // non-decreasing QD order — sharding changes which buckets are
  // non-empty, never the emission order.
  ShardFixture f = ShardFixture::Make(/*use_itq=*/false);
  ShardedIndex index(kBits, 3);
  f.Populate(&index);
  index.FreezeAll();
  for (int q = 0; q < 3; ++q) {
    const QueryHashInfo info = f.hasher.HashQuery(f.queries.Row(q));
    GqrProber prober(info);
    ProbeTarget target;
    std::set<Code> seen;
    double prev_qd = -1.0;
    size_t nonempty[3] = {0, 0, 0};
    while (prober.Next(&target)) {
      const double qd = QuantizationDistance(info, target.bucket);
      EXPECT_DOUBLE_EQ(qd, prober.last_score());
      EXPECT_GE(qd, prev_qd);
      prev_qd = qd;
      EXPECT_TRUE(seen.insert(target.bucket).second);
      for (size_t s = 0; s < 3; ++s) {
        if (!index.FrozenShard(s)->Probe(target.bucket).empty()) {
          ++nonempty[s];
        }
      }
    }
    EXPECT_EQ(seen.size(), size_t{1} << kBits);
    // The per-shard non-empty bucket counts must sum consistently with
    // the shard tables themselves.
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(nonempty[s], index.FrozenShard(s)->num_buckets());
    }
  }
}

TEST(ShardedIndexTest, PartitionAndBasicOps) {
  ShardedIndex index(kBits, 5);
  EXPECT_EQ(index.num_shards(), 5u);
  EXPECT_EQ(index.num_items(), 0u);
  for (ItemId id = 0; id < 200; ++id) {
    ASSERT_TRUE(index.Insert(id, id % 64).ok());
    EXPECT_LT(index.ShardOf(id), 5u);
  }
  EXPECT_EQ(index.num_items(), 200u);
  size_t total = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    total += index.shard_size(s);
  }
  EXPECT_EQ(total, 200u);

  // Duplicate insert fails and does not bump the version.
  const uint64_t v = index.shard_version(index.ShardOf(7));
  EXPECT_FALSE(index.Insert(7, 7).ok());
  EXPECT_EQ(index.shard_version(index.ShardOf(7)), v);

  EXPECT_TRUE(index.Contains(9, 9));
  EXPECT_FALSE(index.Contains(9, 10));
  ASSERT_TRUE(index.Remove(9, 9).ok());
  EXPECT_FALSE(index.Contains(9, 9));
  EXPECT_EQ(index.num_items(), 199u);
  EXPECT_FALSE(index.Remove(9, 9).ok());

  // ProbeAll unions the shards: bucket 3 holds ids {3, 67, 131, 195}.
  std::vector<ItemId> items;
  index.ProbeAll(3, &items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, (std::vector<ItemId>{3, 67, 131, 195}));

  // The bucket-code union equals the distinct codes inserted.
  EXPECT_EQ(index.BucketCodeUnion().size(), 64u);
}

TEST(ShardedIndexTest, BucketCodeUnionMatchesUnshardedTable) {
  ShardFixture f = ShardFixture::Make(/*use_itq=*/true);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedIndex index(kBits, shards);
    f.Populate(&index);
    EXPECT_EQ(index.BucketCodeUnion(), f.table.bucket_codes());
  }
}

// Inserts one fresh item with `code` into `shard`, drawing ids from
// `*next_id` until one hashes there.
void InsertIntoShard(ShardedIndex* index, size_t shard, Code code,
                     ItemId* next_id) {
  while (index->ShardOf(*next_id) != shard) ++*next_id;
  ASSERT_TRUE(index->Insert((*next_id)++, code).ok());
}

TEST(ShardedIndexTest, BucketCodeUnionMatchesSetUnion) {
  // Per shard s of k: codes [100 s, 100 s + 150) overlap the next shard's
  // range, codes [5000 + 100 s, 5000 + 100 s + 50) are the shard's alone,
  // and shard 1 (when k > 1) stays empty. The union must equal the
  // std::set of all inserted codes whether every shard is stale, every
  // shard is frozen, or some frozen shards went stale since.
  for (size_t k : {size_t{1}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << k);
    ShardedIndex index(kBits + 4, k);
    std::set<Code> expected;
    ItemId next_id = 0;
    for (size_t s = 0; s < k; ++s) {
      if (k > 1 && s == 1) continue;
      for (Code c = 100 * s; c < 100 * s + 150; ++c) {
        InsertIntoShard(&index, s, c, &next_id);
        expected.insert(c);
      }
      for (Code c = 5000 + 100 * s; c < 5000 + 100 * s + 50; ++c) {
        InsertIntoShard(&index, s, c, &next_id);
        expected.insert(c);
      }
    }
    auto as_vector = [](const std::set<Code>& codes) {
      return std::vector<Code>(codes.begin(), codes.end());
    };
    EXPECT_EQ(index.BucketCodeUnion(), as_vector(expected));

    index.FreezeAll();
    EXPECT_EQ(index.BucketCodeUnion(), as_vector(expected));

    // Shard 0 goes stale with a new code, and shard k - 1 (frozen when
    // k > 1) stays current.
    InsertIntoShard(&index, 0, 9000, &next_id);
    expected.insert(9000);
    ASSERT_FALSE(index.ShardFrozen(0));
    EXPECT_EQ(index.BucketCodeUnion(), as_vector(expected));

    // Emptying a bucket of a stale shard drops its code from the union.
    ASSERT_TRUE(index.Remove(next_id - 1, 9000).ok());
    expected.erase(9000);
    EXPECT_EQ(index.BucketCodeUnion(), as_vector(expected));

    // Re-freezing one shard mixes a fresh snapshot with stale shards.
    InsertIntoShard(&index, k - 1, 9001, &next_id);
    expected.insert(9001);
    ASSERT_TRUE(index.FreezeShard(k - 1).ok());
    EXPECT_EQ(index.BucketCodeUnion(), as_vector(expected));
  }
  EXPECT_TRUE(ShardedIndex(kBits, 3).BucketCodeUnion().empty());
}

}  // namespace
}  // namespace gqr
