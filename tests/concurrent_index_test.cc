// Concurrency stress for the sharded serving subsystem: writer threads
// Insert/Remove against a ShardedIndex (with periodic shard freezes)
// while reader threads run GQR searches through ShardedSearch. Run under
// the TSan CI leg this is the data-race proof for the whole path — the
// task-group pool, the per-shard locking, and the freeze/swap protocol
// (a query started after a Remove never sees the item).
//
// Iteration counts default low so tier-1 ctest stays fast; set
// GQR_STRESS_ITERS (read through util/env) for full-length soak runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "core/batch_search.h"
#include "core/searcher.h"
#include "core/sharded_search.h"
#include "data/synthetic.h"
#include "hash/lsh.h"
#include "util/env.h"

namespace gqr {
namespace {

constexpr int kBits = 12;
constexpr size_t kShards = 4;

struct StressFixture {
  Dataset base;
  Dataset queries;
  LinearHasher hasher;
  std::vector<Code> codes;

  static StressFixture Make() {
    SyntheticSpec spec;
    spec.n = 4032;
    spec.dim = 8;
    spec.num_clusters = 20;
    spec.seed = 401;
    Dataset all = GenerateClusteredGaussian(spec);
    Rng rng(11);
    auto [base, queries] = all.SplitQueries(32, &rng);
    LshOptions opt;
    opt.code_length = kBits;
    LinearHasher hasher = TrainLsh(base, base.dim(), opt);
    std::vector<Code> codes = hasher.HashDataset(base);
    return StressFixture{std::move(base), std::move(queries),
                         std::move(hasher), std::move(codes)};
  }
};

TEST(ConcurrentIndexTest, InsertRemoveWhileSearching) {
  const int64_t iters = StressIters(/*fallback=*/40);
  StressFixture f = StressFixture::Make();
  const size_t n = f.base.size();
  const size_t stable = n / 2;  // [0, stable) stays put; the rest churns.

  ShardedIndex index(kBits, kShards);
  for (size_t id = 0; id < stable; ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), f.codes[id]).ok());
  }

  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 10;
  so.max_candidates = 300;

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};

  // Two writers churn disjoint halves of the dynamic id range: insert
  // the whole slice, freeze a shard mid-stream, then remove the slice.
  // Every operation on a present/absent item must succeed — a lost or
  // duplicated update would surface as a failed Status.
  const size_t churn = n - stable;
  auto writer = [&](size_t lo, size_t hi) {
    for (int64_t it = 0; it < iters; ++it) {
      for (size_t id = lo; id < hi; ++id) {
        if (!index.Insert(static_cast<ItemId>(id), f.codes[id]).ok()) {
          violation.store(true);
        }
      }
      (void)index.FreezeShard(static_cast<size_t>(it) % kShards);
      for (size_t id = lo; id < hi; ++id) {
        if (!index.Remove(static_cast<ItemId>(id), f.codes[id]).ok()) {
          violation.store(true);
        }
      }
    }
  };

  // Readers run batched GQR searches the whole time and validate every
  // result: ids in range, no duplicates within a result, distances
  // finite and ascending. A torn bucket (half-inserted vector, stale
  // span) would produce out-of-range or duplicate ids.
  auto reader = [&] {
    std::vector<SearchResult> results;
    while (!stop.load(std::memory_order_acquire)) {
      ShardedSearchInto(searcher, f.hasher, index, f.queries,
                        QueryMethod::kGQR, so, &results);
      for (const SearchResult& r : results) {
        std::set<ItemId> seen;
        float prev = -1.f;
        for (size_t i = 0; i < r.ids.size(); ++i) {
          if (r.ids[i] >= n || !seen.insert(r.ids[i]).second ||
              !std::isfinite(r.distances[i]) || r.distances[i] < prev) {
            violation.store(true);
          }
          prev = r.distances[i];
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, stable, stable + churn / 2);
  threads.emplace_back(writer, stable + churn / 2, n);
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_FALSE(violation.load());

  // Quiesced: no lost items — exactly the stable half remains, each
  // still findable under its code, and every churned id is gone.
  EXPECT_EQ(index.num_items(), stable);
  for (size_t id = 0; id < n; ++id) {
    EXPECT_EQ(index.Contains(static_cast<ItemId>(id), f.codes[id]),
              id < stable)
        << "id " << id;
  }

  // And the quiesced sharded index answers identically to an unsharded
  // static table over the same (sparse) id set.
  index.FreezeAll();
  std::vector<ItemId> stable_ids(stable);
  std::vector<Code> stable_codes(stable);
  for (size_t id = 0; id < stable; ++id) {
    stable_ids[id] = static_cast<ItemId>(id);
    stable_codes[id] = f.codes[id];
  }
  StaticHashTable reference(stable_ids, stable_codes, kBits);
  const auto expected = BatchSearch(searcher, f.hasher, reference,
                                    f.queries, QueryMethod::kGQR, so);
  const auto got = ShardedSearch(searcher, f.hasher, index, f.queries,
                                 QueryMethod::kGQR, so);
  ASSERT_EQ(expected.size(), got.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(expected[q].ids, got[q].ids) << "query " << q;
    EXPECT_EQ(expected[q].distances, got[q].distances) << "query " << q;
  }
}

TEST(ConcurrentIndexTest, ConcurrentFreezeAndSearchOnAllMethods) {
  // HR/QR snapshot the bucket-code union per batch; make sure the
  // sorted-upfront methods also hold up while freezes and writes land.
  const int64_t iters = StressIters(/*fallback=*/40) / 4 + 1;
  StressFixture f = StressFixture::Make();
  const size_t n = f.base.size();

  ShardedIndex index(kBits, kShards);
  for (size_t id = 0; id < n; ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), f.codes[id]).ok());
  }

  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 5;
  so.max_candidates = 200;

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread churner([&] {
    // Re-insert/remove one slice of ids forever (content oscillates but
    // never corrupts), freezing shards round-robin.
    size_t round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (ItemId id = 0; id < 64; ++id) {
        if (!index.Remove(id, f.codes[id]).ok()) violation.store(true);
      }
      (void)index.FreezeShard(round++ % kShards);
      for (ItemId id = 0; id < 64; ++id) {
        if (!index.Insert(id, f.codes[id]).ok()) violation.store(true);
      }
    }
  });
  for (int64_t it = 0; it < iters; ++it) {
    for (QueryMethod m :
         {QueryMethod::kGQR, QueryMethod::kGHR, QueryMethod::kQR,
          QueryMethod::kHR}) {
      const auto results =
          ShardedSearch(searcher, f.hasher, index, f.queries, m, so);
      for (const SearchResult& r : results) {
        for (ItemId id : r.ids) {
          if (id >= n) violation.store(true);
        }
      }
    }
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(index.num_items(), n);
}

TEST(ConcurrentIndexTest, QueriesAfterRemoveNeverReturnTheRemovedId) {
  const int64_t iters = StressIters(/*fallback=*/40);
  StressFixture f = StressFixture::Make();
  const size_t n = f.base.size();
  ShardedIndex index(kBits, kShards);
  for (size_t id = 0; id < n; ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), f.codes[id]).ok());
  }
  index.FreezeAll();

  // The writer removes these ids in order, re-freezing the owning shard
  // after every other removal (so shards alternate between frozen
  // snapshots and live tables), and publishes how many are gone.
  std::vector<ItemId> doomed;
  const size_t count = std::min<size_t>(n / 2, static_cast<size_t>(iters) * 8);
  for (size_t j = 0; j < count; ++j) {
    doomed.push_back(static_cast<ItemId>((j * 37) % n));
  }
  std::vector<size_t> rank(n, count);
  for (size_t j = 0; j < count; ++j) rank[doomed[j]] = j;

  Searcher searcher(f.base);
  SearchOptions so;
  so.k = 5;
  so.max_candidates = 200;
  std::atomic<size_t> removed{0};
  std::atomic<bool> violation{false};
  std::atomic<size_t> queries{0};

  std::thread writer([&] {
    for (size_t j = 0; j < count; ++j) {
      const ItemId id = doomed[j];
      if (!index.Remove(id, f.codes[id]).ok()) violation.store(true);
      if (j % 2 == 0) (void)index.FreezeShard(index.ShardOf(id));
      removed.store(j + 1, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  auto reader = [&](size_t salt) {
    size_t q = salt;
    for (;;) {
      const size_t gone = removed.load(std::memory_order_acquire);
      // Query with the row of a removed item (its own bucket comes first)
      // or of one still to go.
      const ItemId target = doomed[(gone > 0 ? q % gone : q) % count];
      const float* query = f.base.Row(target);
      auto prober = MakeShardedProber(
          QueryMethod::kGQR, f.hasher.HashQuery(query), {}, kBits);
      const SearchResult r = searcher.Search(query, prober.get(), index, so);
      for (ItemId id : r.ids) {
        if (id >= n || rank[id] < gone) violation.store(true);
      }
      queries.fetch_add(1);
      ++q;
      if (gone == count) break;
    }
  };
  std::thread r1(reader, 0);
  std::thread r2(reader, 7);
  writer.join();
  r1.join();
  r2.join();
  EXPECT_FALSE(violation.load());
  EXPECT_GT(queries.load(), 2u);
  EXPECT_EQ(index.num_items(), n - count);
}

}  // namespace
}  // namespace gqr
