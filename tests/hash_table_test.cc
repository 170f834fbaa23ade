// Tests for index/hash_table: partition invariant, lookup vs reference
// map, edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "index/hash_table.h"
#include "util/bits.h"
#include "util/random.h"

namespace gqr {
namespace {

TEST(HashTableTest, PartitionsItemsExactlyOnce) {
  Rng rng(51);
  const int m = 10;
  std::vector<Code> codes(5000);
  for (auto& c : codes) c = rng.Uniform(1u << m);
  StaticHashTable table(codes, m);
  EXPECT_EQ(table.num_items(), codes.size());

  std::set<ItemId> seen;
  size_t total = 0;
  for (size_t b = 0; b < table.num_buckets(); ++b) {
    for (ItemId id : table.bucket_items(b)) {
      EXPECT_TRUE(seen.insert(id).second) << "item " << id << " duplicated";
      EXPECT_EQ(codes[id], table.bucket_codes()[b]);
      ++total;
    }
  }
  EXPECT_EQ(total, codes.size());
}

TEST(HashTableTest, ProbeMatchesReferenceMap) {
  Rng rng(52);
  const int m = 12;
  std::vector<Code> codes(3000);
  for (auto& c : codes) c = rng.Uniform(1u << m);
  StaticHashTable table(codes, m);

  std::map<Code, std::multiset<ItemId>> ref;
  for (size_t i = 0; i < codes.size(); ++i) {
    ref[codes[i]].insert(static_cast<ItemId>(i));
  }
  // Every existing bucket returns exactly the reference members.
  for (const auto& [code, members] : ref) {
    auto span = table.Probe(code);
    std::multiset<ItemId> got(span.begin(), span.end());
    EXPECT_EQ(got, members);
  }
  // Absent buckets return empty spans.
  for (int i = 0; i < 200; ++i) {
    const Code c = rng.Uniform(1u << m);
    if (ref.count(c) == 0) {
      EXPECT_TRUE(table.Probe(c).empty());
    }
  }
}

TEST(HashTableTest, BucketCodesAscendingUnique) {
  Rng rng(53);
  std::vector<Code> codes(1000);
  for (auto& c : codes) c = rng.Uniform(256);
  StaticHashTable table(codes, 8);
  const auto& bc = table.bucket_codes();
  for (size_t i = 1; i < bc.size(); ++i) EXPECT_LT(bc[i - 1], bc[i]);
}

TEST(HashTableTest, SingleItem) {
  StaticHashTable table({Code{5}}, 4);
  EXPECT_EQ(table.num_buckets(), 1u);
  ASSERT_EQ(table.Probe(5).size(), 1u);
  EXPECT_EQ(table.Probe(5)[0], 0u);
  EXPECT_TRUE(table.Probe(4).empty());
}

TEST(HashTableTest, EmptyInput) {
  StaticHashTable table(std::vector<Code>{}, 8);
  EXPECT_EQ(table.num_buckets(), 0u);
  EXPECT_EQ(table.num_items(), 0u);
  EXPECT_TRUE(table.Probe(0).empty());
}

TEST(HashTableTest, AllItemsOneBucket) {
  std::vector<Code> codes(100, Code{3});
  StaticHashTable table(codes, 6);
  EXPECT_EQ(table.num_buckets(), 1u);
  EXPECT_EQ(table.Probe(3).size(), 100u);
  EXPECT_EQ(table.MaxBucketSize(), 100u);
}

TEST(HashTableTest, SixtyFourBitCodes) {
  std::vector<Code> codes = {0, ~Code{0}, Code{1} << 63, 42};
  StaticHashTable table(codes, 64);
  EXPECT_EQ(table.num_buckets(), 4u);
  EXPECT_EQ(table.Probe(~Code{0}).size(), 1u);
  EXPECT_EQ(table.Probe(~Code{0})[0], 1u);
}

TEST(HashTableTest, CodeZeroIsAValidBucket) {
  std::vector<Code> codes = {0, 0, 7};
  StaticHashTable table(codes, 3);
  EXPECT_EQ(table.Probe(0).size(), 2u);
}

// Probes every code of [0, 2^m) (for m = 40, every present code, its
// neighbours, the top code and a random sample) and compares Probe(),
// bucket_codes() and bucket_items() with a std::map reference. Items of a
// bucket must come back ascending by id, and codes past 2^m - 1 must
// probe empty.
void ExpectMatchesReference(const std::vector<ItemId>& ids,
                            const std::vector<Code>& codes, int m,
                            bool want_direct) {
  SCOPED_TRACE("m=" + std::to_string(m) + " items=" +
               std::to_string(codes.size()));
  const StaticHashTable table(ids, codes, m);
  std::map<Code, std::vector<ItemId>> ref;
  for (size_t i = 0; i < codes.size(); ++i) ref[codes[i]].push_back(ids[i]);
  for (auto& [code, members] : ref) {
    std::sort(members.begin(), members.end());
  }
  EXPECT_EQ(table.direct_addressed(), want_direct);
  EXPECT_EQ(table.num_items(), codes.size());

  ASSERT_EQ(table.num_buckets(), ref.size());
  size_t b = 0;
  for (const auto& [code, members] : ref) {
    EXPECT_EQ(table.bucket_codes()[b], code);
    const std::span<const ItemId> items = table.bucket_items(b);
    EXPECT_EQ(std::vector<ItemId>(items.begin(), items.end()), members);
    ++b;
  }

  const auto expect_probe = [&](Code c) {
    const std::span<const ItemId> got = table.Probe(c);
    const auto it = ref.find(c);
    const std::vector<ItemId> want =
        it == ref.end() ? std::vector<ItemId>() : it->second;
    EXPECT_EQ(std::vector<ItemId>(got.begin(), got.end()), want)
        << "code " << c;
  };
  const Code top = LowBitsMask(m);
  if (m <= 20) {
    for (Code c = 0; c <= top; ++c) expect_probe(c);
  } else {
    Rng rng(99);
    for (const auto& [code, members] : ref) {
      expect_probe(code);
      expect_probe(code ^ 1);
    }
    for (int i = 0; i < 1000; ++i) expect_probe(rng.Uniform(top + 1));
    expect_probe(top);
  }
  if (m < 64) {
    EXPECT_TRUE(table.Probe(top + 1).empty());
    EXPECT_TRUE(table.Probe(~Code{0}).empty());
  }
}

std::vector<ItemId> Iota(size_t n) {
  std::vector<ItemId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<ItemId>(i);
  return ids;
}

// `buckets` distinct codes drawn from [0, 2^m), always including 0 and
// 2^m - 1, each holding 1-3 items; ids are strided so they are not dense.
void DistinctCodes(int m, size_t buckets, uint64_t seed,
                   std::vector<ItemId>* ids, std::vector<Code>* codes) {
  Rng rng(seed);
  const Code top = LowBitsMask(m);
  std::set<Code> picked = {0, top};
  while (picked.size() < buckets) picked.insert(rng.Uniform(top + 1));
  ids->clear();
  codes->clear();
  ItemId next_id = 7;
  for (Code c : picked) {
    const size_t copies = 1 + rng.Uniform(3);
    for (size_t j = 0; j < copies; ++j) {
      codes->push_back(c);
      ids->push_back(next_id);
      next_id += 3;
    }
  }
  // Shuffle so the constructor has to sort.
  for (size_t i = codes->size(); i > 1; --i) {
    const size_t j = rng.Uniform(i);
    std::swap((*codes)[i - 1], (*codes)[j]);
    std::swap((*ids)[i - 1], (*ids)[j]);
  }
}

TEST(HashTableTest, DenseAndSparseLayoutsMatchReferenceMap) {
  std::vector<ItemId> ids;
  std::vector<Code> codes;
  // m = 1: both codes present (2 <= 4, dense), and one code (2 <= 2,
  // dense at the boundary).
  ExpectMatchesReference(Iota(3), {1, 0, 1}, 1, /*want_direct=*/true);
  ExpectMatchesReference(Iota(2), {1, 1}, 1, /*want_direct=*/true);
  // Empty table: no buckets, so the slot map.
  ExpectMatchesReference({}, {}, 8, /*want_direct=*/false);
  // Around the 2^m <= 2B boundary at m = 8: B = 127 (sparse), 128 (dense,
  // exactly on the rule), 129 (dense).
  DistinctCodes(8, 127, 1, &ids, &codes);
  ExpectMatchesReference(ids, codes, 8, /*want_direct=*/false);
  DistinctCodes(8, 128, 2, &ids, &codes);
  ExpectMatchesReference(ids, codes, 8, /*want_direct=*/true);
  DistinctCodes(8, 129, 3, &ids, &codes);
  ExpectMatchesReference(ids, codes, 8, /*want_direct=*/true);
  // Well inside each side: a full code space and a thin one.
  DistinctCodes(12, 4096, 4, &ids, &codes);
  ExpectMatchesReference(ids, codes, 12, /*want_direct=*/true);
  DistinctCodes(14, 300, 5, &ids, &codes);
  ExpectMatchesReference(ids, codes, 14, /*want_direct=*/false);
  // Sparse m = 40.
  DistinctCodes(40, 2000, 6, &ids, &codes);
  ExpectMatchesReference(ids, codes, 40, /*want_direct=*/false);
}

}  // namespace
}  // namespace gqr
