// Differential tests for the linear-time QR and HR rankings: every
// emitted bucket, last_score() and qd_bound() must equal those of the
// textbook constructions kept below as references (QD for every bucket
// plus one comparison sort for QR; one bin vector per Hamming distance
// for HR), across code lengths, bucket densities (both QD evaluation
// paths), explicit unsorted bucket lists and degenerate flip costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hr_prober.h"
#include "core/qd.h"
#include "core/qr_prober.h"
#include "index/hash_table.h"
#include "util/random.h"

namespace gqr {
namespace {

struct Ranked {
  Code bucket;
  double score;
};

// Algorithm 1 as first written: QD for every bucket, then std::sort by
// (QD, code).
std::vector<Ranked> ReferenceQrOrder(const QueryHashInfo& info,
                                     const std::vector<Code>& codes) {
  std::vector<QrProber::Scored> order;
  order.reserve(codes.size());
  for (Code code : codes) {
    order.push_back({QuantizationDistance(info, code), code});
  }
  std::sort(order.begin(), order.end(),
            [](const QrProber::Scored& a, const QrProber::Scored& b) {
              if (a.qd != b.qd) return a.qd < b.qd;
              return a.bucket < b.bucket;
            });
  std::vector<Ranked> out;
  out.reserve(order.size());
  for (const QrProber::Scored& s : order) out.push_back({s.bucket, s.qd});
  return out;
}

// HR as first written: one bin of codes per Hamming distance, filled in
// input order.
std::vector<Ranked> ReferenceHrOrder(const QueryHashInfo& info,
                                     const std::vector<Code>& codes, int m) {
  std::vector<std::vector<Code>> bins(m + 1);
  for (Code code : codes) {
    bins[HammingDistance(info.code, code)].push_back(code);
  }
  std::vector<Ranked> out;
  out.reserve(codes.size());
  for (int d = 0; d <= m; ++d) {
    for (Code code : bins[d]) out.push_back({code, static_cast<double>(d)});
  }
  return out;
}

// Drains `prober`, checking each emission against `expected` (QR:
// qd_bound() is the emitted QD itself).
void ExpectQrEmits(QrProber* prober, const std::vector<Ranked>& expected) {
  ProbeTarget t;
  size_t i = 0;
  while (prober->Next(&t)) {
    ASSERT_LT(i, expected.size());
    ASSERT_EQ(t.bucket, expected[i].bucket) << "position " << i;
    ASSERT_EQ(prober->last_score(), expected[i].score) << "position " << i;
    ASSERT_EQ(prober->qd_bound(), expected[i].score) << "position " << i;
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

QueryHashInfo RandomInfo(int m, Rng* rng) {
  QueryHashInfo info;
  info.code = rng->Uniform(Code{1} << m);
  info.flip_costs.resize(m);
  for (double& c : info.flip_costs) c = rng->UniformDouble();
  return info;
}

// Distinct codes from `draws` uniform draws, in random order (a bucket
// list never repeats a code).
std::vector<Code> RandomCodes(int m, size_t draws, Rng* rng) {
  std::vector<Code> codes(draws);
  for (Code& c : codes) c = rng->Uniform(Code{1} << m);
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  rng->Shuffle(&codes);
  return codes;
}

// QR ranking over the explicit list `codes`, in its given order.
void ExpectQrMatchesReference(const QueryHashInfo& info,
                              const std::vector<Code>& codes) {
  const std::vector<Ranked> expected = ReferenceQrOrder(info, codes);
  QrProber from_list(info, codes);
  ExpectQrEmits(&from_list, expected);
}

TEST(QrProberDifferentialTest, RandomTablesMatchCompareAllAndSort) {
  Rng rng(401);
  for (int m : {1, 2, 8, 14, 20}) {
    const size_t space = size_t{1} << m;
    // Sparse tables evaluate QD per bucket, dense ones (2^m <= 2B) from
    // the per-flip-mask table.
    for (size_t draws : {std::max<size_t>(1, space / 8),
                         std::min<size_t>(4 * space, 60000)}) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " draws=" << draws << " trial=" << trial);
        StaticHashTable table(RandomCodes(m, draws, &rng), m);
        const QueryHashInfo info = RandomInfo(m, &rng);
        QrProber prober(info, table);
        ExpectQrEmits(&prober, ReferenceQrOrder(info, table.bucket_codes()));
      }
    }
  }
}

TEST(QrProberDifferentialTest, UnsortedExplicitListMatchesTable) {
  Rng rng(402);
  for (int m : {8, 14}) {
    StaticHashTable table(RandomCodes(m, size_t{3} << m, &rng), m);
    const QueryHashInfo info = RandomInfo(m, &rng);
    std::vector<Code> shuffled = table.bucket_codes();
    rng.Shuffle(&shuffled);
    ASSERT_NE(shuffled, table.bucket_codes());
    const std::vector<Ranked> expected =
        ReferenceQrOrder(info, table.bucket_codes());
    QrProber from_list(info, shuffled);
    ExpectQrEmits(&from_list, expected);
  }
}

TEST(QrProberDifferentialTest, AllZeroCostsRankByCode) {
  // Max QD 0: a single counting-sort bin, ordered by code alone.
  Rng rng(403);
  for (int m : {8, 14}) {
    std::vector<Code> codes = RandomCodes(m, size_t{2} << m, &rng);
    QueryHashInfo info = RandomInfo(m, &rng);
    std::fill(info.flip_costs.begin(), info.flip_costs.end(), 0.0);
    ExpectQrMatchesReference(info, codes);
  }
}

TEST(QrProberDifferentialTest, EqualCostsTieMassesBreakByCode) {
  // QD = cost * Hamming distance: m+1 distinct values over 2^m buckets,
  // so the middle bins far exceed the insertion-sort length.
  Rng rng(404);
  for (int m : {8, 12}) {
    std::vector<Code> codes(size_t{1} << m);
    for (size_t c = 0; c < codes.size(); ++c) codes[c] = c;
    rng.Shuffle(&codes);
    QueryHashInfo info = RandomInfo(m, &rng);
    std::fill(info.flip_costs.begin(), info.flip_costs.end(), 0.37);
    ExpectQrMatchesReference(info, codes);
  }
}

TEST(QrProberDifferentialTest, OneDominantCost) {
  // One cost dwarfs the rest: the QDs form two narrow clusters at the
  // ends of the range and most bins stay empty.
  Rng rng(405);
  for (int m : {10, 16}) {
    std::vector<Code> codes = RandomCodes(m, size_t{1} << (m - 1), &rng);
    QueryHashInfo info = RandomInfo(m, &rng);
    info.flip_costs[m / 2] = 1e9;
    ExpectQrMatchesReference(info, codes);
  }
}

TEST(QrProberDifferentialTest, EmptyAndSingleBucket) {
  Rng rng(406);
  const QueryHashInfo info = RandomInfo(12, &rng);
  QrProber empty(info, std::vector<Code>{});
  ProbeTarget t;
  EXPECT_FALSE(empty.Next(&t));
  ExpectQrMatchesReference(info, {info.code ^ 5});
  ExpectQrMatchesReference(info, {info.code});
}

TEST(QrProberDifferentialTest, SparseCodesAtM63) {
  Rng rng(407);
  const int m = 63;
  for (int trial = 0; trial < 3; ++trial) {
    QueryHashInfo info = RandomInfo(m, &rng);
    std::vector<Code> codes = RandomCodes(m, 5000, &rng);
    // Near neighbours of the query's own code as well, so low QDs occur
    // too.
    for (int b = 0; b < m; ++b) codes.push_back(info.code ^ (Code{1} << b));
    StaticHashTable table(codes, m);
    ExpectQrMatchesReference(info, table.bucket_codes());
    QrProber from_table(info, table);
    ExpectQrEmits(&from_table, ReferenceQrOrder(info, table.bucket_codes()));
  }
}

TEST(HrProberDifferentialTest, MatchesPerDistanceBins) {
  Rng rng(408);
  for (int m : {1, 2, 8, 14, 20, 63}) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    const std::vector<Code> codes = RandomCodes(m, 4000, &rng);
    StaticHashTable table(codes, m);
    const QueryHashInfo info = RandomInfo(m, &rng);
    // Table order, and an explicit unsorted list (stable within each
    // distance in input order).
    for (const std::vector<Code>* list : {&table.bucket_codes(), &codes}) {
      const std::vector<Ranked> expected = ReferenceHrOrder(info, *list, m);
      HrProber prober(info, *list, m);
      ProbeTarget t;
      size_t i = 0;
      while (prober.Next(&t)) {
        ASSERT_LT(i, expected.size());
        ASSERT_EQ(t.bucket, expected[i].bucket) << "position " << i;
        ASSERT_EQ(prober.last_score(), expected[i].score);
        ++i;
      }
      EXPECT_EQ(i, expected.size());
    }
  }
}

}  // namespace
}  // namespace gqr
