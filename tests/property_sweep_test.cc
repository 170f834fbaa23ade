// Cross-cutting property sweeps: the library's core invariants checked
// over the full (learner x code length x seed) grid with parameterized
// gtest, catching interactions single-module tests miss.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>

#include "core/gqr_prober.h"
#include "core/qd.h"
#include "core/qr_prober.h"
#include "core/searcher.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "hash/itq.h"
#include "hash/kmh.h"
#include "hash/pcah.h"
#include "hash/sh.h"

namespace gqr {
namespace {

// A learner and the label its cases are listed under. The labels are the
// ones the cases were first registered with, when the learner was a bare
// `const char*` that gtest printed with the string's load address; that
// address moved with every run under ASLR, so the case names did too. The
// labels are now fixed strings, so every build lists the same names.
struct Learner {
  const char* name;
  const char* label;
};

void PrintTo(const Learner& learner, std::ostream* os) { *os << learner.label; }

// (learner, code_length, seed)
using SweepParam = std::tuple<Learner, int, int>;

class LearnerSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static Dataset MakeData(uint64_t seed) {
    SyntheticSpec spec;
    spec.n = 1500;
    spec.dim = 16;
    spec.num_clusters = 20;
    spec.cluster_stddev = 4.0;
    spec.zipf_exponent = 0.5;
    spec.seed = seed;
    return GenerateClusteredGaussian(spec);
  }

  static std::unique_ptr<BinaryHasher> MakeHasher(const Dataset& data,
                                                  const std::string& name,
                                                  int m, uint64_t seed) {
    if (name == "ITQ") {
      ItqOptions o;
      o.code_length = m;
      o.seed = seed;
      return std::make_unique<LinearHasher>(TrainItq(data, o));
    }
    if (name == "PCAH") {
      PcahOptions o;
      o.code_length = m;
      o.seed = seed;
      return std::make_unique<LinearHasher>(TrainPcah(data, o));
    }
    if (name == "SH") {
      ShOptions o;
      o.code_length = m;
      o.seed = seed;
      return std::make_unique<ShHasher>(TrainSh(data, o));
    }
    KmhOptions o;
    o.code_length = m - (m % 2);
    o.bits_per_block = 2;
    o.seed = seed;
    return std::make_unique<KmhHasher>(TrainKmh(data, o));
  }
};

TEST_P(LearnerSweepTest, QueryInfoInvariants) {
  auto [learner, m, seed] = GetParam();
  const std::string name = learner.name;
  Dataset data = MakeData(300 + seed);
  auto hasher = MakeHasher(data, name, m, seed);
  for (ItemId i = 0; i < 50; ++i) {
    QueryHashInfo info = hasher->HashQuery(data.Row(i));
    // Query code equals item code (same input, same rule).
    EXPECT_EQ(info.code, hasher->HashItem(data.Row(i)));
    // Codes fit the declared length; costs are non-negative.
    EXPECT_EQ(info.code & ~LowBitsMask(hasher->code_length()), 0u);
    ASSERT_EQ(info.code_length(), hasher->code_length());
    for (double c : info.flip_costs) EXPECT_GE(c, -1e-12);
    // QD of the item's own bucket is 0.
    EXPECT_DOUBLE_EQ(QuantizationDistance(info, info.code), 0.0);
  }
}

TEST_P(LearnerSweepTest, GqrMatchesQrOverNonEmptyBuckets) {
  auto [learner, m, seed] = GetParam();
  const std::string name = learner.name;
  Dataset data = MakeData(400 + seed);
  auto hasher = MakeHasher(data, name, m, seed);
  StaticHashTable table(hasher->HashDataset(data), hasher->code_length());
  for (ItemId q = 0; q < 5; ++q) {
    QueryHashInfo info = hasher->HashQuery(data.Row(q));
    QrProber qr(info, table);
    GqrProber gqr(info);
    // Compare the QD sequences restricted to non-empty buckets — must be
    // identical (semantic equivalence of Algorithms 1 and 2).
    ProbeTarget t;
    std::vector<double> qr_scores, gqr_scores;
    while (qr.Next(&t)) qr_scores.push_back(qr.last_score());
    while (gqr.Next(&t)) {
      if (!table.Probe(t.bucket).empty()) {
        gqr_scores.push_back(gqr.last_score());
      }
    }
    ASSERT_EQ(qr_scores.size(), gqr_scores.size());
    for (size_t i = 0; i < qr_scores.size(); ++i) {
      EXPECT_NEAR(qr_scores[i], gqr_scores[i], 1e-9);
    }
  }
}

TEST_P(LearnerSweepTest, RecallMonotoneInBudget) {
  auto [learner, m, seed] = GetParam();
  const std::string name = learner.name;
  Dataset all = MakeData(500 + seed);
  Rng rng(seed);
  auto [base, queries] = all.SplitQueries(10, &rng);
  auto gt = ComputeGroundTruth(base, queries, 10);
  auto hasher = MakeHasher(base, name, m, seed);
  StaticHashTable table(hasher->HashDataset(base), hasher->code_length());
  Searcher searcher(base);
  for (size_t q = 0; q < queries.size(); ++q) {
    const float* query = queries.Row(static_cast<ItemId>(q));
    double prev = -1.0;
    for (size_t budget : {30u, 150u, 1500u}) {
      QueryHashInfo info = hasher->HashQuery(query);
      GqrProber prober(info);
      SearchOptions so;
      so.k = 10;
      so.max_candidates = budget;
      const double recall = RecallAtK(
          searcher.Search(query, &prober, table, so).ids, gt[q], 10);
      EXPECT_GE(recall, prev - 1e-12);
      prev = recall;
    }
    EXPECT_DOUBLE_EQ(prev, 1.0);  // Budget 1500 covers the whole base.
  }
}

const Learner kLearners[] = {
    {"ITQ", "0x560313332adb pointing to \"ITQ\""},
    {"PCAH", "0x560313332ae4 pointing to \"PCAH\""},
    {"SH", "0x560313332ad8 pointing to \"SH\""},
    {"KMH", "0x560313338fa7 pointing to \"KMH\""},
};

INSTANTIATE_TEST_SUITE_P(
    Grid, LearnerSweepTest,
    ::testing::Combine(::testing::ValuesIn(kLearners),
                       ::testing::Values(6, 10, 14),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace gqr
