// Properties 1-2 on probe streams: the ProbeSequenceValidator itself (in
// every build), and — in validating builds — the one Searcher hook that
// checks every stream it consumes, whatever prober produced it. The
// faulty probers below are test-local, so only a check where streams
// are consumed (not one inside the library's probers) can catch them.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/multi_prober.h"
#include "core/searcher.h"
#include "core/validators.h"
#include "data/synthetic.h"
#include "hash/lsh.h"
#include "index/multi_table.h"
#include "index/sharded_index.h"

namespace gqr {
namespace {

TEST(ProbeSequenceValidatorTest, AcceptsAnOrderedUniqueStream) {
  ProbeSequenceValidator stream("test");
  stream.Observe(0, 5, 0.0);
  stream.Observe(0, 7, 0.5);
  stream.Observe(1, 5, 0.5);  // Same key, another table.
  stream.Observe(0, 9, 0.5 - 1e-12);  // Within the rounding slack.
  stream.Finish();
  // Finish() empties the checker: the same keys may recur, and the
  // score order restarts.
  stream.Observe(0, 5, 0.25);
  stream.Observe(0, 7, 0.25);
  stream.Finish();
}

TEST(ProbeSequenceValidatorDeathTest, DuplicateKeyDiesAtFinish) {
  const auto duplicate = [](bool finish) {
    ProbeSequenceValidator stream("test");
    stream.Observe(0, 5, 0.0);
    stream.Observe(0, 7, 1.0);
    stream.Observe(0, 5, 2.0);
    if (finish) stream.Finish();
  };
  EXPECT_DEATH(duplicate(/*finish=*/true), "Property 1");
  // A stream left open is finished when its checker is destroyed.
  EXPECT_DEATH(duplicate(/*finish=*/false), "Property 1");
}

TEST(ProbeSequenceValidatorDeathTest, FallingScoreDies) {
  ProbeSequenceValidator stream("test");
  stream.Observe(0, 5, 1.0);
  EXPECT_DEATH(stream.Observe(0, 7, 0.5), "Property 2");
}

#if GQR_VALIDATE_ENABLED

// Emits a scripted (table, bucket, score) sequence; qd_bound() stays 0,
// so no Theorem-2 check or score stop can interfere.
class ScriptedProber : public BucketProber {
 public:
  struct Step {
    uint32_t table;
    Code bucket;
    double score;
  };
  explicit ScriptedProber(std::vector<Step> steps)
      : steps_(std::move(steps)) {}

  bool Next(ProbeTarget* target) override {
    if (next_ == steps_.size()) return false;
    target->table = steps_[next_].table;
    target->bucket = steps_[next_].bucket;
    score_ = steps_[next_].score;
    ++next_;
    return true;
  }
  double last_score() const override { return score_; }

 private:
  std::vector<Step> steps_;
  size_t next_ = 0;
  double score_ = 0.0;
};

constexpr int kBits = 6;

struct StreamFixture {
  Dataset base;
  std::vector<Code> codes;
  StaticHashTable table;
  std::vector<Code> buckets;  // Three distinct non-empty buckets.

  static StreamFixture Make() {
    SyntheticSpec spec;
    spec.n = 300;
    spec.dim = 8;
    spec.num_clusters = 10;
    spec.seed = 32;
    Dataset base = GenerateClusteredGaussian(spec);
    LshOptions opt;
    opt.code_length = kBits;
    opt.seed = 5;
    std::vector<Code> codes =
        TrainLsh(base, base.dim(), opt).HashDataset(base);
    StaticHashTable table(codes, kBits);
    std::vector<Code> buckets(table.bucket_codes().begin(),
                              table.bucket_codes().begin() + 3);
    return StreamFixture{std::move(base), std::move(codes), std::move(table),
                         std::move(buckets)};
  }

  // b0, b1, b0: Property 1 broken, scores ascending.
  std::vector<ScriptedProber::Step> Duplicate() const {
    return {{0, buckets[0], 0.0}, {0, buckets[1], 1.0}, {0, buckets[0], 2.0}};
  }
  // b0, b1, b2 with the last score below the one before: Property 2.
  std::vector<ScriptedProber::Step> Falling() const {
    return {{0, buckets[0], 0.0}, {0, buckets[1], 2.0}, {0, buckets[2], 1.0}};
  }
};

// Every emission is consumed: no budget, no score stop.
SearchOptions Unlimited() {
  SearchOptions so;
  so.k = 1;
  so.max_candidates = 0;
  return so;
}

TEST(ProbeStreamDeathTest, SearchIntoStaticTable) {
  const StreamFixture f = StreamFixture::Make();
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  ScriptedProber dup(f.Duplicate()), falling(f.Falling());
  EXPECT_DEATH(searcher.Search(query, &dup, f.table, Unlimited()),
               "Property 1");
  EXPECT_DEATH(searcher.Search(query, &falling, f.table, Unlimited()),
               "Property 2");
}

TEST(ProbeStreamDeathTest, SearchIntoShardedIndex) {
  const StreamFixture f = StreamFixture::Make();
  ShardedIndex index(kBits, 3);
  for (size_t i = 0; i < f.codes.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(i), f.codes[i]).ok());
  }
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  ScriptedProber dup(f.Duplicate()), falling(f.Falling());
  EXPECT_DEATH(searcher.Search(query, &dup, index, Unlimited()),
               "Property 1");
  EXPECT_DEATH(searcher.Search(query, &falling, index, Unlimited()),
               "Property 2");
}

TEST(ProbeStreamDeathTest, SearchIntoMultiTableThroughMultiProber) {
  const StreamFixture f = StreamFixture::Make();
  MultiTableIndex index = BuildMultiTableIndex(
      f.base, 2, [&](uint64_t seed) -> std::unique_ptr<BinaryHasher> {
        LshOptions opt;
        opt.code_length = kBits;
        opt.seed = seed;
        return std::make_unique<LinearHasher>(
            TrainLsh(f.base, f.base.dim(), opt));
      });
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  // One faulty component among well-behaved ones: the merged stream
  // carries the fault into the Searcher. Table 1's component emits the
  // same bucket signatures as table 0's, which is no fault.
  const auto merged = [&](std::vector<ScriptedProber::Step> faulty) {
    std::vector<std::unique_ptr<BucketProber>> probers;
    probers.push_back(std::make_unique<ScriptedProber>(std::move(faulty)));
    probers.push_back(std::make_unique<ScriptedProber>(
        std::vector<ScriptedProber::Step>{{1, f.buckets[0], 0.0},
                                          {1, f.buckets[1], 0.5}}));
    return std::make_unique<MultiProber>(std::move(probers));
  };
  auto dup = merged(f.Duplicate());
  auto falling = merged(f.Falling());
  EXPECT_DEATH(searcher.Search(query, dup.get(), index, Unlimited()),
               "Property 1");
  EXPECT_DEATH(searcher.Search(query, falling.get(), index, Unlimited()),
               "Property 2");
}

TEST(ProbeStreamDeathTest, RangeSearch) {
  const StreamFixture f = StreamFixture::Make();
  Searcher searcher(f.base);
  const float* query = f.base.Row(0);
  ScriptedProber dup(f.Duplicate()), falling(f.Falling());
  EXPECT_DEATH(searcher.RangeSearch(query, &dup, f.table, /*radius=*/1.0f,
                                    /*mu=*/0.0),
               "Property 1");
  EXPECT_DEATH(searcher.RangeSearch(query, &falling, f.table,
                                    /*radius=*/1.0f, /*mu=*/0.0),
               "Property 2");
}

#endif  // GQR_VALIDATE_ENABLED

}  // namespace
}  // namespace gqr
