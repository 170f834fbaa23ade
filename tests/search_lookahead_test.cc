// Differential test for the Searcher's one-bucket lookahead.
//
// The Searcher emits and fetches bucket i + 1 before it evaluates bucket
// i, so by the time it decides whether to stop after bucket i the
// prober's qd_bound() already describes bucket i + 1. Every stop rule
// must still read bucket i's bound. This test pins that down against a
// test-local loop that probes one bucket at a time, the way the paper
// states it: for each querying method (HR, GHR, QR, GQR) and each stop
// rule (candidate budget, bucket budget, margin-1 termination), results
// and SearchStats must match exactly — on a static table, and on a
// sharded index whose shards are part frozen snapshots, part live tables
// (the double-buffered gather). The lookahead never emits a bucket it
// does not consume: the buckets a prober emits are exactly the buckets
// probed, so a decorator that records the probe sequence (a tracer) sees
// the same sequence as without the lookahead.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_batch.h"
#include "core/qd.h"
#include "core/searcher.h"
#include "core/sharded_search.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "hash/itq.h"

namespace gqr {
namespace {

constexpr int kBits = 10;
constexpr size_t kShards = 4;
constexpr QueryMethod kAllMethods[] = {QueryMethod::kHR, QueryMethod::kGHR,
                                       QueryMethod::kQR, QueryMethod::kGQR};

enum class StopRule { kBudget, kMaxBuckets, kTermination };

const char* StopRuleName(StopRule rule) {
  switch (rule) {
    case StopRule::kBudget:
      return "budget";
    case StopRule::kMaxBuckets:
      return "max_buckets";
    case StopRule::kTermination:
      return "termination";
  }
  return "?";
}

// Counts Next() calls of the wrapped prober, and the buckets it emitted.
class CountingProber : public BucketProber {
 public:
  explicit CountingProber(std::unique_ptr<BucketProber> inner)
      : inner_(std::move(inner)) {}

  bool Next(ProbeTarget* target) override {
    ++calls_;
    const bool more = inner_->Next(target);
    if (more) ++emitted_;
    return more;
  }
  double last_score() const override { return inner_->last_score(); }
  double qd_bound() const override { return inner_->qd_bound(); }

  size_t calls() const { return calls_; }
  size_t emitted() const { return emitted_; }

 private:
  std::unique_ptr<BucketProber> inner_;
  size_t calls_ = 0;
  size_t emitted_ = 0;
};

// One bucket at a time: emit, fetch, evaluate, then decide from the
// prober's current bound — which here still belongs to the bucket just
// evaluated. Same kernels and the same bounded-heap rule as the Searcher,
// so distances and tie-breaks are bit-identical. `fetch(code)` returns
// the bucket's items in the order the index under test yields them.
// `*settled_late` is set when a score rule stopped the search that did
// not already hold before the last bucket was evaluated (the heap was not
// yet full, or its k-th distance was still too large): only evaluating
// that bucket decided the stop. A lookahead that peeks past such a bucket
// emits one it never consumes.
template <typename Fetch>
SearchResult ReferenceSearch(const Dataset& base, const float* query,
                             BucketProber* prober, Fetch fetch,
                             const SearchOptions& o,
                             bool* settled_late = nullptr) {
  const auto score_stop = [&](const std::vector<std::pair<float, ItemId>>& h) {
    return h.size() >= o.k && o.termination.enabled() &&
           o.termination.ShouldStop(prober->qd_bound(), h.front().first);
  };
  SearchResult r;
  SearchStats& st = r.stats;
  const QueryContext ctx = MakeQueryContext(query, base.dim(), o.metric);
  std::vector<std::pair<float, ItemId>> heap;
  std::vector<float> dist;
  size_t last_improvement = 0;
  ProbeTarget t;
  while (prober->Next(&t)) {
    ++st.buckets_probed;
    const bool held_before = score_stop(heap);
    const std::span<const ItemId> items = fetch(t.bucket);
    if (!items.empty()) ++st.buckets_nonempty;
    dist.resize(items.size());
    if (!items.empty()) {
      EvalDistancesBatch(query, ctx, base, items.data(), items.size(),
                         dist.data());
    }
    for (size_t i = 0; i < items.size(); ++i) {
      bool improved = false;
      if (heap.size() < o.k) {
        heap.emplace_back(dist[i], items[i]);
        std::push_heap(heap.begin(), heap.end());
        improved = true;
      } else if (dist[i] < heap.front().first) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {dist[i], items[i]};
        std::push_heap(heap.begin(), heap.end());
        improved = true;
      }
      if (improved) last_improvement = st.items_evaluated + i + 1;
    }
    st.items_evaluated += items.size();
    if (o.max_candidates != 0 && st.items_evaluated >= o.max_candidates) {
      break;
    }
    if (o.max_buckets != 0 && st.buckets_probed >= o.max_buckets) break;
    if (score_stop(heap)) {
      st.terminated = true;
      if (settled_late != nullptr) *settled_late = !held_before;
      break;
    }
  }
  st.items_to_last_improvement = last_improvement;
  std::sort(heap.begin(), heap.end());
  for (const auto& [d, id] : heap) {
    r.ids.push_back(id);
    r.distances.push_back(d);
  }
  return r;
}

struct Fixture {
  Dataset base;
  Dataset queries;
  LinearHasher hasher;
  std::vector<Code> codes;
  StaticHashTable table;
  double mu = 0.0;

  static Fixture Make() {
    SyntheticSpec spec;
    spec.n = 3000;
    spec.dim = 12;
    spec.num_clusters = 25;
    spec.seed = 2718;
    Dataset all = GenerateClusteredGaussian(spec);
    Rng rng(5);
    auto [base, queries] = all.SplitQueries(40, &rng);
    ItqOptions opt;
    opt.code_length = kBits;
    LinearHasher hasher = TrainItq(base, opt);
    std::vector<Code> codes = hasher.HashDataset(base);
    StaticHashTable table(codes, kBits);
    const double mu = TheoremTwoMu(hasher);
    return Fixture{std::move(base), std::move(queries), std::move(hasher),
                   std::move(codes), std::move(table), mu};
  }
};

// Options for one stop rule.
SearchOptions OptionsFor(StopRule rule, double mu) {
  SearchOptions o;
  o.k = 5;
  o.max_candidates = 0;
  switch (rule) {
    case StopRule::kBudget:
      o.max_candidates = 120;
      break;
    case StopRule::kMaxBuckets:
      o.max_buckets = 9;
      break;
    case StopRule::kTermination:
      o.termination.mu = mu;
      o.termination.margin = 1.0;
      break;
  }
  return o;
}

bool StopFired(StopRule rule, const SearchStats& st, const SearchOptions& o) {
  switch (rule) {
    case StopRule::kBudget:
      return st.items_evaluated >= o.max_candidates;
    case StopRule::kMaxBuckets:
      return st.buckets_probed >= o.max_buckets;
    case StopRule::kTermination:
      return st.terminated;
  }
  return false;
}

void ExpectSame(const SearchResult& want, const SearchResult& got,
                const std::string& label) {
  EXPECT_EQ(want.ids, got.ids) << label;
  EXPECT_EQ(want.distances, got.distances) << label;
  EXPECT_EQ(want.stats.buckets_probed, got.stats.buckets_probed) << label;
  EXPECT_EQ(want.stats.buckets_nonempty, got.stats.buckets_nonempty)
      << label;
  EXPECT_EQ(want.stats.items_evaluated, got.stats.items_evaluated) << label;
  EXPECT_EQ(want.stats.items_to_last_improvement,
            got.stats.items_to_last_improvement)
      << label;
  EXPECT_EQ(want.stats.terminated, got.stats.terminated) << label;
}

TEST(SearchLookaheadTest, StopsMatchOneBucketAtATimeLoop) {
  const Fixture f = Fixture::Make();
  ASSERT_GT(f.mu, 0.0);
  Searcher searcher(f.base);

  // Sharded twin of f.table: two shards frozen, two left live.
  ShardedIndex index(kBits, kShards);
  for (size_t id = 0; id < f.base.size(); ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), f.codes[id]).ok());
  }
  ASSERT_TRUE(index.FreezeShard(0).ok());
  ASSERT_TRUE(index.FreezeShard(2).ok());
  const std::vector<Code> bucket_union = index.BucketCodeUnion();
  const auto static_fetch = [&](Code c) { return f.table.Probe(c); };
  // The sharded index yields a bucket shard by shard, so its items come
  // in another order than the static table's.
  std::vector<ItemId> bucket;
  const auto sharded_fetch = [&](Code c) {
    bucket.clear();
    index.ProbeAll(c, &bucket);
    return std::span<const ItemId>(bucket);
  };

  for (QueryMethod method : kAllMethods) {
    for (StopRule rule : {StopRule::kBudget, StopRule::kMaxBuckets,
                          StopRule::kTermination}) {
      size_t fired = 0;
      for (size_t q = 0; q < f.queries.size(); ++q) {
        const std::string label = std::string(QueryMethodName(method)) +
                                  " / " + StopRuleName(rule) + " / query " +
                                  std::to_string(q);
        const float* query = f.queries.Row(static_cast<ItemId>(q));
        const QueryHashInfo info = f.hasher.HashQuery(query);
        const SearchOptions o = OptionsFor(rule, f.mu);

        auto ref_prober = MakeProber(method, info, f.table);
        const SearchResult want =
            ReferenceSearch(f.base, query, ref_prober.get(), static_fetch, o);

        CountingProber prober(MakeProber(method, info, f.table));
        const SearchResult got = searcher.Search(query, &prober, f.table, o);
        ExpectSame(want, got, label + " (static)");
        EXPECT_EQ(prober.emitted(), got.stats.buckets_probed) << label;
        EXPECT_LE(prober.calls(), got.stats.buckets_probed + 1) << label;

        auto ref_sharded_prober =
            MakeShardedProber(method, info, bucket_union, kBits);
        const SearchResult want_sharded = ReferenceSearch(
            f.base, query, ref_sharded_prober.get(), sharded_fetch, o);
        CountingProber sharded_prober(
            MakeShardedProber(method, info, bucket_union, kBits));
        const SearchResult sharded =
            searcher.Search(query, &sharded_prober, index, o);
        ExpectSame(want_sharded, sharded, label + " (sharded)");
        EXPECT_EQ(sharded_prober.emitted(), sharded.stats.buckets_probed)
            << label;
        EXPECT_LE(sharded_prober.calls(), sharded.stats.buckets_probed + 1)
            << label;

        if (StopFired(rule, want.stats, o)) ++fired;
      }
      // The comparison only means something where the rule actually
      // ended the search.
      EXPECT_GT(fired, f.queries.size() / 4)
          << QueryMethodName(method) << " / " << StopRuleName(rule);
    }
  }
}

// Emits a fixed bucket sequence with a scripted last_score()/qd_bound().
class ScriptedProber : public BucketProber {
 public:
  struct Step {
    Code bucket;
    double score;
  };
  explicit ScriptedProber(std::vector<Step> steps)
      : steps_(std::move(steps)) {}

  bool Next(ProbeTarget* target) override {
    if (next_ == steps_.size()) return false;
    target->table = 0;
    target->bucket = steps_[next_].bucket;
    score_ = steps_[next_].score;
    ++next_;
    return true;
  }
  double last_score() const override { return score_; }
  double qd_bound() const override { return score_; }

 private:
  std::vector<Step> steps_;
  size_t next_ = 0;
  double score_ = 0.0;
};

// A score stop that only the last bucket's evaluation decides: before
// bucket 1 is evaluated the rule does not hold (the heap is not yet full,
// or its k-th distance is still too large), and after it it does. The
// lookahead must not peek past bucket 1 — a tracer that records emitted
// buckets would otherwise see one that was never probed. Every item lies
// at least mu * score away, so the GQR_VALIDATE Theorem-2 checks hold.
TEST(SearchLookaheadTest, StopDecidedByTheLastBucketEmitsNothingPastIt) {
  // One-dimensional rows; the query is the origin and d_near the
  // distance of a row at 2. "falls" (k = 1): bucket 0 holds a row at 4,
  // bucket 1 lowers the k-th distance to d_near. "fills" (k = 3): bucket
  // 0 holds two rows at 2 and bucket 1 the third, filling the heap.
  // Buckets 2 and 3 hold more rows at 2, so the stream goes on.
  struct Layout {
    std::vector<float> xs;
    std::vector<Code> codes;
    size_t k;
  };
  const Layout falls{{4.f, 2.f, 2.f, 2.f}, {0, 1, 2, 3}, 1};
  const Layout fills{{2.f, 2.f, 2.f, 2.f, 2.f}, {0, 0, 1, 2, 3}, 3};
  const float query[1] = {0.f};
  const QueryContext ctx = MakeQueryContext(query, 1, Metric::kEuclidean);

  struct Case {
    const char* name;
    const Layout* layout;
    double margin;
  };
  const Case cases[] = {
      {"termination margin 1, k-th distance falls", &falls, 1.0},
      {"termination margin 1, heap fills", &fills, 1.0},
      {"termination margin 0.5, k-th distance falls", &falls, 0.5},
      {"termination margin 0.5, heap fills", &fills, 0.5},
  };
  for (const Case& c : cases) {
    const Layout& l = *c.layout;
    Dataset base(l.xs.size(), 1);
    for (size_t i = 0; i < l.xs.size(); ++i) {
      base.MutableRow(static_cast<ItemId>(i))[0] = l.xs[i];
    }
    const StaticHashTable table(l.codes, /*bits=*/2);
    float d_near = 0.f;
    const ItemId last = static_cast<ItemId>(l.xs.size() - 1);
    EvalDistancesBatch(query, ctx, base, &last, 1, &d_near);

    // Margin 1: mu * bound = d_near >= d_k once d_k = d_near.
    // Margin 0.5: mu * bound = 0.75 d_near >= 0.5 d_k once
    // d_k <= 1.5 d_near, which the row at 4 is not.
    SearchOptions o;
    o.k = l.k;
    o.max_candidates = 0;
    o.termination = TerminationPolicy{1.0, c.margin};
    const double score = c.margin == 1.0 ? d_near : 0.75 * d_near;
    const std::vector<ScriptedProber::Step> steps = {
        {0, score}, {1, score}, {2, score}, {3, score}};

    ScriptedProber ref_prober(steps);
    bool settled_late = false;
    const SearchResult want = ReferenceSearch(
        base, query, &ref_prober,
        [&](Code code) { return table.Probe(code); }, o, &settled_late);
    ASSERT_TRUE(settled_late) << c.name;
    ASSERT_EQ(want.stats.buckets_probed, 2u) << c.name;

    Searcher searcher(base);
    CountingProber prober(std::make_unique<ScriptedProber>(steps));
    const SearchResult got = searcher.Search(query, &prober, table, o);
    ExpectSame(want, got, c.name);
    EXPECT_EQ(prober.emitted(), 2u) << c.name;
  }
}

}  // namespace
}  // namespace gqr
