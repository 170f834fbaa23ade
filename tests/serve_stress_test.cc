// Churn + serve soak: QueryService answering concurrent client threads
// while writers Insert/Remove against the ShardedIndex and a snapshotter
// re-freezes shards. Under the TSan CI leg this is the data-race proof
// for the serving front end — the coalescer queue, the linger waits, the
// future handoff, and the batch execution path over the mutating index.
// A BudgetPlanner in the search options puts the FeedbackTable's
// TryPredict/TryRecord on every served query, while a side thread drives
// the blocking Plan/Observe entry points against the same table.
//
// Iteration counts default low so tier-1 ctest stays fast; set
// GQR_STRESS_ITERS (read through util/env) for full-length soak runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "hash/lsh.h"
#include "plan/planner.h"
#include "serve/query_service.h"
#include "util/env.h"

namespace gqr {
namespace {

constexpr int kBits = 12;
constexpr size_t kShards = 4;

TEST(ServeStressTest, ServeUnderChurnAndFreezes) {
  const int64_t iters = StressIters(/*fallback=*/40);

  SyntheticSpec spec;
  spec.n = 4032;
  spec.dim = 8;
  spec.num_clusters = 20;
  spec.seed = 811;
  Dataset all = GenerateClusteredGaussian(spec);
  Rng rng(17);
  auto [base, queries] = all.SplitQueries(32, &rng);
  LshOptions opt;
  opt.code_length = kBits;
  const LinearHasher hasher = TrainLsh(base, base.dim(), opt);
  const std::vector<Code> codes = hasher.HashDataset(base);

  const size_t n = base.size();
  const size_t stable = n / 2;  // [0, stable) stays put; the rest churns.
  ShardedIndex index(kBits, kShards);
  for (size_t id = 0; id < stable; ++id) {
    ASSERT_TRUE(index.Insert(static_cast<ItemId>(id), codes[id]).ok());
  }

  PlannerOptions po;
  po.feedback.capacity = 32;
  po.min_budget = 32;
  BudgetPlanner planner(po);

  Searcher searcher(base);
  QueryServiceOptions service_opt;
  service_opt.search.k = 10;
  service_opt.search.max_candidates = 300;
  service_opt.search.plan.planner = &planner;
  service_opt.max_batch = 16;
  service_opt.max_linger = std::chrono::microseconds(200);
  service_opt.max_queue = 256;
  QueryService service(searcher, hasher, index, service_opt);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};

  // One writer churns the dynamic half of the id space, freezing a shard
  // each round so probes keep flipping between frozen snapshots and the
  // live tables while batches execute.
  std::thread writer([&] {
    for (int64_t it = 0; it < iters; ++it) {
      for (size_t id = stable; id < n; ++id) {
        if (!index.Insert(static_cast<ItemId>(id), codes[id]).ok()) {
          violation.store(true);
        }
      }
      (void)index.FreezeShard(static_cast<size_t>(it) % kShards);
      for (size_t id = stable; id < n; ++id) {
        if (!index.Remove(static_cast<ItemId>(id), codes[id]).ok()) {
          violation.store(true);
        }
      }
    }
    stop.store(true, std::memory_order_release);
  });

  // Planner pressure from outside the service: the blocking Plan/Observe
  // entry points contend with the try- variants the serving threads use.
  std::thread feedback([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const PlanDecision d = planner.Plan(i % 64, i, /*fixed=*/500);
      SearchStats stats;
      stats.items_to_last_improvement = static_cast<size_t>(i % 100 + 1);
      stats.terminated = true;
      planner.Observe(i % 64, d, stats);
    }
  });

  // Client threads hammer Submit() the whole time and validate every
  // response: ids in range and distinct, distances finite and ascending.
  // Short deadlines keep the expiry path exercised under load.
  auto client = [&](unsigned seed) {
    size_t q = seed;
    while (!stop.load(std::memory_order_acquire)) {
      q = (q + 1) % queries.size();
      const QueryService::Deadline deadline =
          QueryService::Clock::now() + std::chrono::milliseconds(50);
      Response resp =
          service.Submit(queries.Row(static_cast<ItemId>(q)), 0, deadline)
              .Get();
      if (resp.status != RequestStatus::kOk) continue;  // Expired/shed.
      const SearchResult& r = resp.result;
      for (size_t i = 0; i < r.ids.size(); ++i) {
        if (r.ids[i] >= n || !std::isfinite(r.distances[i])) {
          violation.store(true);
        }
        if (i > 0 && r.distances[i] < r.distances[i - 1]) {
          violation.store(true);
        }
        for (size_t j = i + 1; j < r.ids.size(); ++j) {
          if (r.ids[i] == r.ids[j]) violation.store(true);
        }
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 3; ++c) clients.emplace_back(client, c);

  writer.join();
  feedback.join();
  for (auto& thread : clients) thread.join();
  service.Shutdown();

  EXPECT_FALSE(violation.load());
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.expired);  // Every request resolved.
}

}  // namespace
}  // namespace gqr
