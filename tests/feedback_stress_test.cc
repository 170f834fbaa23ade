// Concurrency soak of the planner's feedback table: reader threads
// hammer Predict while writer threads Record into a deliberately tiny
// table, forcing constant eviction churn on the shared slots. Under the
// TSan CI leg this is the data-race proof for the SharedMutex protocol
// of plan/feedback_table.h; on every leg it asserts the counters stay
// coherent and predictions never tear (an EWMA read mid-eviction would
// surface as a value no Record ever wrote).
//
// Iteration counts default low so tier-1 ctest stays fast; set
// GQR_STRESS_ITERS (read through util/env) for full-length soak runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/searcher.h"
#include "plan/feedback_table.h"
#include "plan/planner.h"
#include "util/env.h"

namespace gqr {
namespace {

TEST(FeedbackStressTest, ConcurrentRecordPredictUnderEviction) {
  const int64_t iters = StressIters(/*fallback=*/200);
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  // 16 slots, 64 distinct keys: every writer pass evicts.
  constexpr uint64_t kKeySpace = 64;

  FeedbackTable::Options opt;
  opt.capacity = 16;
  FeedbackTable table(opt);

  std::atomic<bool> start{false};
  std::atomic<size_t> writers_done{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;

  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int64_t i = 0; i < iters; ++i) {
        const uint64_t key =
            (static_cast<uint64_t>(w) * 31 + static_cast<uint64_t>(i)) %
            kKeySpace;
        // Observations are drawn from [1, 512]; anything outside that
        // range read back by a predictor would be a torn value.
        table.Record(key, static_cast<double>((i % 512) + 1));
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      auto predict = [&](uint64_t key) {
        double ewma = 0.0;
        if (table.Predict(key, &ewma)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          // EWMAs of values in [1, 512] stay in [1, 512].
          EXPECT_GE(ewma, 1.0);
          EXPECT_LE(ewma, 512.0);
        }
      };
      while (!start.load(std::memory_order_acquire)) {
      }
      // Readers overlap the writers for their whole run: under load a
      // reader could otherwise finish its quota before the first Record
      // and see only an empty table.
      for (int64_t i = 0;
           i < iters || writers_done.load(std::memory_order_acquire) < kWriters;
           ++i) {
        predict((static_cast<uint64_t>(r) * 17 + static_cast<uint64_t>(i)) %
                kKeySpace);
      }
      // One sweep after the last Record: the table is non-empty then,
      // so at least one key hits.
      for (uint64_t key = 0; key < kKeySpace; ++key) predict(key);
    });
  }

  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  const FeedbackTable::Counters c = table.counters();
  EXPECT_EQ(c.records, kWriters * static_cast<uint64_t>(iters));
  EXPECT_LE(c.entries, table.capacity());
  EXPECT_GT(c.evictions, 0u);  // The pressure actually churned slots.
  EXPECT_GT(hits.load(), 0u);  // And readers actually observed entries.
}

// The same soak through the planner front end: concurrent Plan/Observe
// through the const (shared) interface, as concurrent searches drive it.
TEST(FeedbackStressTest, ConcurrentPlanObserve) {
  const int64_t iters = StressIters(/*fallback=*/200);
  constexpr size_t kThreads = 6;

  PlannerOptions po;
  po.feedback.capacity = 16;
  po.min_budget = 8;
  BudgetPlanner planner(po);

  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int64_t i = 0; i < iters; ++i) {
        const uint64_t key = static_cast<uint64_t>(i % 48);
        const uint64_t ticket =
            static_cast<uint64_t>(t) * static_cast<uint64_t>(iters) +
            static_cast<uint64_t>(i);
        const PlanDecision d = planner.Plan(key, ticket, /*fixed=*/1000);
        EXPECT_GE(d.budget, po.min_budget);
        EXPECT_LE(d.budget, 1000u);
        SearchStats stats;
        stats.items_to_last_improvement =
            static_cast<size_t>((i % 300) + 1);
        stats.terminated = (i % 3) == 0;
        planner.Observe(key, d, stats);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  const FeedbackTable::Counters c = planner.feedback_counters();
  EXPECT_GT(c.records, 0u);
  EXPECT_LE(c.entries, 16u);
}

}  // namespace
}  // namespace gqr
