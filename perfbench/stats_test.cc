// Self-tests of the benchmark's own helpers (stats.h). Plain asserts in
// every build type, so the benchmark package needs no test framework:
//   ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace gqr {
namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9 * (1 + b); }

void TestSupportedPercentile() {
  std::vector<double> few(999, 1.0);
  EXPECT(!SupportedPercentile(&few, 0.99).has_value());
  EXPECT(SupportedPercentile(&few, 0.5).has_value());
  std::vector<double> enough;
  for (int i = 1; i <= 1000; ++i) enough.push_back(i);
  const auto p99 = SupportedPercentile(&enough, 0.99);
  EXPECT(p99.has_value() && Near(*p99, 990.0));
  std::vector<double> empty;
  EXPECT(!SupportedPercentile(&empty, 0.5).has_value());
}

void TestUsAtRecall() {
  const std::vector<LadderPoint> ladder = {
      {100, 0.50, 10.0}, {200, 0.80, 20.0}, {400, 1.00, 40.0}};
  // Halfway between 0.80 and 1.00 in recall -> halfway in time.
  const auto t90 = UsAtRecall(ladder, 0.90);
  EXPECT(t90.has_value() && Near(*t90, 30.0));
  // Exactly on a point.
  const auto t80 = UsAtRecall(ladder, 0.80);
  EXPECT(t80.has_value() && Near(*t80, 20.0));
  // Already reached by the first point: that point's time.
  const auto t40 = UsAtRecall(ladder, 0.40);
  EXPECT(t40.has_value() && Near(*t40, 10.0));
  // A ladder that never reaches the target is missing, not 0 or < 0.
  const std::vector<LadderPoint> short_ladder = {{100, 0.50, 10.0},
                                                 {200, 0.85, 20.0}};
  EXPECT(!UsAtRecall(short_ladder, 0.90).has_value());
  EXPECT(!UsAtRecall({}, 0.90).has_value());
}

StepResult Step(double rate, double p99, size_t failed = 0) {
  StepResult s;
  s.offered_qps = rate;
  s.achieved_qps = rate;
  s.submitted = 10000;
  s.failed = failed;
  s.p99_us = p99;
  s.first_third_p50_us = 300.0;
  s.last_third_p50_us = 320.0;
  s.gen_late_p99_us = 5.0;
  return s;
}

void TestStepDecision() {
  StepLimits lim;
  lim.p99_limit_us = 1000.0;
  lim.max_gen_late_us = 500.0;
  EXPECT(DecideStep(Step(100, 900), lim) == StepVerdict::kPass);
  EXPECT(DecideStep(Step(100, 1100), lim) == StepVerdict::kFail);
  // 0.1% of 10000 = 10 failures allowed, 11 is too many.
  EXPECT(DecideStep(Step(100, 900, 10), lim) == StepVerdict::kPass);
  EXPECT(DecideStep(Step(100, 900, 11), lim) == StepVerdict::kFail);
  StepResult no_p99 = Step(100, 900);
  no_p99.p99_us.reset();
  EXPECT(DecideStep(no_p99, lim) == StepVerdict::kFail);
  // Stress is the worst of latency, queue growth and errors.
  EXPECT(Near(StepStress(Step(100, 900), lim), 0.9));
  EXPECT(Near(StepStress(Step(100, 500, 20), lim), 2.0));
  EXPECT(std::isinf(StepStress(no_p99, lim)));
  StepResult growing = Step(100, 900);
  growing.last_third_p50_us = 2.0 * 300.0 + 1001.0;
  EXPECT(StepStress(growing, lim) > 1.0);
  EXPECT(DecideStep(growing, lim) == StepVerdict::kFail);
  StepResult late = Step(100, 900);
  late.gen_late_p99_us = 501.0;
  EXPECT(DecideStep(late, lim) == StepVerdict::kInvalid);

  // Sustained: highest contiguous passing step, refined toward the
  // first failing step by where its stress crosses 1.
  EXPECT(!SustainedQps({Step(100, 1100), Step(200, 900)}, lim).has_value());
  const auto all_pass = SustainedQps({Step(100, 500), Step(200, 900)}, lim);
  EXPECT(all_pass.has_value() && Near(*all_pass, 200.0));
  // p99 500 -> 2000 between 100 and 400 qps: log-linear crossing of
  // 1000 us is at exactly half the log-rate span, i.e. 200 qps.
  const auto interp = SustainedQps({Step(100, 500), Step(400, 2000)}, lim);
  EXPECT(interp.has_value() && Near(*interp, 200.0));
  // A step past a failure does not count even when it passes.
  const auto gap =
      SustainedQps({Step(100, 500), Step(200, 1100), Step(300, 500)}, lim);
  EXPECT(gap.has_value() && *gap > 100.0 && *gap < 200.0);
  // Next step failed on errors (stress 50 / 10 = 5): the crossing of
  // stress 1 between 0.5 and 5 is at log(2) / log(10) of the log-rate
  // span.
  const auto errors =
      SustainedQps({Step(100, 500), Step(200, 900, 50)}, lim);
  EXPECT(errors.has_value() &&
         Near(*errors, 100.0 * std::pow(2.0, std::log(2.0) / std::log(10.0))));
  // An invalid next step stops the walk without interpolation.
  StepResult invalid = Step(200, 5000);
  invalid.gen_late_p99_us = 1e6;
  const auto stopped = SustainedQps({Step(100, 500), invalid}, lim);
  EXPECT(stopped.has_value() && Near(*stopped, 100.0));
}

void TestStageSum() {
  EXPECT(Near(StageSumError({10.0, 20.0, 70.0}, 100.0), 0.0));
  EXPECT(Near(StageSumError({10.0, 20.0, 65.0}, 100.0), 0.05));
  EXPECT(Near(StageSumError({10.0, 20.0, 80.0}, 100.0), 0.10));
  EXPECT(StageSumError({10.0, 20.0, 66.0}, 100.0) <= kMaxStageSumError);
  EXPECT(StageSumError({10.0, 20.0, 64.0}, 100.0) > kMaxStageSumError);
}

}  // namespace
}  // namespace perfbench
}  // namespace gqr

int main() {
  using namespace gqr::perfbench;
  TestSupportedPercentile();
  TestUsAtRecall();
  TestStepDecision();
  TestStageSum();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_selftest: all expectations passed\n");
  return EXIT_SUCCESS;
}
