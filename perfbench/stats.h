// Pure helpers of the repository benchmark: percentiles that refuse to
// report past what the sample supports, time-at-recall interpolation
// that reports a missed target as missing, the sustained-rate step
// decision of the open-loop ladder, and the traced run's stage-sum
// check. Kept free of timing and threads so stats_test.cc can pin them.
#ifndef GQR_PERFBENCH_STATS_H_
#define GQR_PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace gqr {
namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it (p99 needs >= 1000 samples, p50 needs >= 20).
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `p` of `*samples` (sorted in place, through
/// bench::Percentile), or nullopt when fewer than kMinTailSamples samples
/// lie beyond it.
std::optional<double> SupportedPercentile(std::vector<double>* samples,
                                          double p);

/// One point of a fixed-budget recall ladder.
struct LadderPoint {
  size_t budget = 0;
  double recall = 0.0;
  double us_per_query = 0.0;
};

/// Mean query time needed to reach `target` recall, linearly
/// interpolated between the two ladder points that straddle it (the
/// first point's time when it already reaches the target). nullopt when
/// no point of the ladder reaches the target.
std::optional<double> UsAtRecall(const std::vector<LadderPoint>& ladder,
                                 double target);

/// What one open-loop rate step measured.
struct StepResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // kOk completions per second of window.
  size_t submitted = 0;
  size_t failed = 0;          // Expired + rejected.
  /// p99 of scheduled-arrival -> completion latency (ok and expired
  /// pooled); nullopt when the step had too few samples for a p99.
  std::optional<double> p99_us;
  /// Median latency over the first and the last third of the window, in
  /// scheduled-arrival order (the queue-growth test of StepStress).
  double first_third_p50_us = 0.0;
  double last_third_p50_us = 0.0;
  /// p99 of how late the generator submitted after the scheduled time.
  double gen_late_p99_us = 0.0;
};

struct StepLimits {
  double p99_limit_us = 0.0;
  double max_failed_frac = 0.001;
  /// A step whose generator ran later than this (p99) measured the
  /// generator, not the service: it is invalid.
  double max_gen_late_us = 0.0;
};

enum class StepVerdict { kPass, kFail, kInvalid };

/// How close a step came to its limits, as the largest of three ratios
/// that each reach 1 at their limit: p99 / p99_limit; queue growth,
/// last-third p50 / (2 * first-third p50 + 1 ms); and failed requests /
/// (max_failed_frac * submitted). Infinite when p99 is not supported.
double StepStress(const StepResult& step, const StepLimits& limits);

/// kInvalid when the generator fell behind; otherwise kPass iff the
/// step's stress is at most 1: p99 supported and within the limit, at
/// most max_failed_frac of the submitted requests failed, and the queue
/// did not grow.
StepVerdict DecideStep(const StepResult& step, const StepLimits& limits);

/// The highest sustainable rate on an ascending rate ladder: the
/// achieved rate of the highest step such that it and every lower step
/// pass. When the next step is valid and its stress is finite, the rate
/// is refined by interpolating log stress against log rate to where the
/// stress reaches 1, so the figure moves smoothly with capacity instead
/// of jumping between ladder steps. nullopt when the lowest step does
/// not pass.
std::optional<double> SustainedQps(const std::vector<StepResult>& steps,
                                   const StepLimits& limits);

/// |sum(self_times) - end_to_end| / end_to_end: how far the traced
/// layers' self times are from covering the traced end-to-end time.
double StageSumError(const std::vector<double>& self_times,
                     double end_to_end);

/// The ledger rule: stage self times must cover end-to-end within 5%.
inline constexpr double kMaxStageSumError = 0.05;

}  // namespace perfbench
}  // namespace gqr

#endif  // GQR_PERFBENCH_STATS_H_
