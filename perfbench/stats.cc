#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common.h"
#include "eval/curve.h"

namespace gqr {
namespace perfbench {

std::optional<double> SupportedPercentile(std::vector<double>* samples,
                                          double p) {
  const double n = static_cast<double>(samples->size());
  if (n * (1.0 - p) < static_cast<double>(kMinTailSamples)) {
    return std::nullopt;
  }
  return bench::Percentile(samples, p);
}

std::optional<double> UsAtRecall(const std::vector<LadderPoint>& ladder,
                                 double target) {
  // The library's interpolation, with its negative "unreached" sentinel
  // turned into an explicit missing value.
  Curve curve;
  for (const LadderPoint& p : ladder) {
    CurvePoint cp;
    cp.recall = p.recall;
    cp.seconds = p.us_per_query;
    curve.points.push_back(cp);
  }
  const double t = TimeAtRecall(curve, target);
  if (t < 0.0) return std::nullopt;
  return t;
}

double StepStress(const StepResult& step, const StepLimits& limits) {
  if (!step.p99_us.has_value()) {
    return std::numeric_limits<double>::infinity();
  }
  const double latency = *step.p99_us / limits.p99_limit_us;
  const double growth =
      step.last_third_p50_us / (2.0 * step.first_third_p50_us + 1000.0);
  const double errors =
      static_cast<double>(step.failed) /
      (limits.max_failed_frac * static_cast<double>(step.submitted));
  return std::max({latency, growth, errors});
}

StepVerdict DecideStep(const StepResult& step, const StepLimits& limits) {
  if (step.gen_late_p99_us > limits.max_gen_late_us) {
    return StepVerdict::kInvalid;
  }
  return StepStress(step, limits) <= 1.0 ? StepVerdict::kPass
                                         : StepVerdict::kFail;
}

std::optional<double> SustainedQps(const std::vector<StepResult>& steps,
                                   const StepLimits& limits) {
  size_t passed = 0;
  while (passed < steps.size() &&
         DecideStep(steps[passed], limits) == StepVerdict::kPass) {
    ++passed;
  }
  if (passed == 0) return std::nullopt;
  const StepResult& ok = steps[passed - 1];
  if (passed == steps.size()) return ok.achieved_qps;
  const StepResult& next = steps[passed];
  const double a = StepStress(ok, limits);
  const double b = StepStress(next, limits);
  if (DecideStep(next, limits) == StepVerdict::kInvalid || !std::isfinite(b) ||
      a <= 0.0 || next.offered_qps <= ok.offered_qps) {
    return ok.achieved_qps;
  }
  const double frac = -std::log(a) / (std::log(b) - std::log(a));
  return ok.achieved_qps * std::pow(next.offered_qps / ok.offered_qps, frac);
}

double StageSumError(const std::vector<double>& self_times,
                     double end_to_end) {
  double sum = 0.0;
  for (double t : self_times) sum += t;
  return std::fabs(sum - end_to_end) / end_to_end;
}

}  // namespace perfbench
}  // namespace gqr
