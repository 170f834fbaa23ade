// Shared setup for the per-figure bench binaries: builds the synthetic
// stand-in workloads (DESIGN.md section 3) and trains hashers with the
// paper's defaults.
#ifndef GQR_BENCH_COMMON_H_
#define GQR_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "gqr.h"

namespace gqr {
namespace bench {

/// One evaluation workload: base set, held-out queries, exact truth.
struct Workload {
  DatasetProfile profile;
  Dataset base;
  Dataset queries;
  std::vector<Neighbors> ground_truth;

  int code_length() const { return profile.code_length; }
  const std::string& name() const { return profile.name; }
};

/// Generates the profile's dataset, carves out its queries, and computes
/// exact k-NN ground truth.
Workload BuildWorkload(const DatasetProfile& profile, size_t k);

/// Default number of neighbors, as in the paper ("by default, we report
/// the performance of 20-nearest neighbors search").
inline constexpr size_t kDefaultK = 20;

LinearHasher TrainItqHasher(const Dataset& base, int code_length,
                            uint64_t seed = 42);
LinearHasher TrainPcahHasher(const Dataset& base, int code_length,
                             uint64_t seed = 42);
ShHasher TrainShHasher(const Dataset& base, int code_length,
                       uint64_t seed = 42);
KmhHasher TrainKmhHasher(const Dataset& base, int code_length,
                         uint64_t seed = 42);

/// Runs the paper's standard method trio (GQR, GHR, HR) over one
/// workload/hasher pair and returns the three curves in that order.
std::vector<Curve> RunTrioCurves(const Workload& w,
                                 const BinaryHasher& hasher,
                                 const StaticHashTable& table,
                                 double max_fraction = 0.3,
                                 size_t points = 9);

/// Prints the experiment banner: which paper artifact this regenerates.
void PrintBenchHeader(const std::string& artifact,
                      const std::string& description);

/// time(base at recall) / time(method at recall); negative when either
/// curve misses the recall.
double SpeedupAtRecall(const Curve& baseline, const Curve& method,
                       double recall);

/// Prints the "time to reach X% recall" table for the given curves at the
/// paper's typical recalls (80/85/90/95%).
void PrintTimeAtRecallTable(const std::string& artifact,
                            const std::string& dataset,
                            const std::vector<Curve>& curves);

/// Nearest-rank percentile of `*samples` for p in [0, 1] (p = 0.5 is the
/// median, 0.99 the p99). Sorts *samples in place; returns 0 on empty
/// input. Shared by the latency-reporting benches (perfbench among them)
/// so their percentile definitions cannot drift apart.
double Percentile(std::vector<double>* samples, double p);

/// Durably writes `contents` to `path`: writes to path + ".tmp", flushes
/// and fsyncs it, then renames over `path`. A bench run killed mid-write
/// (OOM, timeout, ^C) therefore leaves the previous BENCH_*.json intact
/// instead of a truncated JSON document. Returns false (with a message on
/// stderr) on any failure.
bool WriteFileAtomic(const std::string& path, const std::string& contents);

/// Provenance of this binary as a JSON object: git SHA (stamped at
/// configure time), active SIMD dispatch level, build type and compiler
/// flags. A BENCH_*.json without these is unreviewable — two runs that
/// differ only in -march or a dirty tree look like a regression.
std::string BuildMetadataJson();

/// Stamps `json` (a complete JSON object document) with a "meta" field
/// holding BuildMetadataJson() — inserted right after the opening brace,
/// so it leads the document — then writes it via WriteFileAtomic. Every
/// BENCH_*.json writer goes through here.
bool WriteBenchJson(const std::string& path, const std::string& json);

}  // namespace bench
}  // namespace gqr

#endif  // GQR_BENCH_COMMON_H_
