// Fuzz target for GQR's Append/Swap generation (paper §5, Algorithms 2-4).
//
// From a few input bytes it derives a code length (1..20), a query code
// and flip costs, then walks a GqrProber over the bucket space and
// checks, on every emission:
//   - Property 1: no bucket is emitted twice;
//   - Property 2: QD never decreases;
//   - the emitted QD equals QuantizationDistance(q, bucket) recomputed
//     from scratch, so the incremental Append/Swap arithmetic cannot
//     drift from the definition.
// Random costs reach ties, zeros and skewed orders that the unit tests'
// hand-picked costs do not. Any violation or sanitizer report is a
// finding.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "core/gqr_prober.h"
#include "core/qd.h"
#include "util/bits.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 10) return 0;
  const int m = 1 + data[0] % 20;  // Code length 1..20.

  // Query derived from the input: code from bytes 1..8, flip costs
  // cycled over the tail bytes (non-negative by construction).
  gqr::QueryHashInfo info;
  uint64_t code = 0;
  for (int i = 0; i < 8; ++i) {
    code |= static_cast<uint64_t>(data[1 + i]) << (8 * i);
  }
  info.code = code & gqr::LowBitsMask(m);
  info.flip_costs.resize(m);
  for (int i = 0; i < m; ++i) {
    info.flip_costs[i] =
        static_cast<double>(data[9 + (i % (size - 9))]) / 255.0;
  }

  gqr::GqrProber prober(info);
  std::unordered_set<uint64_t> buckets;
  double last_qd = 0.0;
  // The bucket space has 2^m codes; cap the walk to keep runs short.
  const size_t limit = std::min(size_t{1} << m, size_t{2048});
  for (size_t i = 0; i < limit; ++i) {
    gqr::ProbeTarget t;
    GQR_CHECK(prober.Next(&t)) << "exhausted after " << i << " of " << limit;
    const double qd = prober.last_score();
    GQR_CHECK(buckets.insert(t.bucket).second)
        << "Property 1: bucket emitted twice at " << i;
    GQR_CHECK_GE(qd, last_qd - 1e-9) << "Property 2: QD decreased at " << i;
    GQR_CHECK_LE(std::fabs(qd - gqr::QuantizationDistance(info, t.bucket)),
                 1e-9 * (1.0 + qd))
        << "emitted QD differs from the definition at " << i;
    last_qd = qd;
  }
  gqr::ProbeTarget t;
  GQR_CHECK(limit < (size_t{1} << m) || !prober.Next(&t))
      << "emitted more than 2^m buckets";
  return 0;
}
