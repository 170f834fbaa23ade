// Fuzz target for the four single-table querying methods (GQR, GHR, HR,
// QR; paper §2.2, §4.2, §5, §6.3).
//
// Input layout: byte 0 picks the method ((byte / 20) % 4: GQR, GHR, HR,
// QR) and the code length m = 1 + byte % 20; bytes 1..8 are the query
// code; the tail bytes, cycled, are the flip costs (non-negative by
// construction). HR and QR probe a StaticHashTable whose item codes are
// the little-endian 8-byte windows of the tail, masked to m bits. A
// byte 0 below 20 selects GQR with the layout of the former GQR-only
// harness, so its corpus keeps its meaning.
//
// On every emission it checks:
//   - Properties 1-2, through the same ProbeSequenceValidator the
//     Searcher runs in validating builds;
//   - QR/GQR: the emitted QD equals QuantizationDistance recomputed from
//     scratch; HR/GHR: the score equals the Hamming distance;
//   - every method: each qd_bound() seen so far is <= the QD of this
//     bucket, the soundness of the Theorem-2 stop (for HR/GHR the bound
//     is a cost prefix sum, not the score);
// and when a walk runs to the end, that the emitted set is the whole
// bucket space (all 2^m codes for GQR/GHR, the table's non-empty
// buckets for HR/QR). Any violation or sanitizer report is a finding.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/ghr_prober.h"
#include "core/gqr_prober.h"
#include "core/hr_prober.h"
#include "core/qd.h"
#include "core/qr_prober.h"
#include "core/validators.h"
#include "index/hash_table.h"
#include "util/bits.h"
#include "util/check.h"

namespace {

enum class Method { kGqr, kGhr, kHr, kQr };

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 10) return 0;
  const auto method = static_cast<Method>((data[0] / 20) % 4);
  const int m = 1 + data[0] % 20;  // Code length 1..20.
  const gqr::Code space_mask = gqr::LowBitsMask(m);
  const uint8_t* tail = data + 9;
  const size_t tail_size = size - 9;

  gqr::QueryHashInfo info;
  uint64_t code = 0;
  for (int i = 0; i < 8; ++i) {
    code |= static_cast<uint64_t>(data[1 + i]) << (8 * i);
  }
  info.code = code & space_mask;
  info.flip_costs.resize(m);
  for (int i = 0; i < m; ++i) {
    info.flip_costs[i] = static_cast<double>(tail[i % tail_size]) / 255.0;
  }

  gqr::StaticHashTable table;
  std::unique_ptr<gqr::BucketProber> prober;
  switch (method) {
    case Method::kGqr:
      prober = std::make_unique<gqr::GqrProber>(info);
      break;
    case Method::kGhr:
      prober = std::make_unique<gqr::GhrProber>(info);
      break;
    case Method::kHr:
    case Method::kQr: {
      std::vector<gqr::Code> codes(tail_size);
      for (size_t i = 0; i < tail_size; ++i) {
        uint64_t window = 0;
        for (size_t b = 0; b < 8; ++b) {
          window |= static_cast<uint64_t>(tail[(i + b) % tail_size])
                    << (8 * b);
        }
        codes[i] = window & space_mask;
      }
      table = gqr::StaticHashTable(codes, m);
      if (method == Method::kHr) {
        prober = std::make_unique<gqr::HrProber>(info, table);
      } else {
        prober = std::make_unique<gqr::QrProber>(info, table);
      }
      break;
    }
  }
  const bool exhaustive = method == Method::kGqr || method == Method::kGhr;
  const size_t space =
      exhaustive ? size_t{1} << m : table.bucket_codes().size();
  const bool scores_are_qd = method == Method::kGqr || method == Method::kQr;

  gqr::ProbeSequenceValidator stream("fuzz_probers");
  std::unordered_set<gqr::Code> emitted;
  double max_bound = 0.0;
  // Generate-to-probe methods walk a 2^m space; cap them to keep runs
  // short.
  const size_t limit = std::min(space, size_t{2048});
  for (size_t i = 0; i < limit; ++i) {
    gqr::ProbeTarget t;
    GQR_CHECK(prober->Next(&t)) << "exhausted after " << i << " of " << limit;
    GQR_CHECK_EQ(t.bucket & ~space_mask, gqr::Code{0})
        << "bucket outside the code space at " << i;
    const double score = prober->last_score();
    stream.Observe(t.table, t.bucket, score);
    emitted.insert(t.bucket);
    const double qd = gqr::QuantizationDistance(info, t.bucket);
    const double slack = 1e-9 * (1.0 + qd);
    if (scores_are_qd) {
      GQR_CHECK_LE(std::fabs(score - qd), slack)
          << "emitted QD differs from the definition at " << i;
    } else {
      GQR_CHECK_EQ(score, static_cast<double>(
                              gqr::HammingDistance(info.code, t.bucket)))
          << "score is not the Hamming distance at " << i;
    }
    max_bound = std::max(max_bound, prober->qd_bound());
    GQR_CHECK_LE(max_bound, qd + slack)
        << "qd_bound() exceeds the QD of a bucket emitted at or after it, "
        << "at " << i;
  }
  stream.Finish();
  if (limit == space) {
    gqr::ProbeTarget t;
    GQR_CHECK(!prober->Next(&t)) << "emitted more than " << space
                                 << " buckets";
    // `space` unique emissions inside the code space are all 2^m codes;
    // for HR/QR they must also cover the table's buckets.
    for (gqr::Code c : table.bucket_codes()) {
      GQR_CHECK(emitted.count(c) == 1) << "bucket " << c << " never emitted";
    }
  }
  return 0;
}
