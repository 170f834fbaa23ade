#include "core/qr_prober.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/qd.h"
#include "util/check.h"

namespace gqr {

namespace {

// Bins longer than this (mass QD ties, or a skewed QD distribution) are
// sorted by std::sort before the final insertion pass.
constexpr size_t kInsertionSortMax = 16;

// Per-calling-thread construction temporaries, reused across queries so
// that once warm a QrProber allocates nothing beyond its own order_.
struct QrScratch {
  std::vector<QrProber::Scored> records;  // (QD, code), unranked.
  std::vector<uint32_t> bin_end;          // Counting-sort bin boundaries.
  std::vector<double> qd_table;           // QD of every flip mask.
};

QrScratch& TlQrScratch() {
  thread_local QrScratch scratch;
  return scratch;
}

// The comparison-sort order QR is defined by: ascending QD, ties broken
// by code.
inline bool RankedBefore(const QrProber::Scored& a,
                         const QrProber::Scored& b) {
  if (a.qd != b.qd) return a.qd < b.qd;
  return a.bucket < b.bucket;
}

// table[x] = QD of flip mask x for all x < 2^m, summed exactly as
// QuantizationDistance sums it (ascending bit order): the mask without
// its highest bit b already holds the sum of the lower bits, and
// flip_costs[b] is added last.
void FillQdTable(const std::vector<double>& flip_costs,
                 std::vector<double>* table) {
  const size_t m = flip_costs.size();
  table->resize(size_t{1} << m);
  double* t = table->data();
  t[0] = 0.0;
  for (size_t b = 0; b < m; ++b) {
    const size_t high = size_t{1} << b;
    const double cost = flip_costs[b];
    for (size_t x = 0; x < high; ++x) t[high + x] = t[x] + cost;
  }
}

}  // namespace

QrProber::QrProber(const QueryHashInfo& info, const StaticHashTable& table,
                   uint32_t table_id)
    : QrProber(info, table.bucket_codes(), table_id) {}

QrProber::QrProber(const QueryHashInfo& info,
                   const std::vector<Code>& bucket_codes, uint32_t table_id)
    : table_id_(table_id) {
  // Algorithm 1 line 4: calculate QD for all buckets and sort.
  const size_t n = bucket_codes.size();
  GQR_CHECK_LE(n, size_t{UINT32_MAX}) << "too many buckets to rank";
  order_.resize(n);
  if (n == 0) return;
  QrScratch& s = TlQrScratch();
  if (s.records.size() < n) s.records.resize(n);
  Scored* records = s.records.data();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  auto record = [&](size_t i, double qd) {
    records[i] = {qd, bucket_codes[i]};
    if (qd < lo) lo = qd;
    if (qd > hi) hi = qd;
  };
  // When the code space is no larger than twice the bucket count, one
  // add per flip mask is cheaper than a bit loop per bucket.
  const int m = info.code_length();
  if (m < 32 && (size_t{1} << m) <= 2 * n) {
    FillQdTable(info.flip_costs, &s.qd_table);
    const double* qd_of = s.qd_table.data();
    for (size_t i = 0; i < n; ++i) {
      GQR_DCHECK_EQ(bucket_codes[i] >> m, Code{0}) << "code wider than m";
      record(i, qd_of[bucket_codes[i] ^ info.code]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      record(i, QuantizationDistance(info, bucket_codes[i]));
    }
  }

  // Counting sort into n bins by floor((qd - lo) * scale). Rounded
  // subtraction and multiplication are both monotone, so a smaller QD
  // never lands in a later bin and equal QDs share a bin: every record
  // ranks before every record of a later bin, and sorting within bins
  // yields exactly the comparison-sort order. Equal (or non-finite)
  // extremes leave one bin.
  double scale = static_cast<double>(n - 1) / (hi - lo);
  if (!(scale > 0.0 && scale <= std::numeric_limits<double>::max())) {
    scale = 0.0;
  }
  const double top = static_cast<double>(n - 1);
  auto bin_of = [lo, scale, top, n](double qd) -> size_t {
    const double x = (qd - lo) * scale;
    return x < top ? static_cast<size_t>(x) : n - 1;
  };
  s.bin_end.assign(n, 0);
  uint32_t* bin_end = s.bin_end.data();
  for (size_t i = 0; i < n; ++i) ++bin_end[bin_of(records[i].qd)];
  uint32_t sum = 0;
  for (size_t b = 0; b < n; ++b) {
    sum += bin_end[b];
    bin_end[b] = sum - bin_end[b];  // Bin start; advanced to its end below.
  }
  for (size_t i = 0; i < n; ++i) {
    order_[bin_end[bin_of(records[i].qd)]++] = records[i];
  }

  // Within-bin order. Long bins get std::sort; then one insertion pass
  // over the whole array finishes the short ones. It never moves a record
  // across a bin boundary, so it costs O(n * kInsertionSortMax) at worst.
  Scored* first = order_.data();
  Scored* begin = first;
  for (size_t b = 0; b < n; ++b) {
    Scored* end = first + bin_end[b];
    if (static_cast<size_t>(end - begin) > kInsertionSortMax) {
      std::sort(begin, end, RankedBefore);
    }
    begin = end;
  }
  for (Scored* i = first + 1; i < first + n; ++i) {
    if (!RankedBefore(*i, *(i - 1))) continue;
    const Scored x = *i;
    Scored* j = i;
    do {
      *j = *(j - 1);
      --j;
    } while (j > first && RankedBefore(x, *(j - 1)));
    *j = x;
  }
}

bool QrProber::Next(ProbeTarget* target) {
  if (pos_ >= order_.size()) return false;
  last_qd_ = order_[pos_].qd;
  target->table = table_id_;
  target->bucket = order_[pos_].bucket;
  ++pos_;
  return true;
}

}  // namespace gqr
