#include "vq/imi.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "core/validators.h"
#include "la/kmeans.h"
#include "util/check.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace gqr {

size_t ImiIndex::HalfBegin(int half) const {
  return model_->codebook().subspace(half).dim_begin;
}

size_t ImiIndex::HalfEnd(int half) const {
  return model_->codebook().subspace(half).dim_end;
}

ImiIndex::ImiIndex(const OpqModel& model, const Dataset& base,
                   const ImiOptions& options)
    : model_(&model),
      k_(static_cast<uint32_t>(model.codebook().num_centroids())),
      residual_centroids_(options.residual_centroids) {
  GQR_CHECK(model.codebook().num_subspaces() == 2);
  const size_t n = base.size();
  const size_t d = model.dim();

  // Rotate + encode everything once; keep the rotated vectors around
  // long enough to derive cells and residuals.
  std::vector<double> rotated(n * d);
  std::vector<uint32_t> cell_of(n);
  std::vector<uint32_t> coarse0(n), coarse1(n);
  ParallelFor(0, n, [&](size_t i) {
    double* r = rotated.data() + i * d;
    model_->RotateInto(base.Row(static_cast<ItemId>(i)), r);
    const std::vector<uint32_t> code = model_->codebook().Encode(r);
    coarse0[i] = code[0];
    coarse1[i] = code[1];
    cell_of[i] = static_cast<uint32_t>(CellIndex(code[0], code[1]));
  });

  // Counting sort into CSR layout.
  const size_t cells = num_cells();
  offsets_.assign(cells + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offsets_[cell_of[i] + 1];
  for (size_t c = 0; c < cells; ++c) offsets_[c + 1] += offsets_[c];
  items_.resize(n);
  std::vector<uint32_t> position_of(n);
  {
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      position_of[i] = cursor[cell_of[i]];
      items_[cursor[cell_of[i]]++] = static_cast<ItemId>(i);
    }
  }

  if (residual_centroids_ <= 0) return;

  // Residual PQ per half: train on (rotated - coarse centroid), then
  // encode every item.
  Rng rng(options.seed);
  for (int half = 0; half < 2; ++half) {
    const size_t begin = HalfBegin(half);
    const size_t sub_dim = HalfEnd(half) - begin;
    const Matrix& centroids = model_->codebook().subspace(half).centroids;
    const std::vector<uint32_t>& coarse = half == 0 ? coarse0 : coarse1;

    // Training sample of residuals.
    std::vector<uint32_t> rows;
    if (n > options.max_train_samples) {
      rows = rng.SampleWithoutReplacement(
          static_cast<uint32_t>(n),
          static_cast<uint32_t>(options.max_train_samples));
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0u);
    }
    std::vector<double> residuals(rows.size() * sub_dim);
    for (size_t s = 0; s < rows.size(); ++s) {
      const double* r = rotated.data() + rows[s] * d + begin;
      const double* c = centroids.Row(coarse[rows[s]]);
      for (size_t j = 0; j < sub_dim; ++j) {
        residuals[s * sub_dim + j] = r[j] - c[j];
      }
    }
    KMeansOptions km;
    km.k = static_cast<size_t>(residual_centroids_);
    km.max_iters = options.residual_kmeans_iters;
    km.seed = options.seed + 31 * static_cast<uint64_t>(half);
    residual_codebook_[half] =
        KMeans(residuals.data(), rows.size(), sub_dim, km).centers;

    // Encode all items (stored aligned with items_, i.e. by position).
    residual_code_[half].resize(n);
    ParallelFor(0, n, [&](size_t i) {
      const double* r = rotated.data() + i * d + begin;
      const double* c = centroids.Row(coarse[i]);
      std::vector<double> res(sub_dim);
      for (size_t j = 0; j < sub_dim; ++j) res[j] = r[j] - c[j];
      residual_code_[half][position_of[i]] = static_cast<uint8_t>(
          NearestCenter(residual_codebook_[half], res.data()));
    });
  }
}

size_t ImiIndex::num_nonempty_cells() const {
  size_t count = 0;
  for (size_t c = 0; c < num_cells(); ++c) {
    if (offsets_[c + 1] > offsets_[c]) ++count;
  }
  return count;
}

template <typename VisitFn>
void ImiIndex::MultiSequenceSweep(const float* query, ProbeStats* stats,
                                  VisitFn visit) const {
  // Distance tables on the rotated query, each sorted ascending.
  std::vector<double> rotated(model_->dim());
  model_->RotateInto(query, rotated.data());
  std::vector<std::vector<double>> tables;
  model_->codebook().ComputeDistanceTables(rotated.data(), &tables);

  std::vector<uint32_t> order0(k_), order1(k_);
  std::iota(order0.begin(), order0.end(), 0u);
  std::iota(order1.begin(), order1.end(), 0u);
  std::sort(order0.begin(), order0.end(), [&](uint32_t a, uint32_t b) {
    return tables[0][a] < tables[0][b];
  });
  std::sort(order1.begin(), order1.end(), [&](uint32_t a, uint32_t b) {
    return tables[1][a] < tables[1][b];
  });

  struct Pos {
    double dist;
    uint32_t i, j;
    bool operator>(const Pos& other) const { return dist > other.dist; }
  };
  std::priority_queue<Pos, std::vector<Pos>, std::greater<Pos>> heap;
  std::vector<bool> pushed(num_cells(), false);
  auto push = [&](uint32_t i, uint32_t j) {
    if (i >= k_ || j >= k_) return;
    const size_t key = static_cast<size_t>(i) * k_ + j;
    if (pushed[key]) return;
    pushed[key] = true;
    heap.push(Pos{tables[0][order0[i]] + tables[1][order1[j]], i, j});
  };
  push(0, 0);
#if GQR_VALIDATE_ENABLED
  // Cells in ascending cell-distance sum, each at most once (Property 1
  // is checked when `visited` goes out of scope).
  ProbeSequenceValidator visited("ImiIndex::MultiSequenceSweep");
#endif

  while (!heap.empty()) {
    const Pos top = heap.top();
    heap.pop();
    if (stats != nullptr) ++stats->cells_visited;
    const uint32_t c0 = order0[top.i];
    const uint32_t c1 = order1[top.j];
    const size_t cell = CellIndex(c0, c1);
#if GQR_VALIDATE_ENABLED
    visited.Observe(0, cell, top.dist);
#endif
    const uint32_t begin = offsets_[cell];
    const uint32_t end = offsets_[cell + 1];
    if (begin != end && stats != nullptr) ++stats->cells_nonempty;
    if (!visit(c0, c1, rotated, begin, end)) return;
    push(top.i + 1, top.j);
    push(top.i, top.j + 1);
  }
}

std::vector<ItemId> ImiIndex::Collect(const float* query,
                                      size_t max_candidates,
                                      ProbeStats* stats) const {
  std::vector<ItemId> out;
  if (max_candidates == 0) return out;
  out.reserve(max_candidates);
  MultiSequenceSweep(
      query, stats,
      [&](uint32_t, uint32_t, const std::vector<double>&, uint32_t begin,
          uint32_t end) {
        for (uint32_t p = begin; p != end && out.size() < max_candidates;
             ++p) {
          out.push_back(items_[p]);
        }
        return out.size() < max_candidates;
      });
  return out;
}

std::vector<ItemId> ImiIndex::SearchAdc(const float* query, size_t k,
                                        size_t max_candidates,
                                        ProbeStats* stats) const {
  // Bounded max-heap of (estimated distance, id).
  using Entry = std::pair<double, ItemId>;
  std::priority_queue<Entry> top;
  size_t scanned = 0;

  const int kr = residual_centroids_;
  std::vector<double> table0(std::max(kr, 1)), table1(std::max(kr, 1));

  MultiSequenceSweep(
      query, stats,
      [&](uint32_t c0, uint32_t c1, const std::vector<double>& rotated,
          uint32_t begin, uint32_t end) {
        if (begin != end && kr > 0) {
          // Lazy residual tables for this cell: squared distance of
          // (q_half - coarse centroid) to every residual codeword.
          for (int half = 0; half < 2; ++half) {
            const size_t hb = HalfBegin(half);
            const size_t sub_dim = HalfEnd(half) - hb;
            const Matrix& coarse =
                model_->codebook().subspace(half).centroids;
            const double* c = coarse.Row(half == 0 ? c0 : c1);
            std::vector<double>& table = half == 0 ? table0 : table1;
            for (int r = 0; r < kr; ++r) {
              const double* rc = residual_codebook_[half].Row(r);
              double sq = 0.0;
              for (size_t j = 0; j < sub_dim; ++j) {
                const double diff = rotated[hb + j] - c[j] - rc[j];
                sq += diff * diff;
              }
              table[r] = sq;
            }
          }
        }
        for (uint32_t p = begin; p != end && scanned < max_candidates;
             ++p) {
          double dist;
          if (kr > 0) {
            dist = table0[residual_code_[0][p]] +
                   table1[residual_code_[1][p]];
          } else {
            // No residual codes: every item of the cell shares the cell
            // distance; rank by scan order within the cell.
            dist = static_cast<double>(scanned);
          }
          ++scanned;
          if (top.size() < k) {
            top.emplace(dist, items_[p]);
          } else if (dist < top.top().first) {
            top.pop();
            top.emplace(dist, items_[p]);
          }
        }
        return scanned < max_candidates;
      });

  std::vector<ItemId> out(top.size());
  for (size_t i = top.size(); i-- > 0;) {
    out[i] = top.top().second;
    top.pop();
  }
  return out;
}

}  // namespace gqr
