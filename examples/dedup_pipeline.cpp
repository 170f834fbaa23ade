// Near-duplicate detection pipeline (the de-duplication use case of the
// paper's introduction): find, for every item in a batch, whether the
// corpus already contains a near-duplicate — using GQR with the
// QD-threshold early stop of §4.1 (TerminationPolicy at margin 1)
// instead of a fixed candidate budget.
//
// The early stop is what makes this workload cheap: most items either
// have an almost-identical twin (found in the first bucket or two) or
// none at all (the mu * QD lower bound quickly exceeds the nearest
// distance found and probing stops).
#include <cstdio>

#include "gqr.h"

int main() {
  using namespace gqr;

  // Corpus with planted near-duplicates: generate a base, then append
  // jittered copies of a subset.
  SyntheticSpec spec;
  spec.n = 30000;
  spec.dim = 48;
  spec.num_clusters = 300;
  spec.cluster_stddev = 4.0;
  spec.zipf_exponent = 0.5;
  spec.seed = 21;
  Dataset corpus = GenerateClusteredGaussian(spec);

  Rng rng(22);
  const size_t batch_size = 200;
  Dataset batch(batch_size, corpus.dim());
  std::vector<bool> is_duplicate(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    const bool dup = i % 2 == 0;  // Half the batch duplicates the corpus.
    is_duplicate[i] = dup;
    float* row = batch.MutableRow(static_cast<ItemId>(i));
    if (dup) {
      const auto src = static_cast<ItemId>(rng.Uniform(corpus.size()));
      for (size_t j = 0; j < corpus.dim(); ++j) {
        row[j] = corpus.Row(src)[j] +
                 static_cast<float>(rng.Gaussian(0.0, 0.01));
      }
    } else {
      for (size_t j = 0; j < corpus.dim(); ++j) {
        row[j] = static_cast<float>(rng.Gaussian(0.0, 12.0));
      }
    }
  }

  // Index the corpus.
  PcahOptions pcah;  // Cheap training is fine — GQR does the heavy lifting.
  pcah.code_length = CodeLengthForSize(corpus.size());
  LinearHasher hasher = TrainPcah(corpus, pcah);
  StaticHashTable table(hasher.HashDataset(corpus), hasher.code_length());
  const double mu = TheoremTwoMu(hasher);
  std::printf("corpus: %s, m = %d, mu = %.4g\n", corpus.Summary().c_str(),
              hasher.code_length(), mu);

  // Deduplicate the batch.
  const float duplicate_radius = 1.0f;
  Searcher searcher(corpus);
  size_t true_pos = 0, false_pos = 0, false_neg = 0;
  size_t total_buckets = 0, total_items = 0, early_stops = 0;
  Timer timer;
  for (size_t i = 0; i < batch_size; ++i) {
    const float* item = batch.Row(static_cast<ItemId>(i));
    QueryHashInfo info = hasher.HashQuery(item);
    GqrProber prober(info);
    SearchOptions opt;
    opt.k = 1;
    opt.max_candidates = 2000;  // Backstop; early stop usually fires first.
    opt.termination = TerminationPolicy{mu, 1.0};
    SearchResult r = searcher.Search(item, &prober, table, opt);
    const bool found =
        !r.distances.empty() && r.distances[0] <= duplicate_radius;
    total_buckets += r.stats.buckets_probed;
    total_items += r.stats.items_evaluated;
    if (r.stats.terminated) ++early_stops;
    if (found && is_duplicate[i]) ++true_pos;
    if (found && !is_duplicate[i]) ++false_pos;
    if (!found && is_duplicate[i]) ++false_neg;
  }
  const double seconds = timer.ElapsedSeconds();

  std::printf(
      "\nbatch of %zu items in %.3fs: %zu duplicates found, %zu false "
      "positives, %zu misses\n",
      batch_size, seconds, true_pos, false_pos, false_neg);
  std::printf(
      "avg work per item: %.1f buckets probed, %.1f distances computed; "
      "early stop fired on %zu/%zu items\n",
      static_cast<double>(total_buckets) / batch_size,
      static_cast<double>(total_items) / batch_size, early_stops,
      batch_size);
  return (true_pos >= batch_size / 2 - 5 && false_pos == 0) ? 0 : 1;
}
