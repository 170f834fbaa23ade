// Microbenchmarks of the core primitives (google-benchmark): QD
// evaluation, GQR bucket generation, GHR code generation, HR/QR upfront
// sorts, hash-table probing, and exact rerank — the per-operation costs
// behind every recall-time curve.
#include <benchmark/benchmark.h>

#include "gqr.h"

namespace gqr {
namespace {

QueryHashInfo MakeInfo(int m, uint64_t seed) {
  Rng rng(seed);
  QueryHashInfo info;
  info.code = rng.Uniform(uint64_t{1} << std::min(m, 62));
  info.flip_costs.resize(m);
  for (double& c : info.flip_costs) c = rng.UniformDouble();
  return info;
}

std::vector<Code> MakeCodes(int m, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Code> codes(n);
  for (auto& c : codes) c = rng.Uniform(uint64_t{1} << m);
  return codes;
}

void BM_QuantizationDistance(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  QueryHashInfo info = MakeInfo(m, 1);
  Rng rng(2);
  Code bucket = rng.Uniform(uint64_t{1} << std::min(m, 62));
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuantizationDistance(info, bucket));
    bucket = (bucket + 1) & LowBitsMask(m);
  }
}
BENCHMARK(BM_QuantizationDistance)->Arg(16)->Arg(32)->Arg(64);

void BM_GqrGenerateBucket(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  QueryHashInfo info = MakeInfo(m, 3);
  GqrProber prober(info);
  ProbeTarget t;
  for (auto _ : state) {
    if (!prober.Next(&t)) {
      state.PauseTiming();
      prober = GqrProber(info);
      state.ResumeTiming();
      prober.Next(&t);
    }
    benchmark::DoNotOptimize(t.bucket);
  }
}
BENCHMARK(BM_GqrGenerateBucket)->Arg(16)->Arg(24)->Arg(32);

void BM_GhrGenerateBucket(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  QueryHashInfo info = MakeInfo(m, 4);
  GhrProber prober(info);
  ProbeTarget t;
  for (auto _ : state) {
    if (!prober.Next(&t)) {
      state.PauseTiming();
      prober = GhrProber(info);
      state.ResumeTiming();
      prober.Next(&t);
    }
    benchmark::DoNotOptimize(t.bucket);
  }
}
BENCHMARK(BM_GhrGenerateBucket)->Arg(16)->Arg(24)->Arg(32);

void BM_HrSortAllBuckets(benchmark::State& state) {
  // HR's retrieval cost: the per-query upfront counting sort by Hamming
  // distance.
  const int m = 16;
  StaticHashTable table(MakeCodes(m, state.range(0), 5), m);
  QueryHashInfo info = MakeInfo(m, 6);
  for (auto _ : state) {
    HrProber prober(info, table);
    ProbeTarget t;
    prober.Next(&t);
    benchmark::DoNotOptimize(t.bucket);
  }
}
BENCHMARK(BM_HrSortAllBuckets)->Arg(10000)->Arg(100000);

void BM_QrSortAllBuckets(benchmark::State& state) {
  // QR's slow start: QD for every bucket, then the exact (QD, code)
  // ranking of all of them before the first probe (a counting sort into
  // one bin per bucket plus within-bin sorts; linear in expectation).
  const int m = 16;
  StaticHashTable table(MakeCodes(m, state.range(0), 7), m);
  QueryHashInfo info = MakeInfo(m, 8);
  for (auto _ : state) {
    QrProber prober(info, table);
    ProbeTarget t;
    prober.Next(&t);
    benchmark::DoNotOptimize(t.bucket);
  }
}
BENCHMARK(BM_QrSortAllBuckets)->Arg(10000)->Arg(100000);

void BM_HashTableProbe(benchmark::State& state) {
  const int m = 16;
  StaticHashTable table(MakeCodes(m, 100000, 9), m);
  Rng rng(10);
  Code code = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Probe(code).size());
    code = (code + 7919) & LowBitsMask(m);
  }
}
BENCHMARK(BM_HashTableProbe);

void BM_ExactRerank(benchmark::State& state) {
  // Evaluation cost: exact distances for `range` candidates at dim 128.
  const size_t n = 20000, dim = 128;
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = dim;
  Dataset base = GenerateClusteredGaussian(spec);
  Searcher searcher(base);
  std::vector<ItemId> candidates(state.range(0));
  Rng rng(11);
  for (auto& id : candidates) {
    id = static_cast<ItemId>(rng.Uniform(n));
  }
  SearchOptions opt;
  opt.k = 20;
  opt.max_candidates = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        searcher.RerankCandidates(base.Row(0), candidates, opt));
  }
}
BENCHMARK(BM_ExactRerank)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ProjectQuery(benchmark::State& state) {
  // Query hashing cost (projection + costs) at dim 128, m = 16.
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 128;
  Dataset base = GenerateClusteredGaussian(spec);
  LshOptions opt;
  opt.code_length = 16;
  LinearHasher hasher = TrainLsh(base, 128, opt);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hasher.HashQuery(base.Row(static_cast<ItemId>(i))));
    i = (i + 1) % base.size();
  }
}
BENCHMARK(BM_ProjectQuery);

}  // namespace
}  // namespace gqr

BENCHMARK_MAIN();
