// Umbrella header: the public API of the GQR library.
//
// Typical usage (see examples/quickstart.cpp):
//
//   gqr::Dataset base = ...;                        // your descriptors
//   gqr::ItqOptions itq{.code_length = 16};
//   gqr::LinearHasher hasher = gqr::TrainItq(base, itq);
//   gqr::StaticHashTable table(hasher.HashDataset(base),
//                              hasher.code_length());
//   gqr::Searcher searcher(base);
//
//   gqr::QueryHashInfo info = hasher.HashQuery(query);
//   gqr::GqrProber prober(info);
//   gqr::SearchOptions opts{.k = 20, .max_candidates = 2000};
//   gqr::SearchResult result =
//       searcher.Search(query, &prober, table, opts);
#ifndef GQR_GQR_H_
#define GQR_GQR_H_

#include "core/batch_search.h"
#include "core/c2lsh.h"
#include "core/eval_batch.h"
#include "core/ghr_prober.h"
#include "core/gqr_prober.h"
#include "core/hr_prober.h"
#include "core/mih_prober.h"
#include "core/multi_prober.h"
#include "core/multiprobe_lsh.h"
#include "core/prober.h"
#include "core/qd.h"
#include "core/qr_prober.h"
#include "core/searcher.h"
#include "core/sharded_search.h"
#include "core/sklsh.h"
#include "data/compressed_dataset.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "data/vecs_io.h"
#include "eval/curve.h"
#include "eval/diagnostics.h"
#include "eval/harness.h"
#include "eval/linear_scan.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "hash/binary_hasher.h"
#include "hash/itq.h"
#include "hash/kmh.h"
#include "hash/e2lsh.h"
#include "hash/linear_hasher.h"
#include "hash/lsh.h"
#include "hash/pcah.h"
#include "hash/sh.h"
#include "hash/ssh.h"
#include "index/dynamic_table.h"
#include "index/hash_table.h"
#include "index/multi_table.h"
#include "index/sharded_index.h"
#include "la/simd_kernels.h"
#include "persist/model_io.h"
#include "persist/serializer.h"
#include "serve/query_service.h"
#include "util/bits.h"
#include "util/env.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/timer.h"
#include "vq/imi.h"
#include "vq/opq.h"
#include "vq/pq.h"

#endif  // GQR_GQR_H_
