#include "serve/query_service.h"

#include <algorithm>
#include <utility>

#include "core/batch_search.h"
#include "util/check.h"
#include "util/clock.h"

namespace gqr {

namespace {

QueryServiceOptions Normalize(QueryServiceOptions options) {
  if (options.max_batch == 0) options.max_batch = 1;
  if (options.max_queue == 0) options.max_queue = 1;
  if (options.num_workers == 0) options.num_workers = 1;
  return options;
}

/// Histogram bucket for a queue depth d >= 1: the smallest b with
/// 2^b >= d (so depth 1 -> 0, 2 -> 1, 3..4 -> 2, ...), clamped to the
/// histogram size.
size_t DepthBucket(size_t depth, size_t num_buckets) {
  size_t b = 0;
  while ((static_cast<size_t>(1) << b) < depth) ++b;
  return std::min(b, num_buckets - 1);
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kExpired:
      return "expired";
  }
  return "unknown";
}

double ServiceStats::MeanBatchFill() const {
  uint64_t batches_seen = 0;
  uint64_t requests = 0;
  for (size_t f = 0; f < batch_fill.size(); ++f) {
    batches_seen += batch_fill[f];
    requests += batch_fill[f] * f;
  }
  if (batches_seen == 0) return 0.0;
  return static_cast<double>(requests) / static_cast<double>(batches_seen);
}

struct QueryService::Future::State {
  Mutex mu;
  CondVar cv;
  bool ready GQR_GUARDED_BY(mu) = false;
  Response response GQR_GUARDED_BY(mu);
};

Response QueryService::Future::Get() {
  GQR_CHECK(state_ != nullptr) << "Get() on an invalid Future";
  MutexLock lock(state_->mu);
  while (!state_->ready) state_->cv.Wait(state_->mu);
  return std::move(state_->response);
}

QueryService::QueryService(const Searcher& searcher,
                           const BinaryHasher& hasher,
                           const ShardedIndex& index,
                           QueryServiceOptions options)
    : searcher_(&searcher),
      hasher_(&hasher),
      index_(&index),
      options_(Normalize(std::move(options))) {
  {
    // No worker exists yet, but initializing the guarded stats under the
    // lock keeps the capability contract unconditional.
    MutexLock lock(mu_);
    stats_.batch_fill.assign(options_.max_batch + 1, 0);
    stats_.queue_depth.assign(DepthBucket(options_.max_queue, 64) + 1, 0);
  }
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

bool QueryService::SubmitAsync(const float* query, size_t k, Deadline deadline,
                               Callback done) {
  GQR_CHECK(query != nullptr);
  GQR_CHECK(done != nullptr) << "SubmitAsync needs a completion callback";
  Request r;
  r.query.assign(query, query + hasher_->dim());
  r.k = k;
  r.deadline = deadline;
  r.done = std::move(done);
  {
    MutexLock lock(mu_);
    if (shutdown_ || queue_.size() >= options_.max_queue) {
      ++stats_.rejected;
      return false;
    }
    r.enqueue_time = SteadyNow();
    r.flush_gen = flush_generation_;
    r.ticket = stats_.accepted;
    queue_.push_back(std::move(r));
    ++stats_.accepted;
    ++stats_.queue_depth[DepthBucket(queue_.size(),
                                     stats_.queue_depth.size())];
  }
  queue_cv_.NotifyOne();
  return true;
}

QueryService::Future QueryService::Submit(const float* query, size_t k,
                                          Deadline deadline) {
  Future f;
  f.state_ = std::make_shared<Future::State>();
  std::shared_ptr<Future::State> state = f.state_;
  const bool accepted =
      SubmitAsync(query, k, deadline, [state](Response response) {
        MutexLock lock(state->mu);
        state->response = std::move(response);
        state->ready = true;
        state->cv.NotifyOne();
      });
  if (!accepted) {
    // Shed at admission: the callback never fires, so resolve the future
    // here. No waiter can exist yet, but locking keeps the contract.
    MutexLock lock(state->mu);
    state->response.status = RequestStatus::kRejected;
    state->ready = true;
  }
  return f;
}

void QueryService::Flush() {
  {
    MutexLock lock(mu_);
    ++flush_generation_;
  }
  queue_cv_.NotifyAll();
}

void QueryService::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.NotifyAll();
  // Not safe against a *concurrent* Shutdown (join of the same thread),
  // but idempotent across sequential calls — the destructor's re-run
  // finds every worker already joined.
  for (Thread& w : workers_) {
    if (w.Joinable()) w.Join();
  }
}

ServiceStats QueryService::Stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void QueryService::WorkerLoop() {
  std::vector<Request> batch;
  while (ClaimBatch(&batch)) {
    ExecuteBatch(&batch);
  }
}

bool QueryService::ClaimBatch(std::vector<Request>* batch) {
  batch->clear();
  MutexLock lock(mu_);
  for (;;) {
    while (queue_.empty() && !shutdown_) queue_cv_.Wait(mu_);
    // Shutdown drains: workers keep claiming until the queue is empty,
    // so every accepted request still completes.
    if (queue_.empty()) return false;

    if (options_.coalesce && options_.max_batch > 1 && !shutdown_) {
      // Linger for the block to fill, bounded by max_linger measured
      // from the oldest queued request (if another worker claims it
      // from under us the stale, earlier flush point only makes us
      // flush sooner — never later). The front request's flush stamp is
      // re-read every pass: a Flush() issued at any point after its
      // enqueue — even before this worker reached the wait — releases
      // it immediately.
      const Deadline flush_at =
          queue_.front().enqueue_time + options_.max_linger;
      while (!queue_.empty() && queue_.size() < options_.max_batch &&
             !shutdown_ && queue_.front().flush_gen == flush_generation_) {
        if (!queue_cv_.WaitUntil(mu_, flush_at)) break;  // Linger over.
      }
      if (queue_.empty()) continue;  // Another worker claimed everything.
    }

    // Claim up to one block; with coalescing off every request is served
    // as a batch of one (the ablation baseline must not re-amortize a
    // backlog).
    const size_t take =
        options_.coalesce ? std::min(queue_.size(), options_.max_batch)
                          : static_cast<size_t>(1);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return true;
  }
}

void QueryService::ExecuteBatch(std::vector<Request>* batch) {
  if (batch->empty()) return;
  const Clock::time_point claim_time = SteadyNow();
  const size_t dim = hasher_->dim();

  // Per-worker execution buffers; workers are long-lived threads, so the
  // steady-state batch path stops allocating once these are warm.
  thread_local std::vector<size_t> live;
  thread_local std::vector<float> block;
  thread_local std::vector<QueryHashInfo> infos;
  thread_local std::vector<Code> bucket_union;

  // Requests whose deadline passed while they queued are completed as
  // kExpired without executing — the batch does not pay for them.
  live.clear();
  size_t num_expired = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    if ((*batch)[i].deadline < claim_time) {
      ++num_expired;
    } else {
      live.push_back(i);
    }
  }
  const size_t fill = live.size();

  // Counters lead delivery: the whole batch is accounted before any of
  // its callbacks can fire, so a caller that has observed a completion
  // never reads a Stats() snapshot that is missing it.
  {
    MutexLock lock(mu_);
    stats_.expired += num_expired;
    if (fill > 0) {
      ++stats_.batches;
      ++stats_.batch_fill[std::min(fill, stats_.batch_fill.size() - 1)];
      stats_.completed += fill;
    }
  }

  if (num_expired > 0) {
    for (size_t i = 0; i < batch->size(); ++i) {
      Request& r = (*batch)[i];
      if (r.deadline >= claim_time) continue;
      Response resp;
      resp.status = RequestStatus::kExpired;
      resp.queue_micros =
          std::chrono::duration<double, std::micro>(claim_time -
                                                    r.enqueue_time)
              .count();
      Callback done = std::move(r.done);
      done(std::move(resp));
    }
  }

  if (fill > 0) {
    // Phase 1 — the whole point of coalescing: gather the block and
    // batch-hash it (one blocked GEMM per 64-query tile for projection
    // hashers), bit-identical to per-query HashQuery.
    block.resize(fill * dim);
    for (size_t j = 0; j < fill; ++j) {
      const Request& r = (*batch)[live[j]];
      std::copy(r.query.begin(), r.query.end(), block.begin() + j * dim);
    }
    if (infos.size() < fill) infos.resize(fill);
    BatchHashQueries(*hasher_, block.data(), fill, dim, infos.data());

    // HR/QR sort a bucket list upfront; snapshot the cross-shard union
    // once per batch instead of once per request.
    bucket_union.clear();
    if (MethodNeedsBucketUnion(options_.method)) {
      bucket_union = index_->BucketCodeUnion();
    }

    // Phase 2: probe + evaluate each request individually (per-request k
    // and options), against the concurrent sharded index.
    for (size_t j = 0; j < fill; ++j) {
      Request& r = (*batch)[live[j]];
      SearchOptions so = options_.search;
      if (r.k > 0) so.k = r.k;
      // Per-request plan inputs; the position is the ticket stamped at
      // admission (see Request).
      SetQueryPlanInput(infos[j], r.ticket, &so);
      Response resp;
      resp.status = RequestStatus::kOk;
      resp.batch_size = fill;
      resp.queue_micros =
          std::chrono::duration<double, std::micro>(claim_time -
                                                    r.enqueue_time)
              .count();
      std::unique_ptr<BucketProber> prober = MakeShardedProber(
          options_.method, infos[j], bucket_union, index_->code_length());
      searcher_->SearchInto(r.query.data(), prober.get(), *index_, so,
                            /*scratch=*/nullptr, &resp.result);
      Callback done = std::move(r.done);
      done(std::move(resp));
    }
  }
}

}  // namespace gqr
