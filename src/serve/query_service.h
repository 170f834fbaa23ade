// QueryService: the request-serving front end over the sharded index.
//
// The compute substrate is batch-shaped — blocked GEMM hashing is worth
// ~5.7x when queries arrive 64 at a time (BENCH_projection.json) — but a
// stream of independent requests arrives one query at a time. The
// service closes that gap by *coalescing*: concurrent Submit() calls
// land in a bounded queue, a worker claims up to max_batch of them
// (flushing early once the oldest request has lingered max_linger), and
// the whole block rides the batched hashing path of core/batch_search
// before each request is probed and evaluated individually against the
// ShardedIndex. Results are bit-identical to direct single-query
// Searcher::Search — batching never changes a code, a flipping cost, or
// a probe order (tests/serve_test.cc proves it differentially for all
// four querying methods).
//
// Serving semantics:
//   - Admission control: the submit queue is bounded (max_queue).
//     Submitting against a full queue — or after Shutdown() — sheds the
//     request immediately with RequestStatus::kRejected; nothing is
//     silently dropped.
//   - Deadlines: each request carries an absolute steady-clock deadline.
//     A request whose deadline passed while it waited in the queue is
//     completed as kExpired without being executed (the batch it would
//     have ridden does not pay for it).
//   - Completion: Submit() returns a Future (blocking Get()); the
//     callback-based SubmitAsync() invokes the completion callback
//     exactly once, on a service worker thread. Every accepted request
//     is completed — Shutdown() drains in-flight requests before the
//     workers exit.
//   - Observability: Stats() snapshots accepted/rejected/expired/
//     completed counters plus batch-fill and queue-depth histograms, the
//     two distributions that tell an operator whether coalescing is
//     actually amortizing (fill near max_batch) and whether the queue is
//     the bottleneck (depth near max_queue).
//
// The locking protocol is compiler-checked: every mutable field is
// GQR_GUARDED_BY(mu_) and the entry points GQR_EXCLUDES(mu_), matching
// the discipline of index/sharded_index.h. Batch execution runs with no
// lock held — only claim/complete touch mu_ — so the queue stays
// available to submitters while a batch computes.
#ifndef GQR_SERVE_QUERY_SERVICE_H_
#define GQR_SERVE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/searcher.h"
#include "core/sharded_search.h"
#include "eval/harness.h"
#include "hash/binary_hasher.h"
#include "index/sharded_index.h"
#include "util/sync.h"
#include "util/thread.h"

namespace gqr {

/// Terminal status of one submitted request.
enum class RequestStatus {
  kOk,        // Executed; Response::result holds the top-k.
  kRejected,  // Shed at admission: queue full, or service shut down.
  kExpired,   // Deadline passed while the request waited in the queue.
};

const char* RequestStatusName(RequestStatus status);

/// What a completed request resolves to.
struct Response {
  RequestStatus status = RequestStatus::kRejected;
  /// Meaningful only when status == kOk.
  SearchResult result;
  /// Submit -> claimed-by-a-batch wait (queueing + linger), microseconds.
  double queue_micros = 0.0;
  /// Fill of the batch that served this request (kOk only).
  size_t batch_size = 0;
};

struct QueryServiceOptions {
  /// Largest coalesced block. 64 matches the blocked-GEMM tile of the
  /// batched hashing path, so a full batch is exactly one GEMM.
  size_t max_batch = 64;
  /// How long a claimed-by-nobody request may wait for the block to
  /// fill before the batch is flushed anyway. The latency cost of
  /// coalescing is bounded by this knob.
  std::chrono::microseconds max_linger{200};
  /// Bound on queued (accepted, not yet claimed) requests; submits
  /// beyond it are rejected. This is the shed point under overload.
  size_t max_queue = 1024;
  /// Worker threads claiming and executing batches.
  size_t num_workers = 1;
  /// Ablation knob: false serves every request as a batch of one with no
  /// linger — the per-query path the coalescer exists to beat.
  bool coalesce = true;
  /// Querying method executed for every request.
  QueryMethod method = QueryMethod::kGQR;
  /// Base search options; a request's k overrides `search.k` when > 0.
  SearchOptions search;
};

/// Monotonic counters and histograms, snapshotted by Stats().
struct ServiceStats {
  uint64_t accepted = 0;   // Requests admitted to the queue.
  uint64_t rejected = 0;   // Shed at admission.
  uint64_t expired = 0;    // Deadline passed while queued.
  uint64_t completed = 0;  // Executed (kOk responses).
  uint64_t batches = 0;    // Batches flushed.
  /// batch_fill[f] = batches that executed exactly f requests,
  /// f in [0, max_batch] (index 0 is unused: empty claims don't flush).
  std::vector<uint64_t> batch_fill;
  /// Queue depth observed after each accepted submit, in power-of-two
  /// buckets: queue_depth[0] counts depth 1, queue_depth[i] counts
  /// depths in [2^(i-1) + 1 .. 2^i] for i >= 1.
  std::vector<uint64_t> queue_depth;

  /// Fill-weighted mean batch size (0 when no batch has flushed).
  double MeanBatchFill() const;
};

class QueryService {
 public:
  using Clock = std::chrono::steady_clock;
  using Deadline = Clock::time_point;
  /// Completion callback; invoked exactly once, on a worker thread.
  using Callback = std::function<void(Response)>;

  /// "No deadline": requests never expire in the queue.
  static Deadline NoDeadline() { return Deadline::max(); }

  /// The service borrows all four references; they must outlive it.
  /// Workers start immediately. The index may be mutated concurrently
  /// (Insert/Remove/FreezeShard) — execution goes through the same
  /// lock-disciplined probe path as ShardedSearch.
  QueryService(const Searcher& searcher, const BinaryHasher& hasher,
               const ShardedIndex& index, QueryServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Future returned by Submit(). Get() blocks until the request
  /// completes (execution, expiry, or rejection — rejected futures are
  /// born resolved).
  class Future {
   public:
    Future() = default;
    bool valid() const { return state_ != nullptr; }
    /// Blocks until the response is ready, then returns it (moved out;
    /// call Get() once).
    Response Get();

   private:
    friend class QueryService;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Submits one query (copied: `query` need only stay valid for the
  /// call) asking for `k` neighbors (0 = options.search.k) under
  /// `deadline`. Returns false — without ever invoking `done` — when the
  /// request is shed at admission; otherwise `done` fires exactly once on
  /// a worker thread with the terminal Response.
  bool SubmitAsync(const float* query, size_t k, Deadline deadline,
                   Callback done) GQR_EXCLUDES(mu_);

  /// Future-style submit. Rejected submissions return an already-resolved
  /// kRejected future, so callers can treat every path uniformly.
  Future Submit(const float* query, size_t k,
                Deadline deadline = Deadline::max()) GQR_EXCLUDES(mu_);

  /// Flushes the currently queued requests without waiting out the
  /// linger (they still execute on worker threads; this only cuts the
  /// wait short).
  void Flush() GQR_EXCLUDES(mu_);

  /// Stops admission (subsequent submits are rejected), drains every
  /// already-accepted request, and joins the workers. Idempotent; also
  /// run by the destructor.
  void Shutdown() GQR_EXCLUDES(mu_);

  /// Consistent snapshot of the serving counters. Counters lead
  /// delivery: a completion the caller has already observed (callback
  /// fired, Future resolved) is always included in the snapshot.
  ServiceStats Stats() const GQR_EXCLUDES(mu_);

  const QueryServiceOptions& options() const { return options_; }

 private:
  struct Request {
    std::vector<float> query;  // dim floats, copied at submit.
    size_t k = 0;
    Deadline deadline;
    Clock::time_point enqueue_time;
    /// flush_generation_ at enqueue; a later Flush() makes the linger
    /// loop release this request immediately.
    uint64_t flush_gen = 0;
    /// Admission-order exploration ticket (stats_.accepted at accept),
    /// assigned under mu_ — the planner's epsilon-greedy schedule is
    /// then a deterministic function of the admission sequence no matter
    /// which worker executes the request.
    uint64_t ticket = 0;
    Callback done;
  };

  void WorkerLoop() GQR_EXCLUDES(mu_);
  /// Claims the next batch (blocking through linger/shutdown), resolving
  /// expired requests on the way. Returns false when the service is shut
  /// down and the queue fully drained — the worker exits.
  bool ClaimBatch(std::vector<Request>* batch) GQR_EXCLUDES(mu_);
  /// Executes a claimed batch: gathers the query block, batch-hashes it,
  /// then probes + evaluates each request against the sharded index.
  /// Runs without mu_ held.
  void ExecuteBatch(std::vector<Request>* batch) GQR_EXCLUDES(mu_);

  const Searcher* searcher_;
  const BinaryHasher* hasher_;
  const ShardedIndex* index_;
  const QueryServiceOptions options_;

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<Request> queue_ GQR_GUARDED_BY(mu_);
  bool shutdown_ GQR_GUARDED_BY(mu_) = false;
  /// Bumped by Flush(). Requests are stamped with the generation at
  /// enqueue; a worker lingers only while the front request's stamp
  /// still matches, so a Flush() is never lost to a worker that had not
  /// yet reached its linger wait.
  uint64_t flush_generation_ GQR_GUARDED_BY(mu_) = 0;
  ServiceStats stats_ GQR_GUARDED_BY(mu_);

  /// Written during construction, joined by Shutdown(); workers never
  /// touch the vector itself.
  std::vector<Thread> workers_;
};

}  // namespace gqr

#endif  // GQR_SERVE_QUERY_SERVICE_H_
