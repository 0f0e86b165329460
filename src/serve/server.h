// The serving front-end of the ROADMAP north star: a long-lived
// EstimatorServer that owns the request path from untrusted query text to a
// cardinality estimate, built so the batched SIMD inference path — not the
// single-query one — is what pipelined traffic exercises.
//
// Request lifecycle (see docs/ARCHITECTURE.md, "Serving"). One core,
// HandleLines(lines), serves every line on the calling thread — for the
// socket transport, the event loop that framed them; HandleLine(line) is
// its batch-1 form:
//
//   HandleLines(lines), each line in order
//     line            → ParseRequestLine                 ERR InvalidArgument
//     admin           → HandleAdmin                      OK/ERR inline
//     shutdown check                                     ERR Unavailable
//     parse (strict)  → Query::Deserialize               ERR InvalidArgument/
//     validate        → Query::Validate(schema)              Corruption
//     cache probe     → MscnEstimator::ProbeCache        hit: answered
//                       (the request's one counted lookup)
//     annotate        → LabelQuery (sample bitmaps)
//   then the misses, in chunks of kMaxBatch
//     score           → MscnEstimator::EstimateBatch (one forward pass,
//                       then cache insert; every response reads cache=miss)
//   one response line per request line, in request order
//
// Batching: the batch is whatever arrived together — one read(2) of a
// pipelining client is one call. A lone request is scored at batch 1 with
// no wait; a pipelined burst rides full batches. There is no queue and no
// batching window: nothing waits for a later request.
//
// Determinism: batching never changes results. EstimateBatch scores misses
// with padding-masked batches whose per-query forward pass is independent
// of batch composition, so server estimates are bit-identical to a direct
// MscnEstimator::EstimateAll over the same queries however the lines
// happened to arrive together (asserted by tests/serve_test.cc and
// bench/serve_load.cc).
//
// Overload: the caller does the work, so an overloaded server answers
// slower rather than shedding — the socket transport frames no new lines
// while it is busy, and the kernel socket buffers push back on the client.
//
// Shutdown: once Shutdown() begins, query lines are answered ERR
// Unavailable; a call already past that check finishes normally on its
// own thread, so every accepted line is answered.

#ifndef LC_SERVE_SERVER_H_
#define LC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/mscn_estimator.h"
#include "db/schema.h"
#include "sample/sample.h"
#include "serve/protocol.h"
#include "util/mutex.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "workload/workload.h"

namespace lc {
namespace serve {

/// Monotonic server counters plus batch latency accounting; a
/// consistent-enough snapshot for reporting (counters are relaxed atomics,
/// the batch accounting is read under its lock).
///
/// Coherence invariant (pinned by tests/serve_socket_test.cc with traffic
/// arriving concurrently from HandleLine callers and socket connections —
/// that is, from N event-loop threads at once, and the invariant must stay
/// EXACT across loops, not per loop): every received request lands in
/// exactly one outcome bucket, so at quiescence
///   received == served + rejected_malformed + rejected_overload
///               + rejected_shutdown + admin_requests
/// (admin lines are their own bucket whatever their outcome — a malformed
/// admin verb does NOT also count as rejected_malformed).
struct Stats {
  uint64_t received = 0;            // Request lines (every line).
  uint64_t rejected_malformed = 0;  // Line, parse or validation failures.
  // Always 0: overload is transport backpressure, not a rejection. Kept so
  // the invariant above and existing readers of the field stay valid.
  uint64_t rejected_overload = 0;
  uint64_t rejected_shutdown = 0;   // Query lines after Shutdown.
  uint64_t served = 0;              // OK responses.
  uint64_t admission_cache_hits = 0;  // Answered by the cache probe.
  uint64_t model_batches = 0;       // EstimateBatch calls.
  uint64_t admin_requests = 0;      // ADMIN protocol lines handled.
  uint64_t retrains_started = 0;    // Background retrains kicked off.
  uint64_t retrains_failed = 0;     // Retrain hook returned non-OK.
  uint64_t model_swaps = 0;         // Completed copy-train-swap updates.
  // Cache entries of superseded publications retired lazily by lookups
  // after a swap (the estimator cache's invalidation counter — the
  // observable proof that invalidation is per-entry, not a global wipe).
  uint64_t stale_retirements = 0;
  RunningStat batch_size;           // Requests per model batch.
  // Admission of a line → start of its batch's EstimateBatch: the
  // admission steps of the lines ahead of it in the same call.
  RunningStat queue_wait_us;
  RunningStat service_latency_us;   // Admission → reply (model-scored only).
};

class EstimatorServer {
 public:
  /// Most cache misses one forward pass scores; a call with more misses
  /// scores them in consecutive chunks of this size.
  static constexpr size_t kMaxBatch = 32;

  /// Borrows everything: the estimator, schema and samples must outlive
  /// the server. `samples` must be the sample set the estimator's
  /// featurizer was configured for (checked), since request annotation
  /// recomputes the paper's section-3.4 bitmaps at serve time.
  EstimatorServer(MscnEstimator* estimator, const Schema* schema,
                  const SampleSet* samples);
  ~EstimatorServer();

  EstimatorServer(const EstimatorServer&) = delete;
  EstimatorServer& operator=(const EstimatorServer&) = delete;

  /// The request path: protocol lines in, one response line (unterminated)
  /// per line out, in the same order. Runs entirely on the calling thread:
  /// query lines are parsed, validated, probed against the cache and
  /// annotated, then every miss among them is scored by one EstimateBatch
  /// per kMaxBatch chunk. "ADMIN <VERB>" lines are operator commands
  /// (RETRAIN kicks a background copy-train-swap via the retrain hook,
  /// STATS answers a one-line counter snapshot) and never block. Thread-safe
  /// and called concurrently from every transport event loop
  /// (LC_SERVE_LOOPS of them) and in-process callers.
  std::vector<std::string> HandleLines(const std::vector<std::string>& lines);

  /// HandleLines of one line.
  std::string HandleLine(std::string_view line);

  /// One-line counter snapshot ("received=... served=..."), the payload of
  /// ADMIN STATS and the socket transport's periodic stats log.
  std::string FormatStatsLine();

  /// A background model update: train a replacement off to the side and
  /// publish it, e.g. Trainer::TrainClone + MscnEstimator::SwapModel on
  /// this server's estimator. Runs on a server-owned background thread —
  /// never on a serving thread and never under any server lock, so serving
  /// continues uninterrupted for the whole retrain. Return OK iff the swap
  /// was published. At most one retrain is in flight at a time ("ADMIN
  /// RETRAIN" answers Unavailable while one runs).
  using RetrainFn = std::function<Status()>;
  void set_retrain_fn(RetrainFn fn) LC_EXCLUDES(admin_mu_);
  bool retrain_in_flight() const {
    return retrain_in_flight_.load(std::memory_order_acquire);
  }

  /// Stops admission and joins an in-flight background retrain.
  /// Idempotent; also run by the destructor. After Shutdown, query lines
  /// are answered ERR Unavailable.
  void Shutdown() LC_EXCLUDES(admin_mu_);
  bool stopped() const { return stopping_.load(std::memory_order_acquire); }

  Stats GetStats() const LC_EXCLUDES(stats_mu_);

 private:
  // A query line that missed the cache, waiting for its forward pass.
  struct Miss {
    size_t slot = 0;  // Index of its request line.
    std::chrono::steady_clock::time_point admitted;
    std::string key;  // Query::CanonicalKey(), computed once for both
                      // the cache probe and the cache insert.
    LabeledQuery labeled;
  };

  // Runs the per-line steps up to annotation. Returns true when the line
  // is a cache miss now in `*miss`; otherwise `*response` is its answer.
  bool Admit(std::string_view line, Miss* miss, std::string* response)
      LC_EXCLUDES(admin_mu_);
  // Scores `misses` in kMaxBatch chunks and writes their responses.
  void ScoreMisses(std::vector<Miss>* misses,
                   std::vector<std::string>* responses)
      LC_EXCLUDES(stats_mu_);
  std::string HandleAdmin(std::string_view text) LC_EXCLUDES(admin_mu_);

  MscnEstimator* estimator_;
  const Schema* schema_;
  const SampleSet* samples_;

  std::atomic<bool> stopping_{false};

  // Retrain orchestration: the hook and the single background thread
  // running it are guarded by admin_mu_; the thread itself takes no server
  // lock (it runs a by-value COPY of the hook, so a concurrent
  // set_retrain_fn cannot race the invocation).
  Mutex admin_mu_;
  RetrainFn retrain_fn_ LC_GUARDED_BY(admin_mu_);
  std::thread retrain_thread_ LC_GUARDED_BY(admin_mu_);
  std::atomic<bool> retrain_in_flight_{false};

  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> rejected_malformed_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> admission_hits_{0};
  std::atomic<uint64_t> admin_requests_{0};
  std::atomic<uint64_t> retrains_started_{0};
  std::atomic<uint64_t> retrains_failed_{0};
  std::atomic<uint64_t> model_swaps_{0};

  // Model-batch accounting, one update per batch from any serving thread.
  mutable Mutex stats_mu_;
  uint64_t batch_served_ LC_GUARDED_BY(stats_mu_) = 0;
  uint64_t model_batches_ LC_GUARDED_BY(stats_mu_) = 0;
  RunningStat batch_size_ LC_GUARDED_BY(stats_mu_);
  RunningStat queue_wait_us_ LC_GUARDED_BY(stats_mu_);
  RunningStat service_latency_us_ LC_GUARDED_BY(stats_mu_);
};

}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_SERVER_H_
