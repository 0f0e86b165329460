// The serving front-end of the ROADMAP north star: a long-lived
// EstimatorServer that owns the request path from untrusted query text to a
// cardinality estimate, built so the batched SIMD inference path — not the
// single-query one — is what traffic exercises.
//
// Request lifecycle (see docs/ARCHITECTURE.md, "Serving"). One core,
// HandleLineAsync(line, done), runs the whole path on the calling thread up
// to admission; HandleLine(line) is its blocking wrapper:
//
//   HandleLineAsync(line, done)
//     line            → ParseRequestLine                 ERR InvalidArgument
//     admin           → HandleAdmin                      OK/ERR inline
//     parse (strict)  → Query::Deserialize               ERR InvalidArgument/
//     validate        → Query::Validate(schema)              Corruption
//     cache probe     → MscnEstimator::ProbeCache        hit: reply in ~1µs
//     annotate        → LabelQuery (sample bitmaps)
//     admit           → BoundedQueue::TryPush            full: ERR Unavailable
//   lane (worker thread)
//     drain           → Pop + PopUntil(batching window), ≤ max_batch items
//     score           → MscnEstimator::EstimateBatch (one forward pass)
//     reply           → done(FormatResponse(...)) per request
//
// Determinism: batching never changes results. EstimateBatch scores misses
// with padding-masked batches whose per-query forward pass is independent
// of batch composition, so server estimates are bit-identical to a direct
// MscnEstimator::EstimateAll over the same queries regardless of how the
// window happened to coalesce them (asserted by tests/serve_test.cc and
// bench/serve_load.cc).
//
// Backpressure: admission is a bounded queue. A full queue rejects with a
// typed Unavailable status immediately instead of blocking the caller —
// under overload the server sheds load with bounded latency rather than
// growing an unbounded backlog.
//
// Shutdown: Close() on the queue stops admission; lanes drain every
// already-accepted request before exiting, so a request either gets its
// estimate or a typed rejection — never a silently dropped callback.

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
#include "util/parallel.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "workload/workload.h"

namespace lc {
namespace serve {

/// Server tuning. Defaults come from the LC_SERVE_* environment knobs.
struct ServerConfig {
  /// Worker lanes draining the admission queue (LC_SERVE_LANES, default 2).
  /// 0 is allowed for tests: requests queue but nothing drains them until
  /// Shutdown fails them.
  int lanes = 2;
  /// Admission queue capacity (LC_SERVE_QUEUE, default 256). Beyond this,
  /// a query line is answered ERR Unavailable (backpressure).
  size_t queue_capacity = 256;
  /// Most queries one forward pass scores (LC_SERVE_BATCH, default 32).
  size_t max_batch = 32;
  /// How long a lane waits for more requests to coalesce after popping the
  /// first one (LC_SERVE_WINDOW_US, default 200; 0 = greedy, batch only
  /// what is already queued).
  int64_t window_us = 200;

  static ServerConfig FromEnv();
};

/// Monotonic server counters plus merged per-lane latency accounting; a
/// consistent-enough snapshot for reporting (counters are relaxed atomics,
/// lane stats are merged under their locks).
///
/// Coherence invariant (pinned by tests/serve_socket_test.cc with traffic
/// arriving concurrently from HandleLine callers and socket connections — since
/// the transport sharded, that means from N event-loop threads at once, and
/// the invariant must stay EXACT across loops, not per loop): every
/// received request lands in exactly one outcome bucket, so at quiescence
///   received == served + rejected_malformed + rejected_overload
///               + rejected_shutdown + admin_requests
/// (admin lines are their own bucket whatever their outcome — a malformed
/// admin verb does NOT also count as rejected_malformed).
struct Stats {
  uint64_t received = 0;            // HandleLineAsync calls (every line).
  uint64_t rejected_malformed = 0;  // Line, parse or validation failures.
  uint64_t rejected_overload = 0;   // Queue full.
  uint64_t rejected_shutdown = 0;   // Admission after Shutdown.
  uint64_t served = 0;              // OK responses.
  uint64_t admission_cache_hits = 0;  // Served at admission, never queued.
  uint64_t model_batches = 0;       // EstimateBatch calls across lanes.
  uint64_t admin_requests = 0;      // ADMIN protocol lines handled.
  uint64_t retrains_started = 0;    // Background retrains kicked off.
  uint64_t retrains_failed = 0;     // Retrain hook returned non-OK.
  uint64_t model_swaps = 0;         // Completed copy-train-swap updates.
  // Cache entries of superseded publications retired lazily by lookups
  // after a swap (the estimator cache's invalidation counter — the
  // observable proof that invalidation is per-entry, not a global wipe).
  uint64_t stale_retirements = 0;
  RunningStat batch_size;           // Requests per model batch.
  RunningStat queue_wait_us;        // Admission → lane pop.
  RunningStat service_latency_us;   // Admission → reply (lane-served only).
};

class EstimatorServer {
 public:
  /// Borrows everything: the estimator, schema and samples must outlive
  /// the server. `samples` must be the sample set the estimator's
  /// featurizer was configured for (checked), since request annotation
  /// recomputes the paper's section-3.4 bitmaps at serve time.
  EstimatorServer(MscnEstimator* estimator, const Schema* schema,
                  const SampleSet* samples,
                  ServerConfig config = ServerConfig::FromEnv());
  ~EstimatorServer();

  EstimatorServer(const EstimatorServer&) = delete;
  EstimatorServer& operator=(const EstimatorServer&) = delete;

  /// The request path: one protocol line in, one response line out.
  /// `done` receives the response line (unterminated) exactly once, on
  /// whatever thread finishes the request — the calling thread for
  /// rejections, cache hits and admin lines, a worker lane for batched
  /// estimates, or the shutdown path for drained leftovers. Query lines are
  /// parsed, validated, probed against the cache, annotated and admitted;
  /// "ADMIN <VERB>" lines are operator commands (RETRAIN kicks a background
  /// copy-train-swap via the retrain hook, STATS answers a one-line counter
  /// snapshot). Never blocks on the batching window, so `done` must not
  /// block either: lanes call it between batches, and the socket event loop
  /// behind it multiplexes every other connection. Thread-safe and called
  /// concurrently from every transport event loop (LC_SERVE_LOOPS of
  /// them), so a callback must not assume a particular loop.
  void HandleLineAsync(std::string_view line,
                       std::function<void(std::string)> done);

  /// Blocking HandleLineAsync for closed-loop callers: returns the response
  /// line once it is ready.
  std::string HandleLine(std::string_view line);

  /// One-line counter snapshot ("received=... served=..."), the payload of
  /// ADMIN STATS and the socket transport's periodic stats log.
  std::string FormatStatsLine();

  /// A background model update: train a replacement off to the side and
  /// publish it, e.g. Trainer::TrainClone + MscnEstimator::SwapModel on
  /// this server's estimator. Runs on a server-owned background thread —
  /// never on a lane and never under any server lock, so serving continues
  /// uninterrupted for the whole retrain. Return OK iff the swap was
  /// published. At most one retrain is in flight at a time ("ADMIN
  /// RETRAIN" answers Unavailable while one runs).
  using RetrainFn = std::function<Status()>;
  void set_retrain_fn(RetrainFn fn) LC_EXCLUDES(admin_mu_);
  bool retrain_in_flight() const {
    return retrain_in_flight_.load(std::memory_order_acquire);
  }

  /// Stops admission, drains every accepted request through the lanes,
  /// joins them. Idempotent; also run by the destructor. After Shutdown,
  /// query lines are answered ERR Unavailable.
  void Shutdown() LC_EXCLUDES(shutdown_mu_, admin_mu_);
  bool stopped() const { return stopping_.load(std::memory_order_acquire); }

  Stats GetStats() const;
  const ServerConfig& config() const { return config_; }

 private:
  struct Pending {
    LabeledQuery labeled;
    std::function<void(std::string)> done;
    std::chrono::steady_clock::time_point admitted;
  };
  struct LaneStats {
    mutable Mutex mu;
    uint64_t served LC_GUARDED_BY(mu) = 0;
    uint64_t model_batches LC_GUARDED_BY(mu) = 0;
    RunningStat batch_size LC_GUARDED_BY(mu);
    RunningStat queue_wait_us LC_GUARDED_BY(mu);
    RunningStat service_latency_us LC_GUARDED_BY(mu);
  };

  void LaneLoop(LaneStats* stats);
  std::string HandleAdmin(std::string_view text) LC_EXCLUDES(admin_mu_);

  MscnEstimator* estimator_;
  const Schema* schema_;
  const SampleSet* samples_;
  ServerConfig config_;
  BoundedQueue<std::unique_ptr<Pending>> queue_;
  std::vector<std::unique_ptr<LaneStats>> lane_stats_;
  std::vector<std::thread> lanes_;

  Mutex shutdown_mu_;  // Serializes Shutdown with itself.
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
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> admission_hits_{0};
  std::atomic<uint64_t> admin_requests_{0};
  std::atomic<uint64_t> retrains_started_{0};
  std::atomic<uint64_t> retrains_failed_{0};
  std::atomic<uint64_t> model_swaps_{0};
};

}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_SERVER_H_
