#include "serve/server.h"

#include <algorithm>
#include <future>
#include <utility>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "util/check.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/str.h"

namespace lc {
namespace serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Background CPU priority of the retrain thread: the lowest. Clone-training
// is throughput work and serving owns the cores.
constexpr int kRetrainNice = 19;

double MicrosSince(SteadyClock::time_point start, SteadyClock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - start).count();
}

Status Overloaded() {
  return Status::Unavailable(
      "admission queue full: server overloaded, retry later");
}

Status ShuttingDown() {
  return Status::Unavailable("server is shutting down");
}

// Every rejection goes through here: counts it in its outcome `bucket` and
// answers `done` with the ERR line.
void Reject(Status status, std::atomic<uint64_t>* bucket,
            const std::function<void(std::string)>& done) {
  bucket->fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.status = std::move(status);
  done(FormatResponse(response));
}

}  // namespace

ServerConfig ServerConfig::FromEnv() {
  ServerConfig config;
  config.lanes = static_cast<int>(
      std::max<int64_t>(0, GetEnvInt("LC_SERVE_LANES", config.lanes)));
  config.queue_capacity = static_cast<size_t>(std::max<int64_t>(
      1, GetEnvInt("LC_SERVE_QUEUE",
                   static_cast<int64_t>(config.queue_capacity))));
  config.max_batch = static_cast<size_t>(std::max<int64_t>(
      1, GetEnvInt("LC_SERVE_BATCH", static_cast<int64_t>(config.max_batch))));
  config.window_us =
      std::max<int64_t>(0, GetEnvInt("LC_SERVE_WINDOW_US", config.window_us));
  return config;
}

EstimatorServer::EstimatorServer(MscnEstimator* estimator,
                                 const Schema* schema,
                                 const SampleSet* samples,
                                 ServerConfig config)
    : estimator_(estimator),
      schema_(schema),
      samples_(samples),
      config_(config),
      queue_(config.queue_capacity) {
  LC_CHECK(estimator != nullptr);
  LC_CHECK(schema != nullptr);
  LC_CHECK(samples != nullptr);
  LC_CHECK_GE(config.lanes, 0);
  LC_CHECK_GT(config.max_batch, 0u);
  LC_CHECK_GE(config.window_us, 0);
  LC_CHECK(samples->sample_size() ==
           estimator->featurizer()->dims().sample_bits)
      << "sample set and featurizer disagree on the bitmap length; serving "
         "would annotate requests differently from the training workload";
  lane_stats_.reserve(static_cast<size_t>(config.lanes));
  lanes_.reserve(static_cast<size_t>(config.lanes));
  for (int lane = 0; lane < config.lanes; ++lane) {
    lane_stats_.push_back(std::make_unique<LaneStats>());
    // Dedicated threads, not pool tasks: lanes block on the queue for their
    // whole lifetime and must never starve ParallelFor work of its workers.
    lanes_.emplace_back(
        [this, stats = lane_stats_.back().get()] { LaneLoop(stats); });
  }
}

EstimatorServer::~EstimatorServer() { Shutdown(); }

void EstimatorServer::HandleLineAsync(std::string_view line,
                                      std::function<void(std::string)> done) {
  // Entered concurrently from every transport event loop (plus in-process
  // HandleLine callers): nothing below this line may assume a single caller
  // thread — the counters are atomics, the BoundedQueue admission path
  // locks internally, and admin verbs take admin_mu_. That keeps the Stats
  // invariant exact with the transport sharded across LC_SERVE_LOOPS
  // threads: each line is counted here once, and lands in one bucket below.
  received_.fetch_add(1, std::memory_order_relaxed);
  const SteadyClock::time_point admitted = SteadyClock::now();

  StatusOr<std::string> text = ParseRequestLine(line);
  if (!text.ok()) {
    Reject(text.status(), &rejected_malformed_, done);
    return;
  }
  // Admin lines resolve inline: STATS is a counter read and RETRAIN only
  // kicks a background thread — neither blocks the calling event loop.
  if (IsAdminRequest(*text)) {
    done(HandleAdmin(*text));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    Reject(ShuttingDown(), &rejected_shutdown_, done);
    return;
  }

  StatusOr<Query> parsed = Query::Deserialize(*text);
  if (!parsed.ok()) {
    Reject(parsed.status(), &rejected_malformed_, done);
    return;
  }
  const Query query = std::move(parsed).value();
  Status valid = query.Validate(*schema_);
  if (!valid.ok()) {
    Reject(std::move(valid), &rejected_malformed_, done);
    return;
  }

  // Fast path: an exact-match fresh cache entry skips annotation, the
  // queue, and the batching window entirely.
  double cached = 0.0;
  if (estimator_->ProbeCache(query.CanonicalKey(), &cached)) {
    admission_hits_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.estimate = cached;
    response.cache_hit = true;
    response.latency_us = MicrosSince(admitted, SteadyClock::now());
    done(FormatResponse(response));
    return;
  }

  // Cheap pre-annotation shed: under sustained overload the queue stays
  // full, and annotating a request that TryPush will reject would make
  // rejections cost as much CPU as service. The check races with the
  // lanes (a momentarily-full queue may drain before TryPush), so it only
  // sheds — TryPush below stays the authoritative admission decision.
  if (queue_.size() >= config_.queue_capacity) {
    Reject(Overloaded(), &rejected_overload_, done);
    return;
  }

  auto pending = std::make_unique<Pending>();
  // The runtime-sampling step of the paper's inference pipeline: annotate
  // the query with qualifying-sample counts/bitmaps (section 3.4) on the
  // submitting thread, keeping lanes free for forward passes.
  pending->labeled = LabelQuery(query, /*executor=*/nullptr, *samples_);
  pending->admitted = admitted;
  pending->done = std::move(done);

  switch (queue_.TryPush(&pending)) {
    case QueuePush::kAccepted:
      return;
    case QueuePush::kFull:
      Reject(Overloaded(), &rejected_overload_, pending->done);
      return;
    case QueuePush::kClosed:
      Reject(ShuttingDown(), &rejected_shutdown_, pending->done);
      return;
  }
  LC_CHECK(false) << "unreachable";
}

std::string EstimatorServer::HandleLine(std::string_view line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  HandleLineAsync(line, [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future.get();
}

std::string EstimatorServer::FormatStatsLine() {
  const Stats stats = GetStats();
  return lc::Format(
      "received=%llu served=%llu cache_hits=%llu rejected=%llu "
      "batches=%llu retrains=%llu swaps=%llu retrain_failures=%llu "
      "stale_retirements=%llu retrain_in_flight=%d",
      static_cast<unsigned long long>(stats.received),
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.admission_cache_hits),
      static_cast<unsigned long long>(stats.rejected_malformed +
                                      stats.rejected_overload +
                                      stats.rejected_shutdown),
      static_cast<unsigned long long>(stats.model_batches),
      static_cast<unsigned long long>(stats.retrains_started),
      static_cast<unsigned long long>(stats.model_swaps),
      static_cast<unsigned long long>(stats.retrains_failed),
      static_cast<unsigned long long>(stats.stale_retirements),
      retrain_in_flight() ? 1 : 0);
}

void EstimatorServer::set_retrain_fn(RetrainFn fn) {
  MutexLock lock(&admin_mu_);
  retrain_fn_ = std::move(fn);
}

std::string EstimatorServer::HandleAdmin(std::string_view text) {
  admin_requests_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<std::string> verb = ParseAdminVerb(text);
  // Malformed admin lines count as admin_requests only — never also as
  // rejected_malformed — so the Stats coherence invariant (received ==
  // the sum of the outcome buckets) holds with admin traffic in the mix.
  if (!verb.ok()) {
    return FormatAdminResponse(verb.status(), "");
  }

  if (*verb == "STATS") {
    return FormatAdminResponse(Status::OK(), FormatStatsLine());
  }

  if (*verb == "RETRAIN") {
    MutexLock lock(&admin_mu_);
    if (!retrain_fn_) {
      return FormatAdminResponse(
          Status::Unimplemented("no retrain hook configured"), "");
    }
    if (stopping_.load(std::memory_order_acquire)) {
      return FormatAdminResponse(ShuttingDown(), "");
    }
    if (retrain_in_flight_.load(std::memory_order_acquire)) {
      return FormatAdminResponse(
          Status::Unavailable("retrain already in flight"), "");
    }
    // Reap the previous (finished) retrain thread before launching the
    // next; the in-flight flag above guarantees it is done.
    if (retrain_thread_.joinable()) retrain_thread_.join();
    retrain_in_flight_.store(true, std::memory_order_release);
    retrains_started_.fetch_add(1, std::memory_order_relaxed);
    // The thread body runs OUTSIDE this MutexLock, so it must not read the
    // retrain_fn_ member (that read would race a concurrent
    // set_retrain_fn — a real violation the thread-safety analysis
    // rejects). It runs a by-value copy taken under admin_mu_ instead.
    retrain_thread_ = std::thread([this, retrain = retrain_fn_] {
#if defined(__linux__)
      // Nice is per-thread on Linux and inherited by threads the trainer
      // spawns (the featurization producer), so on a saturated machine the
      // retrain soaks up idle cycles instead of the serving path's.
      // Raising one's own nice never needs privileges; ignore failure.
      (void)setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                        kRetrainNice);
#endif
      // Off every lane and every lock: the hook clone-trains in the
      // background while serving continues, then publishes with an atomic
      // swap. Failure leaves the old model serving.
      const Status status = retrain();
      if (status.ok()) {
        model_swaps_.fetch_add(1, std::memory_order_relaxed);
      } else {
        retrains_failed_.fetch_add(1, std::memory_order_relaxed);
        LC_LOG(WARNING) << "background retrain failed: "
                        << status.ToString();
      }
      retrain_in_flight_.store(false, std::memory_order_release);
    });
    return FormatAdminResponse(Status::OK(), "retrain started");
  }

  return FormatAdminResponse(
      Status::InvalidArgument("unknown admin verb: " + *verb), "");
}

void EstimatorServer::LaneLoop(LaneStats* stats) {
  Tape tape;  // Lane-owned workspace: steady-state batches allocate nothing.
  std::unique_ptr<Pending> first;
  while (queue_.Pop(&first)) {
    // Batching window: the first request opens the window; the lane then
    // coalesces whatever arrives before the deadline, up to max_batch, so
    // bursts ride the batched SIMD path instead of one forward pass each.
    std::vector<std::unique_ptr<Pending>> batch;
    batch.reserve(config_.max_batch);
    batch.push_back(std::move(first));
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::microseconds(config_.window_us);
    while (batch.size() < config_.max_batch) {
      std::unique_ptr<Pending> next;
      if (!queue_.PopUntil(&next, deadline)) break;
      batch.push_back(std::move(next));
    }

    const SteadyClock::time_point popped = SteadyClock::now();
    std::vector<const LabeledQuery*> queries;
    queries.reserve(batch.size());
    for (const auto& pending : batch) queries.push_back(&pending->labeled);
    std::vector<double> estimates;
    std::vector<uint8_t> cache_hits;
    estimator_->EstimateBatch(queries, &tape, &estimates, &cache_hits);
    const SteadyClock::time_point done = SteadyClock::now();

    {
      MutexLock lock(&stats->mu);
      stats->model_batches += 1;
      stats->batch_size.Add(static_cast<double>(batch.size()));
      for (const auto& pending : batch) {
        stats->served += 1;
        stats->queue_wait_us.Add(MicrosSince(pending->admitted, popped));
        stats->service_latency_us.Add(MicrosSince(pending->admitted, done));
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      Response response;
      response.estimate = estimates[i];
      response.cache_hit = cache_hits[i] != 0;
      response.latency_us = MicrosSince(batch[i]->admitted, done);
      batch[i]->done(FormatResponse(response));
    }
  }
}

void EstimatorServer::Shutdown() {
  MutexLock lock(&shutdown_mu_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Stop admission; lanes keep popping until the queue reports closed AND
  // drained, so every accepted request is served before the join returns.
  queue_.Close();
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  {
    // An in-flight background retrain finishes (and publishes or fails)
    // before the server is torn down — the hook may reference the
    // estimator and trainer this server borrows.
    MutexLock admin_lock(&admin_mu_);
    if (retrain_thread_.joinable()) retrain_thread_.join();
  }
  // With lanes == 0 (tests) nothing drained the queue: resolve the
  // leftovers with a typed rejection so no callback is silently abandoned.
  std::unique_ptr<Pending> leftover;
  while (queue_.TryPop(&leftover)) {
    Reject(Status::Unavailable(
               "server shut down before the request was served"),
           &rejected_shutdown_, leftover->done);
  }
}

Stats EstimatorServer::GetStats() const {
  Stats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.rejected_malformed = rejected_malformed_.load(std::memory_order_relaxed);
  stats.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  stats.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  stats.admission_cache_hits =
      admission_hits_.load(std::memory_order_relaxed);
  stats.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  stats.retrains_started = retrains_started_.load(std::memory_order_relaxed);
  stats.retrains_failed = retrains_failed_.load(std::memory_order_relaxed);
  stats.model_swaps = model_swaps_.load(std::memory_order_relaxed);
  stats.stale_retirements = estimator_->cache_counters().invalidations;
  stats.served = stats.admission_cache_hits;
  for (const auto& lane : lane_stats_) {
    MutexLock lock(&lane->mu);
    stats.served += lane->served;
    stats.model_batches += lane->model_batches;
    stats.batch_size.Merge(lane->batch_size);
    stats.queue_wait_us.Merge(lane->queue_wait_us);
    stats.service_latency_us.Merge(lane->service_latency_us);
  }
  return stats;
}

}  // namespace serve
}  // namespace lc
