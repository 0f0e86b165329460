#include "serve/server.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "util/check.h"
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

Status ShuttingDown() {
  return Status::Unavailable("server is shutting down");
}

// Every rejection goes through here: counts it in its outcome `bucket` and
// returns the ERR line.
std::string Reject(Status status, std::atomic<uint64_t>* bucket) {
  bucket->fetch_add(1, std::memory_order_relaxed);
  Response response;
  response.status = std::move(status);
  return FormatResponse(response);
}

}  // namespace

EstimatorServer::EstimatorServer(MscnEstimator* estimator,
                                 const Schema* schema,
                                 const SampleSet* samples)
    : estimator_(estimator), schema_(schema), samples_(samples) {
  LC_CHECK(estimator != nullptr);
  LC_CHECK(schema != nullptr);
  LC_CHECK(samples != nullptr);
  LC_CHECK(samples->sample_size() ==
           estimator->featurizer()->dims().sample_bits)
      << "sample set and featurizer disagree on the bitmap length; serving "
         "would annotate requests differently from the training workload";
}

EstimatorServer::~EstimatorServer() { Shutdown(); }

std::vector<std::string> EstimatorServer::HandleLines(
    const std::vector<std::string>& lines) {
  // Entered concurrently from every transport event loop (plus in-process
  // HandleLine callers): nothing here may assume a single caller thread —
  // the counters are atomics, the batch accounting and admin verbs take
  // their locks, and the estimator's batch path runs on a per-thread tape.
  // That keeps the Stats invariant exact with the transport sharded across
  // LC_SERVE_LOOPS threads: each line is counted once, in Admit, and lands
  // in one bucket.
  std::vector<std::string> responses(lines.size());
  std::vector<Miss> misses;
  misses.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    Miss miss;
    miss.slot = i;
    if (Admit(lines[i], &miss, &responses[i])) {
      misses.push_back(std::move(miss));
    }
  }
  if (!misses.empty()) ScoreMisses(&misses, &responses);
  return responses;
}

std::string EstimatorServer::HandleLine(std::string_view line) {
  return std::move(HandleLines({std::string(line)})[0]);
}

bool EstimatorServer::Admit(std::string_view line, Miss* miss,
                            std::string* response) {
  received_.fetch_add(1, std::memory_order_relaxed);
  miss->admitted = SteadyClock::now();

  StatusOr<std::string> text = ParseRequestLine(line);
  if (!text.ok()) {
    *response = Reject(text.status(), &rejected_malformed_);
    return false;
  }
  // Admin lines resolve inline: STATS is a counter read and RETRAIN only
  // kicks a background thread — neither blocks the calling event loop.
  if (IsAdminRequest(*text)) {
    *response = HandleAdmin(*text);
    return false;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    *response = Reject(ShuttingDown(), &rejected_shutdown_);
    return false;
  }

  StatusOr<Query> parsed = Query::Deserialize(*text);
  if (!parsed.ok()) {
    *response = Reject(parsed.status(), &rejected_malformed_);
    return false;
  }
  const Query query = std::move(parsed).value();
  Status valid = query.Validate(*schema_);
  if (!valid.ok()) {
    *response = Reject(std::move(valid), &rejected_malformed_);
    return false;
  }

  // Fast path: an exact-match fresh cache entry skips annotation and the
  // model entirely.
  miss->key = query.CanonicalKey();
  double cached = 0.0;
  if (estimator_->ProbeCache(miss->key, &cached)) {
    admission_hits_.fetch_add(1, std::memory_order_relaxed);
    Response hit;
    hit.estimate = cached;
    hit.cache_hit = true;
    hit.latency_us = MicrosSince(miss->admitted, SteadyClock::now());
    *response = FormatResponse(hit);
    return false;
  }

  // The runtime-sampling step of the paper's inference pipeline: annotate
  // the query with qualifying-sample counts/bitmaps (section 3.4).
  miss->labeled = LabelQuery(query, /*executor=*/nullptr, *samples_);
  return true;
}

void EstimatorServer::ScoreMisses(std::vector<Miss>* misses,
                                  std::vector<std::string>* responses) {
  // Per-thread workspace: each event loop reuses its own tape, so
  // steady-state batches allocate no tensor storage.
  thread_local Tape tape;
  std::vector<const LabeledQuery*> queries;
  std::vector<std::string> keys;
  std::vector<double> estimates;
  for (size_t begin = 0; begin < misses->size(); begin += kMaxBatch) {
    const size_t end = std::min(misses->size(), begin + kMaxBatch);
    queries.clear();
    keys.clear();
    for (size_t i = begin; i < end; ++i) {
      queries.push_back(&(*misses)[i].labeled);
      keys.push_back(std::move((*misses)[i].key));
    }
    const SteadyClock::time_point start = SteadyClock::now();
    estimator_->EstimateBatch(queries, std::move(keys), &tape, &estimates);
    const SteadyClock::time_point done = SteadyClock::now();

    {
      MutexLock lock(&stats_mu_);
      batch_served_ += end - begin;
      model_batches_ += 1;
      batch_size_.Add(static_cast<double>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        const SteadyClock::time_point admitted = (*misses)[i].admitted;
        queue_wait_us_.Add(MicrosSince(admitted, start));
        service_latency_us_.Add(MicrosSince(admitted, done));
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const Miss& miss = (*misses)[i];
      Response response;
      response.estimate = estimates[i - begin];
      response.latency_us = MicrosSince(miss.admitted, done);
      (*responses)[miss.slot] = FormatResponse(response);
    }
  }
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
      // Off every serving thread and every lock: the hook clone-trains in the
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

void EstimatorServer::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  // An in-flight background retrain finishes (and publishes or fails)
  // before the server is torn down — the hook may reference the estimator
  // and trainer this server borrows. RETRAIN checks stopping_ under
  // admin_mu_, so no retrain starts after this join.
  MutexLock admin_lock(&admin_mu_);
  if (retrain_thread_.joinable()) retrain_thread_.join();
}

Stats EstimatorServer::GetStats() const {
  Stats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.rejected_malformed = rejected_malformed_.load(std::memory_order_relaxed);
  stats.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  stats.admission_cache_hits =
      admission_hits_.load(std::memory_order_relaxed);
  stats.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  stats.retrains_started = retrains_started_.load(std::memory_order_relaxed);
  stats.retrains_failed = retrains_failed_.load(std::memory_order_relaxed);
  stats.model_swaps = model_swaps_.load(std::memory_order_relaxed);
  stats.stale_retirements = estimator_->cache_counters().invalidations;
  MutexLock lock(&stats_mu_);
  stats.served = stats.admission_cache_hits + batch_served_;
  stats.model_batches = model_batches_;
  stats.batch_size = batch_size_;
  stats.queue_wait_us = queue_wait_us_;
  stats.service_latency_us = service_latency_us_;
  return stats;
}

}  // namespace serve
}  // namespace lc
