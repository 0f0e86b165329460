// The three serving workloads. Load comes from kConnections client threads,
// one unix-socket connection each, speaking the line protocol to the
// SocketServer started by the set-up. Every EST answer is checked
// bit-identical to MscnEstimator::EstimateAll over the same queries.
//
// The traced run measures the load once untraced and once with a client
// span per request (the difference is the tracing overhead), then replays
// the requests it sent through the server's public stage functions in
// server order, at the batch size the traced load observed.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "bench.h"
#include "serve/protocol.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/generator.h"

namespace lcbench {
namespace {

constexpr int kConnections = 4;
// Requests each closed-loop connection keeps in flight: 4 x 32 = 128 stays
// inside the server's default 256-entry admission queue.
constexpr size_t kWindow = 32;
// miss_open's ladder of Poisson arrival rates (requests/s, all
// connections together) and the rung whose latency is reported.
constexpr double kOpenRates[] = {3000.0, 6000.0, 9000.0};
constexpr size_t kReferenceRung = 1;
constexpr double kZipfExponent = 1.0;
// Requests are bucketed into windows of this length by send (or due)
// time; reported rates and latencies rank windows by kRateRank and
// kTimeRank (bench.h).
constexpr double kWindowSeconds = 0.2;
constexpr int kReceiveTimeoutUs = 10'000'000;
// Client spans kept per connection in a traced phase. Bounds the memory and
// the span dump of fast workloads (hit_zipf answers ~4M requests in a
// traced half); trace.overhead_pct covers the traced requests only.
constexpr size_t kClientSpansPerConnection = 50'000;

// ---- Client side ---------------------------------------------------------

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n =
          ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }
  // Waits up to `timeout_us` for input, then appends every complete line
  // received to `lines`. False on EOF or error.
  bool Receive(std::vector<std::string>* lines, int64_t timeout_us) {
    pollfd pfd{fd_, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(timeout_us / 1'000'000),
                           static_cast<long>(timeout_us % 1'000'000) * 1000};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t begin = 0;
    for (size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      lines->emplace_back(buffer_, begin, nl - begin);
    }
    buffer_.erase(0, begin);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Where a connection's requests come from, and where their answers go.
// Ids index the source's texts. Each source serves one connection thread.
class Source {
 public:
  virtual ~Source() = default;
  virtual uint32_t Next() = 0;
  virtual const std::string& Text(uint32_t id) const = 0;
  // Records the estimate the server answered for request `id`.
  virtual void Answered(uint32_t id, double estimate) = 0;
};

// Set of 64-bit key fingerprints shared by the miss sources, so no two
// connections ever send the same query. A (vanishingly rare) fingerprint
// collision only drops a fresh query; it can never let a repeat through.
class SeenKeys {
 public:
  bool Insert(uint64_t hash) {
    Shard& shard = shards_[hash % kShards];
    lc::MutexLock lock(&shard.mu);
    return shard.keys.insert(hash).second;
  }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    lc::Mutex mu;
    std::unordered_set<uint64_t> keys LC_GUARDED_BY(mu);
  };
  Shard shards_[kShards];
};

// Fresh QueryGenerator::Generate() draws, deduplicated by CanonicalKey().
// Answers are kept and checked against the reference after the load.
class MissSource : public Source {
 public:
  MissSource(const lc::Database* db, uint64_t seed, SeenKeys* seen)
      : generator_(db, Config(seed)), seen_(seen) {}
  uint32_t Next() override {
    while (true) {
      const lc::Query query = generator_.Generate();
      if (seen_->Insert(lc::Fnv1a64(query.CanonicalKey()))) {
        texts_.push_back(query.Serialize());
        answered_.push_back(kUnanswered);
        return static_cast<uint32_t>(texts_.size() - 1);
      }
    }
  }
  const std::string& Text(uint32_t id) const override { return texts_[id]; }
  void Answered(uint32_t id, double estimate) override {
    answered_[id] = estimate;
  }
  const std::vector<std::string>& texts() const { return texts_; }
  const std::vector<double>& answered() const { return answered_; }
  static constexpr double kUnanswered = -1.0;  // Estimates are >= 1 row.

 private:
  static lc::GeneratorConfig Config(uint64_t seed) {
    lc::GeneratorConfig config;
    config.seed = seed;
    return config;
  }
  lc::QueryGenerator generator_;
  SeenKeys* seen_;
  std::vector<std::string> texts_;
  std::vector<double> answered_;
};

// Zipf-distributed picks from a fixed template set; answers are checked
// against the templates' reference estimates as they arrive.
class HitSource : public Source {
 public:
  HitSource(const std::vector<std::string>* templates,
            const std::vector<double>* expected, uint64_t seed)
      : templates_(templates), expected_(expected), rng_(seed) {
    double total = 0.0;
    for (size_t rank = 0; rank < templates->size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& value : cdf_) value /= total;
  }
  uint32_t Next() override {
    const double u = rng_.UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(std::min(rank, cdf_.size() - 1));
  }
  const std::string& Text(uint32_t id) const override {
    return (*templates_)[id];
  }
  void Answered(uint32_t id, double estimate) override {
    mismatches_ += estimate != (*expected_)[id] ? 1 : 0;
  }
  uint64_t mismatches() const { return mismatches_; }

 private:
  const std::vector<std::string>* templates_;
  const std::vector<double>* expected_;
  lc::Rng rng_;
  std::vector<double> cdf_;
  uint64_t mismatches_ = 0;
};

// Parses "EST <estimate> us=<server latency> cache=<hit|miss>".
bool ParseEst(std::string_view line, double* estimate, double* server_us) {
  if (!lc::StartsWith(line, "EST ")) return false;
  line.remove_prefix(4);
  const size_t space = line.find(' ');
  if (space == std::string_view::npos ||
      !lc::ParseDouble(line.substr(0, space), estimate).ok()) {
    return false;
  }
  line.remove_prefix(space + 1);
  const size_t end = line.find(' ');
  return lc::StartsWith(line, "us=") && end != std::string_view::npos &&
         lc::ParseDouble(line.substr(3, end - 3), server_us).ok();
}

// What one connection saw. Latencies are kept per kWindowSeconds window
// of send time, as floats, so memory stays small.
struct ConnLog {
  std::vector<std::vector<float>> window_us;  // OK answers, by window.
  std::vector<float> overhead_us;  // Client latency minus us= (traced).
  std::vector<float> lag_us;       // How late the sender ran.
  std::vector<uint32_t> first_ids;  // Answered ids kept for the replay.
  double latency_sum_us = 0.0;
  uint64_t sent = 0, ok = 0, failed = 0, unanswered = 0;
  std::string error;
};

struct Pending {
  uint32_t id;
  Clock::time_point start;  // Send time (closed) or due time (open).
  uint32_t span;
};

// Books one answer line for `pending`.
void Record(const std::string& line, const Pending& pending,
            Clock::time_point origin, Clock::time_point now, bool traced,
            size_t keep_ids, Source* source, ConnLog* log) {
  double estimate = 0.0, server_us = 0.0;
  if (!ParseEst(line, &estimate, &server_us)) {
    ++log->failed;  // An ERR line: the request failed, the run goes on.
    return;
  }
  source->Answered(pending.id, estimate);
  const double latency = MicrosBetween(pending.start, now);
  // Bucketed by send (closed loop) or due (open loop) time.
  const double started_us = MicrosBetween(origin, pending.start);
  const size_t window =
      started_us < 0 ? 0
                     : static_cast<size_t>(started_us * 1e-6 / kWindowSeconds);
  if (window < log->window_us.size()) {
    log->window_us[window].push_back(static_cast<float>(latency));
  }
  if (traced) log->overhead_us.push_back(static_cast<float>(latency - server_us));
  if (log->first_ids.size() < keep_ids) log->first_ids.push_back(pending.id);
  log->latency_sum_us += latency;
  ++log->ok;
}

struct LoopSettings {
  std::string path;
  Clock::time_point origin;
  bool traced = false;
  size_t keep_ids = 0;
};

// Closed loop: each connection keeps kWindow requests in flight and sends
// one more for every answer, until `deadline`; then drains.
void ClosedLoopConnection(const LoopSettings& settings, Source* source,
                          Clock::time_point deadline, Tracer* tracer,
                          ConnLog* log) {
  Client client;
  if (!client.Connect(settings.path)) {
    log->error = "connect failed: " + std::string(std::strerror(errno));
    return;
  }
  std::deque<Pending> inflight;
  std::string out;
  std::vector<std::string> lines;
  const auto refill = [&](Clock::time_point received) {
    if (Clock::now() >= deadline) return true;
    out.clear();
    const size_t first = inflight.size();
    while (inflight.size() < kWindow) {
      const uint32_t id = source->Next();
      out += source->Text(id);
      out += '\n';
      inflight.push_back({id, {}, 0});
    }
    const Clock::time_point now = Clock::now();
    for (size_t i = first; i < inflight.size(); ++i) {
      inflight[i].start = now;
      inflight[i].span =
          tracer->Begin("client.request", log->sent + i - first, 0);
    }
    if (received != Clock::time_point{}) {
      log->lag_us.push_back(static_cast<float>(MicrosBetween(received, now)));
    }
    log->sent += inflight.size() - first;
    return client.Send(out);
  };
  if (!refill({})) {
    log->error = "send failed";
    return;
  }
  while (!inflight.empty()) {
    lines.clear();
    if (!client.Receive(&lines, kReceiveTimeoutUs) ||
        (lines.empty() && Clock::now() > deadline +
                              std::chrono::microseconds(kReceiveTimeoutUs))) {
      log->error = "connection closed or timed out with requests in flight";
      break;
    }
    const Clock::time_point now = Clock::now();
    for (const std::string& line : lines) {
      const Pending pending = inflight.front();
      inflight.pop_front();
      tracer->End(pending.span);
      Record(line, pending, settings.origin, now, settings.traced,
             settings.keep_ids, source, log);
    }
    if (!lines.empty() && !refill(now)) {
      log->error = "send failed";
      break;
    }
  }
  log->unanswered += inflight.size();
}

// Open loop: requests are due on a Poisson schedule fixed in advance and
// sent when due, whatever the server's state; latency counts from the due
// time. Waits at most `drain_s` after the last due time for answers.
void OpenLoopConnection(const LoopSettings& settings, Source* source,
                        const std::vector<uint32_t>& ids,
                        const std::vector<double>& due_us, double drain_s,
                        Tracer* tracer, ConnLog* log) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // Wake on time for the schedule.
  Client client;
  if (!client.Connect(settings.path)) {
    log->error = "connect failed: " + std::string(std::strerror(errno));
    return;
  }
  const auto due = [&](size_t i) {
    return settings.origin + std::chrono::nanoseconds(static_cast<int64_t>(
                                 due_us[i] * 1000.0));
  };
  const Clock::time_point give_up =
      (due_us.empty() ? settings.origin : due(due_us.size() - 1)) +
      std::chrono::microseconds(static_cast<int64_t>(drain_s * 1e6));
  std::deque<Pending> inflight;
  std::string out;
  std::vector<std::string> lines;
  size_t next = 0;
  while (next < ids.size() || !inflight.empty()) {
    Clock::time_point now = Clock::now();
    out.clear();
    for (; next < ids.size() && due(next) <= now; ++next) {
      out += source->Text(ids[next]);
      out += '\n';
      inflight.push_back(
          {ids[next], due(next), tracer->Begin("client.request", next, 0)});
      log->lag_us.push_back(static_cast<float>(MicrosBetween(due(next), now)));
      ++log->sent;
    }
    if (!out.empty() && !client.Send(out)) {
      log->error = "send failed";
      break;
    }
    if (now > give_up) {
      log->error = "answers still missing after the drain period";
      break;
    }
    const Clock::time_point wake = next < ids.size() ? due(next) : give_up;
    const int64_t wait_us = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::microseconds>(wake - now)
               .count());
    lines.clear();
    if (!client.Receive(&lines, wait_us)) {
      log->error = "connection closed with requests in flight";
      break;
    }
    now = Clock::now();
    for (const std::string& line : lines) {
      const Pending pending = inflight.front();
      inflight.pop_front();
      tracer->End(pending.span);
      Record(line, pending, settings.origin, now, settings.traced,
             settings.keep_ids, source, log);
    }
  }
  log->unanswered += inflight.size() + (ids.size() - next);
}

// ---- One measured load phase ---------------------------------------------

struct Phase {
  std::vector<ConnLog> logs;
  double seconds = 0.0;
  double cpu_us = 0.0;
  lc::serve::Stats stats_before, stats_after;
  lc::serve::net::SocketServer::NetStats net_before, net_after;
  lc::CacheCounters cache_before, cache_after;

  uint64_t Attempted() const {
    uint64_t total = 0;
    for (const ConnLog& log : logs) total += log.sent;
    return total;
  }
  uint64_t Ok() const {
    uint64_t total = 0;
    for (const ConnLog& log : logs) total += log.ok;
    return total;
  }
  double MeanLatencyUs() const {
    double sum = 0.0;
    for (const ConnLog& log : logs) sum += log.latency_sum_us;
    return Ok() == 0 ? 0.0 : sum / Ok();
  }
  // The OK latencies of each window, all connections together. Only
  // windows entirely inside the measured span exist.
  std::vector<std::vector<float>> Windows() const {
    std::vector<std::vector<float>> windows(logs.front().window_us.size());
    for (const ConnLog& log : logs) {
      for (size_t w = 0; w < windows.size(); ++w) {
        windows[w].insert(windows[w].end(), log.window_us[w].begin(),
                          log.window_us[w].end());
      }
    }
    return windows;
  }
  size_t Samples() const {
    size_t total = 0;
    for (const auto& window : Windows()) total += window.size();
    return total;
  }
  // Answers meeting `limit_us` per second, at rank `rank` over windows.
  double WindowedRate(double limit_us, double rank = kRateRank) const {
    std::vector<double> rates;
    for (const auto& window : Windows()) {
      const auto met = std::count_if(window.begin(), window.end(),
                                     [&](float us) { return us <= limit_us; });
      rates.push_back(static_cast<double>(met) / kWindowSeconds);
    }
    return lc::Quantile(rates, rank);
  }
  // Each window's latency quantile `q`, at rank `rank` over windows.
  double WindowedLatency(double q, double rank = kTimeRank) const {
    std::vector<double> values;
    for (const auto& window : Windows()) {
      if (!window.empty()) {
        values.push_back(
            lc::Quantile(std::vector<double>(window.begin(), window.end()), q));
      }
    }
    return values.empty() ? INFINITY : lc::Quantile(values, rank);
  }
};

// Joins phases run one after another into one: windows are appended,
// counters summed, the counter snapshots span first to last.
Phase Merge(std::vector<Phase> parts) {
  Phase all = std::move(parts.front());
  for (size_t i = 1; i < parts.size(); ++i) {
    Phase& part = parts[i];
    for (size_t c = 0; c < all.logs.size(); ++c) {
      ConnLog& to = all.logs[c];
      ConnLog& from = part.logs[c];
      const auto append = [](auto* dst, const auto& src) {
        dst->insert(dst->end(), src.begin(), src.end());
      };
      append(&to.window_us, from.window_us);
      append(&to.overhead_us, from.overhead_us);
      append(&to.lag_us, from.lag_us);
      to.latency_sum_us += from.latency_sum_us;
      to.sent += from.sent;
      to.ok += from.ok;
      to.failed += from.failed;
      to.unanswered += from.unanswered;
      if (to.error.empty()) to.error = from.error;
    }
    all.seconds += part.seconds;
    all.cpu_us += part.cpu_us;
    all.stats_after = part.stats_after;
    all.net_after = part.net_after;
    all.cache_after = part.cache_after;
  }
  return all;
}

template <typename Body>
Phase RunPhase(ServingState& state, bool traced, size_t keep_ids,
               Tracer* tracer, double seconds, Body body) {
  Phase phase;
  phase.seconds = seconds;
  phase.logs.resize(kConnections);
  for (ConnLog& log : phase.logs) {
    log.window_us.resize(std::max<size_t>(
        1, static_cast<size_t>(seconds / kWindowSeconds + 1e-9)));
  }
  phase.stats_before = state.server->GetStats();
  phase.net_before = state.net->net_stats();
  phase.cache_before = state.estimator->cache_counters();
  std::vector<Tracer> tracers(kConnections,
                              Tracer(traced, kClientSpansPerConnection));
  LoopSettings settings;
  settings.path = state.socket_path;
  settings.traced = traced;
  settings.keep_ids = keep_ids / kConnections + 1;
  const double cpu_start = ProcessCpuMicros();
  settings.origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      body(static_cast<size_t>(c), settings,
           &tracers[static_cast<size_t>(c)],
           &phase.logs[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.cpu_us = ProcessCpuMicros() - cpu_start;
  phase.stats_after = state.server->GetStats();
  phase.net_after = state.net->net_stats();
  phase.cache_after = state.estimator->cache_counters();
  for (const Tracer& t : tracers) tracer->Absorb(t);
  return phase;
}

Phase RunClosedPhase(ServingState& state, const std::vector<Source*>& sources,
                     double seconds, bool traced, size_t keep_ids,
                     Tracer* tracer) {
  return RunPhase(
      state, traced, keep_ids, tracer, seconds,
      [&](size_t c, const LoopSettings& settings, Tracer* t, ConnLog* log) {
        std::this_thread::sleep_until(settings.origin);
        ClosedLoopConnection(
            settings, sources[c],
            settings.origin + std::chrono::microseconds(
                                  static_cast<int64_t>(seconds * 1e6)),
            t, log);
      });
}

Phase RunOpenPhase(ServingState& state, const std::vector<Source*>& sources,
                   double rate, double seconds, uint64_t seed, uint64_t slice,
                   bool traced, size_t keep_ids, Tracer* tracer) {
  std::vector<std::vector<double>> schedules(kConnections);
  std::vector<std::vector<uint32_t>> ids(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    lc::Rng rng(StreamSeed(seed, Stream::kArrivals, slice * kConnections + c));
    const double per_conn = rate / kConnections;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.UniformDouble()) / per_conn;
      if (t >= seconds) break;
      schedules[c].push_back(t * 1e6);
      ids[c].push_back(sources[c]->Next());
    }
  }
  return RunPhase(
      state, traced, keep_ids, tracer, seconds,
      [&](size_t c, const LoopSettings& settings, Tracer* t, ConnLog* log) {
        OpenLoopConnection(settings, sources[c], ids[c], schedules[c],
                           /*drain_s=*/2.0, t, log);
      });
}

// ---- Correctness ---------------------------------------------------------

// Reference estimates for query texts: annotate (LabelQuery without
// executor, as the server does) and score with a cache-less EstimateAll
// over the serving model. `inject_fault` perturbs the first one by one ulp.
std::vector<double> ReferenceForTexts(ServingState& state,
                                      const std::vector<std::string>& texts,
                                      bool inject_fault) {
  lc::MscnEstimator direct(&state.featurizer, state.model.get(), "direct",
                           /*cache_capacity=*/0);
  std::vector<double> expected;
  constexpr size_t kChunk = 16384;
  for (size_t begin = 0; begin < texts.size(); begin += kChunk) {
    const size_t end = std::min(texts.size(), begin + kChunk);
    std::vector<lc::LabeledQuery> labeled(end - begin);
    lc::ParallelFor(begin, end, 256, [&](size_t i) {
      lc::StatusOr<lc::Query> query = lc::Query::Deserialize(texts[i]);
      if (query.ok()) {
        labeled[i - begin] = lc::LabelQuery(*query, nullptr, state.samples);
      }
    });
    std::vector<const lc::LabeledQuery*> pointers;
    for (const lc::LabeledQuery& query : labeled) pointers.push_back(&query);
    const std::vector<double> chunk = direct.EstimateAll(pointers, 64);
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  if (inject_fault && !expected.empty()) {
    expected[0] = std::nextafter(expected[0], 0.0);
  }
  return expected;
}

// Folds a phase's outcome counts into `verdict`. `mismatches` counts
// answers that differ from the reference.
void CountPhase(const Phase& phase, uint64_t mismatches, Verdict* verdict) {
  for (const ConnLog& log : phase.logs) {
    verdict->attempted += log.sent;
    verdict->failed += log.failed + log.unanswered;
    if (!log.error.empty()) verdict->Problem("connection: " + log.error);
  }
  verdict->mismatches += mismatches;
}

// Checks a miss phase: every text its sources produced gets a reference
// estimate, and every answer must equal it bit for bit.
void CheckMissPhase(const Options& options, ServingState& state,
                    const Phase& phase, const std::vector<Source*>& sources,
                    Verdict* verdict) {
  uint64_t mismatches = 0;
  for (const Source* source : sources) {
    const auto* miss = static_cast<const MissSource*>(source);
    const std::vector<double> expected =
        ReferenceForTexts(state, miss->texts(), options.inject_fault);
    for (size_t i = 0; i < expected.size(); ++i) {
      const double got = miss->answered()[i];
      mismatches += got != MissSource::kUnanswered && got != expected[i];
    }
  }
  CountPhase(phase, mismatches, verdict);
}

// ---- Traced replay and per-layer metrics ---------------------------------

double DeltaMean(const lc::RunningStat& before, const lc::RunningStat& after) {
  const size_t count = after.count() - before.count();
  return count == 0 ? 0.0 : (after.sum() - before.sum()) / count;
}

// Multiply-adds of one query's forward pass, from the layer shapes
// (computed, not measured): each set element runs a two-layer MLP of
// width h, the output MLP runs on the 3h concatenation.
double ForwardFlops(const lc::FeatureDims& dims, int hidden,
                    const lc::Query& query) {
  const double h = hidden;
  const auto mlp = [&](double in) { return 2.0 * (in * h + h * h); };
  return std::max(1, query.num_tables()) * mlp(dims.table_features) +
         std::max(1, query.num_joins()) * mlp(dims.join_features) +
         std::max<size_t>(1, query.predicates.size()) *
             mlp(dims.predicate_features) +
         2.0 * (3.0 * h * h + h);
}

// Replays `texts` through the serving path's public functions in server
// order and sets the stage metrics. Returns the stage self times (µs per
// request, or per batch for featurize/forward).
std::map<std::string, double> ReplayStages(
    ServingState& state,
    const std::vector<std::string>& texts, size_t batch, Tracer* tracer,
    Metrics* metrics) {
  Tracer replay(true);
  std::vector<lc::LabeledQuery> labeled;
  labeled.reserve(texts.size());
  double flops = 0.0;
  size_t hits = 0;
  for (size_t r = 0; r < texts.size(); ++r) {
    const ScopedSpan request(&replay, "replay.request", r);
    lc::StatusOr<lc::Query> query = lc::Status::Internal("unparsed");
    {
      const ScopedSpan span(&replay, "query.parse", r, request.id());
      lc::StatusOr<std::string> line =
          lc::serve::ParseRequestLine(texts[r]);
      if (line.ok()) query = lc::Query::Deserialize(*line);
    }
    if (!query.ok()) continue;
    {
      const ScopedSpan span(&replay, "query.validate", r, request.id());
      if (!query->Validate(state.db.schema()).ok()) continue;
    }
    std::string key;
    {
      const ScopedSpan span(&replay, "query.key", r, request.id());
      key = query->CanonicalKey();
    }
    double cached = 0.0;
    {
      const ScopedSpan span(&replay, "cache.probe", r, request.id());
      hits += state.estimator->ProbeCache(key, &cached) ? 1 : 0;
    }
    {
      const ScopedSpan span(&replay, "annotate", r, request.id());
      labeled.push_back(lc::LabelQuery(*query, nullptr, state.samples));
    }
    {
      lc::serve::Response response;
      response.estimate = cached;
      const ScopedSpan span(&replay, "protocol.format", r, request.id());
      lc::serve::FormatResponse(response);
    }
    flops += ForwardFlops(state.featurizer.dims(),
                          state.model->config().hidden_units, *query);
  }
  lc::Tape tape;
  std::vector<double> estimates;
  for (size_t begin = 0; begin + batch <= labeled.size(); begin += batch) {
    std::vector<const lc::LabeledQuery*> slice;
    for (size_t i = begin; i < begin + batch; ++i) {
      slice.push_back(&labeled[i]);
    }
    const ScopedSpan request(&replay, "replay.batch", begin);
    lc::MscnBatch mscn_batch;
    {
      const ScopedSpan span(&replay, "featurize", begin, request.id());
      mscn_batch = state.featurizer.MakeBatch(slice, nullptr);
    }
    const ScopedSpan span(&replay, "forward", begin, request.id());
    estimates.clear();
    state.model->Predict(mscn_batch, &tape, &estimates);
  }
  std::map<std::string, double> self;
  for (const auto& [name, stat] : replay.SelfTimes()) self[name] = stat.mean();
  metrics->Set("query.parse_us", self["query.parse"], "us");
  metrics->Set("query.validate_us", self["query.validate"], "us");
  metrics->Set("query.key_us", self["query.key"], "us");
  metrics->Set("cache.probe_us", self["cache.probe"], "us");
  metrics->Set("annotate.us", self["annotate"], "us");
  metrics->Set("featurize.us", self["featurize"], "us");
  metrics->Set("forward.us", self["forward"], "us");
  metrics->Set("nn.flops_per_query",
               labeled.empty() ? 0.0 : flops / labeled.size(), "flop");
  metrics->Note(lc::Format(
      "replay: %zu requests in server order (%zu cache hits on replay), "
      "featurize/forward per batch of %zu; nn.flops_per_query is computed "
      "from layer shapes, not measured",
      texts.size(), hits, batch));
  tracer->Absorb(replay);
  return self;
}

// Per-layer metrics of one traced serve workload: the traced phase's
// counters, the replayed stage times, and the latency accounting.
void ReportServeLayers(ServingState& state,
                       const Phase& untraced, const Phase& traced,
                       const std::vector<std::string>& replay_texts,
                       bool hit_path, Tracer* tracer, Metrics* metrics) {
  const lc::serve::Stats& s0 = traced.stats_before;
  const lc::serve::Stats& s1 = traced.stats_after;
  const double batch_mean = DeltaMean(s0.batch_size, s1.batch_size);
  const size_t batch = std::max<size_t>(
      1, static_cast<size_t>(std::lround(batch_mean)));
  std::map<std::string, double> self =
      ReplayStages(state, replay_texts, batch, tracer, metrics);

  std::vector<double> overhead, lag;
  for (const ConnLog& log : traced.logs) {
    overhead.insert(overhead.end(), log.overhead_us.begin(),
                    log.overhead_us.end());
    lag.insert(lag.end(), log.lag_us.begin(), log.lag_us.end());
  }
  const double queue_wait = DeltaMean(s0.queue_wait_us, s1.queue_wait_us);
  const double lookups = static_cast<double>(traced.cache_after.lookups() -
                                             traced.cache_before.lookups());
  const double hits = static_cast<double>(traced.cache_after.hits -
                                          traced.cache_before.hits);
  metrics->Set("net.overhead_p50_us",
               overhead.empty() ? 0.0 : lc::Quantile(overhead, 0.5), "us");
  metrics->Set("net.read_pauses",
               static_cast<double>(traced.net_after.read_pauses -
                                   traced.net_before.read_pauses),
               "count");
  metrics->Set("net.lines_in",
               static_cast<double>(traced.net_after.lines_in -
                                   traced.net_before.lines_in),
               "count");
  metrics->Set("serve.queue_wait_us", queue_wait, "us");
  metrics->Set("serve.service_us",
               DeltaMean(s0.service_latency_us, s1.service_latency_us), "us");
  metrics->Set("serve.batch_mean", batch_mean, "count");
  metrics->Set("serve.model_batches",
               static_cast<double>(s1.model_batches - s0.model_batches),
               "count");
  metrics->Set("serve.rejected_overload",
               static_cast<double>(s1.rejected_overload -
                                   s0.rejected_overload),
               "count");
  metrics->Set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
               "ratio");
  metrics->Set("cache.lookups", lookups, "count");
  metrics->Set("cache.evictions",
               static_cast<double>(traced.cache_after.evictions -
                                   traced.cache_before.evictions),
               "count");
  metrics->Set("loadgen.late_p99_us",
               lag.empty() ? 0.0 : lc::Quantile(lag, 0.99), "us");
  const double requests = static_cast<double>(traced.Attempted());
  metrics->Set("proc.cpu_us_per_req",
               requests > 0 ? traced.cpu_us / requests : 0.0, "us");

  // Tracing overhead: the same load untraced and traced, back to back.
  const double qps_untraced = untraced.Ok() / untraced.seconds;
  const double qps_traced = traced.Ok() / traced.seconds;
  metrics->Set("trace.overhead_pct",
               qps_untraced > 0 ? 100.0 * (qps_untraced - qps_traced) /
                                      qps_untraced
                                : 0.0,
               "%");

  // Stage times must add up: the client latency is transport overhead
  // (client latency minus the server's us= field) plus the server's time.
  // Lane-served requests spend it in queue_wait (admission to pop, which
  // includes the pre-queue stages) and the batch's featurize + forward;
  // cache hits spend it in parse, validate, key and probe.
  const double latency = traced.MeanLatencyUs();
  const double transport = overhead.empty() ? 0.0 : lc::Mean(overhead);
  const double pre_queue = self["query.parse"] + self["query.validate"] +
                           self["query.key"] + self["cache.probe"];
  double accounted = transport;
  std::string breakdown;
  if (hit_path) {
    accounted += pre_queue;
    breakdown = lc::Format("parse+validate+key+probe %.1f", pre_queue);
  } else {
    accounted += queue_wait + self["featurize"] + self["forward"];
    breakdown = lc::Format(
        "queue_wait %.1f (of which parse+validate+key+probe+annotate %.1f) "
        "+ featurize %.1f + forward %.1f (batch %zu)",
        queue_wait, pre_queue + self["annotate"], self["featurize"],
        self["forward"], batch);
  }
  metrics->Set("trace.latency_mean_us", latency, "us");
  metrics->Set("trace.unaccounted_us", latency - accounted, "us");
  metrics->Note(lc::Format(
      "accounting: mean latency %.1f us = transport %.1f + %s + "
      "unaccounted %.1f",
      latency, transport, breakdown.c_str(), latency - accounted));
  metrics->Note(lc::Format(
      "tracing overhead: %.0f qps untraced vs %.0f qps traced", qps_untraced,
      qps_traced));
}

void ReportServeEndToEnd(const Phase& phase, double qps, double slo_qps,
                         uint64_t attempted, uint64_t ok, Metrics* metrics) {
  metrics->Set("qps", qps, "1/s");
  metrics->Set("lat_p50_us", phase.WindowedLatency(0.5), "us");
  metrics->Set("success_frac",
               attempted == 0 ? 0.0 : static_cast<double>(ok) / attempted,
               "ratio");
  metrics->Set("slo_qps", slo_qps, "1/s");
  metrics->Note(lc::Format(
      "latency: %zu samples in %zu windows of %.1f s; median window: p50 "
      "%.1f us, p90 %.1f us, p99 %.1f us (context, not gated); median "
      "window rate %.0f/s",
      phase.Samples(), phase.Windows().size(), kWindowSeconds,
      phase.WindowedLatency(0.5, 0.5), phase.WindowedLatency(0.9, 0.5),
      phase.WindowedLatency(0.99, 0.5), phase.WindowedRate(INFINITY, 0.5)));
}

std::vector<Source*> Pointers(
    const std::vector<std::unique_ptr<Source>>& owned) {
  std::vector<Source*> pointers;
  for (const auto& source : owned) pointers.push_back(source.get());
  return pointers;
}

std::vector<std::unique_ptr<Source>> MissSources(ServingState& state,
                                                 uint64_t seed,
                                                 uint64_t phase,
                                                 SeenKeys* seen) {
  std::vector<std::unique_ptr<Source>> sources;
  for (uint64_t c = 0; c < kConnections; ++c) {
    sources.push_back(std::make_unique<MissSource>(
        &state.db,
        StreamSeed(seed, Stream::kMissQueries, phase * kConnections + c),
        seen));
  }
  return sources;
}

// The texts a phase answered first, round-robin across connections, for
// the stage replay.
std::vector<std::string> ReplayTexts(const Phase& phase,
                                     const std::vector<Source*>& sources,
                                     size_t count) {
  std::vector<std::string> texts;
  for (size_t i = 0; texts.size() < count; ++i) {
    bool any = false;
    for (size_t c = 0; c < phase.logs.size() && texts.size() < count; ++c) {
      if (i < phase.logs[c].first_ids.size()) {
        texts.push_back(sources[c]->Text(phase.logs[c].first_ids[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return texts;
}

}  // namespace

// ---- Workloads -----------------------------------------------------------

uint64_t ServeOnce(ServingState& state, const std::vector<std::string>& texts,
                   const std::vector<double>& expected, Verdict* verdict) {
  Client client;
  if (!client.Connect(state.socket_path)) {
    verdict->Problem("connect failed: " + std::string(std::strerror(errno)));
    return 0;
  }
  verdict->attempted += texts.size();
  const Clock::time_point start = Clock::now();
  std::vector<std::string> lines;
  size_t sent = 0, received = 0;
  uint64_t ok = 0;
  while (received < texts.size()) {
    std::string out;
    for (; sent < texts.size() && sent - received < kWindow; ++sent) {
      out += texts[sent] + "\n";
    }
    lines.clear();
    if ((!out.empty() && !client.Send(out)) ||
        !client.Receive(&lines, kReceiveTimeoutUs) ||
        SecondsSince(start) * 1e6 > kReceiveTimeoutUs) {
      verdict->Problem("connection closed or timed out with requests in "
                       "flight");
      break;
    }
    for (const std::string& line : lines) {
      double estimate = 0.0, server_us = 0.0;
      if (!ParseEst(line, &estimate, &server_us)) {
        ++verdict->failed;
      } else if (estimate != expected[received]) {
        ++verdict->mismatches;
      } else {
        ++ok;
      }
      ++received;
    }
  }
  verdict->failed += texts.size() - received;
  return ok;
}

namespace {

// Untraced serve loads run in kRounds rounds. Between rounds the serving
// corpus is labelled and trained again, so label_s and train_s are medians
// of samples spread over the whole run, and every statistic sees the
// machine's slow spells in proportion.
constexpr int kRounds = 4;

template <typename RoundFn>
Phase RunRounds(const Options& options, ServingState& state,
                Verdict* verdict, RoundFn round) {
  std::vector<Phase> parts;
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) RemeasureLabelAndTrain(options, state, verdict);
    parts.push_back(round(r, options.seconds / kRounds));
  }
  return Merge(std::move(parts));
}

}  // namespace

void RunMissClosed(const Options& options, ServingState& state,
                   Metrics* metrics, Verdict* verdict, Tracer* tracer) {
  SeenKeys seen;
  const auto round = [&](uint64_t index, double seconds, bool traced) {
    auto owned = MissSources(state, options.seed, index, &seen);
    Phase phase =
        RunClosedPhase(state, Pointers(owned), seconds, traced,
                       traced ? options.sizes.replay_requests : 0, tracer);
    CheckMissPhase(options, state, phase, Pointers(owned), verdict);
    return std::make_pair(std::move(phase), std::move(owned));
  };
  if (!options.trace) {
    const Phase phase =
        RunRounds(options, state, verdict, [&](int r, double seconds) {
          return round(r, seconds, false).first;
        });
    ReportServeEndToEnd(phase, phase.WindowedRate(INFINITY),
                        phase.WindowedRate(kLatencyLimitUs),
                        phase.Attempted(), phase.Ok(), metrics);
    return;
  }
  const double seconds = options.seconds / 2;
  const Phase untraced = round(0, seconds, false).first;
  const auto [traced, owned] = round(1, seconds, true);
  ReportServeLayers(state, untraced, traced,
                    ReplayTexts(traced, Pointers(owned),
                                options.sizes.replay_requests),
                    /*hit_path=*/false, tracer, metrics);
}

void RunMissOpen(const Options& options, ServingState& state,
                 Metrics* metrics, Verdict* verdict, Tracer* tracer) {
  SeenKeys seen;
  uint64_t slice = 0;
  const auto run = [&](size_t rung, double seconds, bool traced) {
    auto owned = MissSources(state, options.seed, slice, &seen);
    Phase phase = RunOpenPhase(
        state, Pointers(owned), kOpenRates[rung], seconds, options.seed,
        slice, traced,
        traced ? options.sizes.replay_requests : 0, tracer);
    ++slice;
    CheckMissPhase(options, state, phase, Pointers(owned), verdict);
    return std::make_pair(std::move(phase), std::move(owned));
  };
  if (options.trace) {
    // Untraced and traced halves at the reference rate.
    const double seconds = options.seconds / 2;
    const Phase untraced = run(kReferenceRung, seconds, false).first;
    const auto [traced, owned] = run(kReferenceRung, seconds, true);
    ReportServeLayers(state, untraced, traced,
                      ReplayTexts(traced, Pointers(owned),
                                  options.sizes.replay_requests),
                      /*hit_path=*/false, tracer, metrics);
    return;
  }
  // The ladder is interleaved: kRounds cycles through the rungs, so every
  // rung samples the whole run.
  constexpr size_t kRungs = std::size(kOpenRates);
  const double slice_seconds = options.seconds / (kRounds * kRungs);
  std::vector<std::vector<Phase>> slices(kRungs);
  for (int cycle = 0; cycle < kRounds; ++cycle) {
    if (cycle > 0) RemeasureLabelAndTrain(options, state, verdict);
    for (size_t rung = 0; rung < kRungs; ++rung) {
      slices[rung].push_back(run(rung, slice_seconds, false).first);
    }
  }
  double slo_qps = 0.0;
  uint64_t attempted = 0, ok = 0;
  std::vector<Phase> rungs;
  for (size_t rung = 0; rung < kRungs; ++rung) {
    rungs.push_back(Merge(std::move(slices[rung])));
    const Phase& phase = rungs.back();
    const double achieved = phase.Ok() / phase.seconds;
    const double p90 = phase.WindowedLatency(0.9);
    // A rung meets the limit when every request was answered and the p90
    // stayed within it (at rank kTimeRank over windows, like every time);
    // a growing backlog shows in every window.
    const bool meets =
        phase.Ok() == phase.Attempted() && p90 <= kLatencyLimitUs;
    if (meets) slo_qps = achieved;
    attempted += phase.Attempted();
    ok += phase.Ok();
    std::vector<double> lag;
    for (const ConnLog& log : phase.logs) {
      lag.insert(lag.end(), log.lag_us.begin(), log.lag_us.end());
    }
    metrics->Note(lc::Format(
        "rung %.0f/s: achieved %.1f/s; median window: p50 %.1f us p90 "
        "%.1f us p99 %.1f us (%zu samples); sender late p50 %.1f us p99 "
        "%.1f us; %s",
        kOpenRates[rung], achieved, phase.WindowedLatency(0.5, 0.5),
        phase.WindowedLatency(0.9, 0.5),
        phase.WindowedLatency(0.99, 0.5), phase.Samples(),
        lag.empty() ? 0.0 : lc::Quantile(lag, 0.5),
        lag.empty() ? 0.0 : lc::Quantile(lag, 0.99),
        meets ? "meets limit" : "misses limit"));
  }
  const Phase& reference = rungs[kReferenceRung];
  ReportServeEndToEnd(reference, reference.Ok() / reference.seconds, slo_qps,
                      attempted, ok, metrics);
}

void RunHitZipf(const Options& options, ServingState& state,
                Metrics* metrics, Verdict* verdict, Tracer* tracer) {
  // Templates: distinct generated queries, all of which fit the cache.
  SeenKeys seen;
  MissSource generator(&state.db,
                       StreamSeed(options.seed, Stream::kTemplates), &seen);
  std::vector<std::string> templates;
  for (size_t i = 0; i < options.sizes.hit_templates; ++i) {
    templates.push_back(generator.Text(generator.Next()));
  }
  const std::vector<double> expected =
      ReferenceForTexts(state, templates, options.inject_fault);

  // Warm the cache over the socket: every template once, checked too.
  ServeOnce(state, templates, expected, verdict);

  struct HitPhase {
    Phase phase;
    std::vector<std::unique_ptr<HitSource>> owned;
    std::vector<Source*> sources;
  };
  const auto run = [&](uint64_t phase_index, double seconds, bool traced) {
    HitPhase hit;
    for (int c = 0; c < kConnections; ++c) {
      hit.owned.push_back(std::make_unique<HitSource>(
          &templates, &expected,
          StreamSeed(options.seed, Stream::kZipfPicks,
                     phase_index * kConnections + c)));
      hit.sources.push_back(hit.owned.back().get());
    }
    hit.phase = RunClosedPhase(state, hit.sources, seconds, traced,
                               traced ? options.sizes.replay_requests : 0,
                               tracer);
    uint64_t mismatches = 0;
    for (const auto& source : hit.owned) mismatches += source->mismatches();
    CountPhase(hit.phase, mismatches, verdict);
    return hit;
  };
  if (!options.trace) {
    const Phase phase =
        RunRounds(options, state, verdict, [&](int r, double seconds) {
          return std::move(run(r, seconds, false).phase);
        });
    ReportServeEndToEnd(phase, phase.WindowedRate(INFINITY),
                        phase.WindowedRate(kLatencyLimitUs),
                        phase.Attempted(), phase.Ok(), metrics);
    return;
  }
  const double seconds = options.seconds / 2;
  const HitPhase untraced = run(0, seconds, false);
  const HitPhase traced = run(1, seconds, true);
  ReportServeLayers(state, untraced.phase, traced.phase,
                    ReplayTexts(traced.phase, traced.sources,
                                options.sizes.replay_requests),
                    /*hit_path=*/true, tracer, metrics);
}

}  // namespace lcbench
