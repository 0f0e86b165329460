// Closed-loop load generator for the serving front-end: C client threads
// submit query text to a live EstimatorServer and measure per-request
// latency (p50/p95/p99) and throughput, with the estimator result cache on
// vs. off. The request stream draws from a fixed set of distinct queries,
// so the cache-on run converges to the warm-hit fast path the way real
// optimizer traffic (repeating templates) does.
//
// Also the end-to-end determinism gate for the serving path: every distinct
// query's server estimate is LC_CHECKed bit-identical to a direct
// MscnEstimator::EstimateAll over the same queries (see
// docs/ARCHITECTURE.md, "Serving"). Recorded in BENCH_pr4_serve.json.
//
// Retrain-during-load mode (PR 5): repeats the cache-off load while a
// copy-train-swap retrain runs mid-flight (Trainer::TrainClone in the
// background + MscnEstimator::SwapModel via the server's ADMIN RETRAIN
// verb — no request ever blocks on training). Requests are bucketed into
// steady-state vs during-retrain and the p99 gap between the buckets is
// the headline number of BENCH_pr5_swap.json. A separate cache-on pass
// checks lazy stale-entry retirement and the post-swap bit-match gate.
//
// Socket-transport mode (PR 6): `serve_load --transport=socket` drives the
// same workload through the real network stack (serve/net: unix-domain
// socket, epoll event loop, line framing) instead of in-process HandleLine.
// Hundreds of concurrent connections (LC_SERVE_LOAD_CONNS, default 256)
// each keep a pipelined window of requests on the wire
// (LC_SERVE_LOAD_PIPELINE, default 8), and EVERY response is gated
// bit-identical to a direct EstimateAll — the transport cannot change the
// bits. Recorded in BENCH_pr6_socket.json.
//
// Multi-loop sweep (PR 8): LC_SERVE_LOAD_LOOPS is a comma list of shard
// counts ("1,2,4"); socket mode reruns the whole load at each count with
// the transport sharded across that many event-loop threads, keeping the
// bit-match gate, and reports the per-loop connection division. Recorded
// in BENCH_pr8_loops.json.
//
// Knobs: LC_SERVE_LOAD_REQUESTS (default 20000), LC_SERVE_LOAD_CLIENTS (8),
// LC_SERVE_LOAD_DISTINCT (512), LC_SERVE_LOAD_RETRAIN (1 = run the retrain
// mode), LC_SERVE_LOAD_CONNS (256), LC_SERVE_LOAD_PIPELINE (8) and
// LC_SERVE_LOAD_LOOPS ("1") for --transport=socket,
// LC_SERVE_LOAD_RETRAIN_QUERIES (2000),
// LC_SERVE_LOAD_RETRAIN_EPOCHS (2).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "serve/net/socket_server.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/timer.h"

namespace {

struct LoadResult {
  double seconds = 0.0;
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  lc::serve::Stats stats;
  lc::CacheCounters cache;
};

LoadResult RunLoad(lc::MscnEstimator* estimator, const lc::Schema& schema,
                   const lc::SampleSet& samples,
                   const std::vector<std::string>& texts,
                   size_t total_requests, int clients) {
  lc::serve::EstimatorServer server(estimator, &schema, &samples);
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(clients));

  lc::WallTimer wall;
  std::vector<std::thread> threads;
  for (int client = 0; client < clients; ++client) {
    threads.emplace_back([&, client] {
      std::vector<double>& mine = latencies[static_cast<size_t>(client)];
      const size_t begin = total_requests * static_cast<size_t>(client) /
                           static_cast<size_t>(clients);
      const size_t end = total_requests * static_cast<size_t>(client + 1) /
                         static_cast<size_t>(clients);
      mine.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        // Deterministic per-request pick, uncorrelated across clients.
        const size_t pick =
            (i * 2654435761ULL + static_cast<size_t>(client) * 97ULL) %
            texts.size();
        lc::WallTimer timer;
        const std::string line = server.HandleLine(texts[pick]);
        mine.push_back(timer.Seconds() * 1e6);
        LC_CHECK(lc::serve::ParseEstimate(line).ok())
            << "request rejected under load: " << line;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  result.seconds = wall.Seconds();
  result.stats = server.GetStats();
  result.cache = estimator->cache_counters();
  server.Shutdown();

  std::vector<double> all;
  all.reserve(total_requests);
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.throughput_qps = static_cast<double>(all.size()) / result.seconds;
  result.p50_us = lc::Quantile(all, 0.50);
  result.p95_us = lc::Quantile(all, 0.95);
  result.p99_us = lc::Quantile(all, 0.99);
  result.mean_us = lc::Mean(all);
  return result;
}

// One retrain-during-load run: closed-loop clients submit continuously
// while a controller thread retrains the model mid-run; each request is
// bucketed by whether the retrain was in flight when it ran. Requests that
// overlap the retrain window at either end are counted as "during" — the
// conservative choice for the stall we are trying to expose.
struct RetrainLoadResult {
  double steady_p50_us = 0.0;
  double steady_p99_us = 0.0;
  double during_p50_us = 0.0;
  double during_p99_us = 0.0;
  double during_max_us = 0.0;
  size_t steady_count = 0;
  size_t during_count = 0;
  size_t shed = 0;  // Responses that were not estimates.
  double retrain_seconds = 0.0;
  lc::serve::Stats stats;
};

RetrainLoadResult RunRetrainLoad(
    lc::MscnEstimator* estimator, const lc::Schema& schema,
    const lc::SampleSet& samples, const std::vector<std::string>& texts,
    int clients,
    const std::function<void(lc::serve::EstimatorServer&)>& retrain) {
  lc::serve::EstimatorServer server(estimator, &schema, &samples);

  std::atomic<bool> retraining{false};
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> steady(static_cast<size_t>(clients));
  std::vector<std::vector<double>> during(static_cast<size_t>(clients));
  std::atomic<size_t> shed{0};

  std::vector<std::thread> threads;
  for (int client = 0; client < clients; ++client) {
    threads.emplace_back([&, client] {
      size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const size_t pick =
            (i++ * 2654435761ULL + static_cast<size_t>(client) * 97ULL) %
            texts.size();
        const bool before = retraining.load(std::memory_order_acquire);
        lc::WallTimer timer;
        const std::string line = server.HandleLine(texts[pick]);
        const double us = timer.Seconds() * 1e6;
        const bool after = retraining.load(std::memory_order_acquire);
        if (!lc::serve::ParseEstimate(line).ok()) {
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto& bucket = (before || after)
                           ? during[static_cast<size_t>(client)]
                           : steady[static_cast<size_t>(client)];
        bucket.push_back(us);
      }
    });
  }

  // Controller: sample steady state, retrain, sample a tail, stop.
  RetrainLoadResult result;
  {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    lc::WallTimer retrain_timer;
    retraining.store(true, std::memory_order_release);
    retrain(server);
    retraining.store(false, std::memory_order_release);
    result.retrain_seconds = retrain_timer.Seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    done.store(true, std::memory_order_release);
  }
  for (std::thread& thread : threads) thread.join();
  result.stats = server.GetStats();
  server.Shutdown();

  std::vector<double> steady_all;
  std::vector<double> during_all;
  for (int client = 0; client < clients; ++client) {
    const auto& s = steady[static_cast<size_t>(client)];
    const auto& d = during[static_cast<size_t>(client)];
    steady_all.insert(steady_all.end(), s.begin(), s.end());
    during_all.insert(during_all.end(), d.begin(), d.end());
  }
  result.steady_count = steady_all.size();
  result.during_count = during_all.size();
  result.shed = shed.load();
  if (!steady_all.empty()) {
    result.steady_p50_us = lc::Quantile(steady_all, 0.50);
    result.steady_p99_us = lc::Quantile(steady_all, 0.99);
  }
  if (!during_all.empty()) {
    result.during_p50_us = lc::Quantile(during_all, 0.50);
    result.during_p99_us = lc::Quantile(during_all, 0.99);
    result.during_max_us =
        *std::max_element(during_all.begin(), during_all.end());
  }
  return result;
}

void PrintRetrainRow(const char* name, const RetrainLoadResult& result) {
  std::cout << lc::Format(
      "%-10s steady p50=%9.1fus p99=%9.1fus | during p50=%9.1fus "
      "p99=%9.1fus max=%10.1fus | gap(p99)=%6.1fx shed=%zu "
      "retrain=%.2fs\n",
      name, result.steady_p50_us, result.steady_p99_us, result.during_p50_us,
      result.during_p99_us, result.during_max_us,
      result.steady_p99_us > 0.0 ? result.during_p99_us / result.steady_p99_us
                                 : 0.0,
      result.shed, result.retrain_seconds);
}

void PrintRetrainJson(std::ostream& os, const char* name,
                      const RetrainLoadResult& result) {
  os << lc::Format(
      "    \"%s\": { \"steady_p50_us\": %.1f, \"steady_p99_us\": %.1f, "
      "\"during_p50_us\": %.1f, \"during_p99_us\": %.1f, "
      "\"during_max_us\": %.1f, \"p99_gap\": %.2f, \"steady_count\": %zu, "
      "\"during_count\": %zu, \"shed\": %zu, \"retrain_seconds\": %.2f, "
      "\"swaps\": %llu, \"retrains_started\": %llu }",
      name, result.steady_p50_us, result.steady_p99_us, result.during_p50_us,
      result.during_p99_us, result.during_max_us,
      result.steady_p99_us > 0.0 ? result.during_p99_us / result.steady_p99_us
                                 : 0.0,
      result.steady_count, result.during_count, result.shed,
      result.retrain_seconds,
      static_cast<unsigned long long>(result.stats.model_swaps),
      static_cast<unsigned long long>(result.stats.retrains_started));
}

// ---- Socket transport mode -----------------------------------------------

// One pipelined client connection: a blocking fd plus a buffered line
// reader and the in-flight bookkeeping (which query each outstanding
// request picked, and when its burst hit the wire).
struct PipelinedConn {
  int fd = -1;
  std::string buffer;
  std::vector<size_t> picks;   // Query index per in-flight request, FIFO.
  lc::WallTimer burst_timer;   // Started when the burst was written.
  size_t sent = 0;             // Requests written over the lifetime.

  void Connect(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    LC_CHECK(fd >= 0) << "socket: " << std::strerror(errno);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    LC_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0)
        << "connect(" << path << "): " << std::strerror(errno);
  }
  void SendAll(std::string_view bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      LC_CHECK(n > 0) << "send: " << std::strerror(errno);
      done += static_cast<size_t>(n);
    }
  }
  std::string ReadLine() {
    while (true) {
      const size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      LC_CHECK(n > 0) << "recv: "
                      << (n == 0 ? "unexpected EOF" : std::strerror(errno));
      buffer.append(chunk, static_cast<size_t>(n));
    }
  }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

struct SocketLoadResult {
  double seconds = 0.0;
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  size_t requests = 0;
  lc::serve::Stats stats;
  lc::serve::net::SocketServer::NetStats net;
};

// Closed-loop over the wire: `conns` connections stay established for the
// whole run, partitioned across `clients` worker threads. Each round a
// thread writes a pipelined burst on EVERY one of its connections before
// reading any responses back, so at the burst peak all `conns` connections
// have `pipeline` requests in flight simultaneously. Every response is
// LC_CHECKed bit-identical to `expected` for the query it answered —
// framing, pipelining and the event loop must not change the bits (or the
// order).
SocketLoadResult RunSocketLoad(lc::MscnEstimator* estimator,
                               const lc::Schema& schema,
                               const lc::SampleSet& samples,
                               const std::vector<std::string>& texts,
                               const std::vector<double>& expected,
                               size_t total_requests, int clients,
                               size_t conns, size_t pipeline, int loops) {
  lc::serve::EstimatorServer server(estimator, &schema, &samples);
  const std::string path =
      "/tmp/lc_serve_load_" + std::to_string(::getpid()) + ".sock";
  lc::serve::net::SocketServerConfig net_config;
  net_config.listen = {"unix:" + path};
  net_config.idle_timeout_ms = 0;
  net_config.stats_interval_ms = 0;
  net_config.loops = loops;
  lc::serve::net::SocketServer net(&server, net_config);
  const lc::Status started = net.Start();
  LC_CHECK(started.ok()) << started;

  const size_t rounds =
      std::max<size_t>(1, (total_requests + conns * pipeline - 1) /
                              (conns * pipeline));
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  std::atomic<size_t> bit_mismatches{0};

  lc::WallTimer wall;
  std::vector<std::thread> threads;
  for (int client = 0; client < clients; ++client) {
    threads.emplace_back([&, client] {
      const size_t begin = conns * static_cast<size_t>(client) /
                           static_cast<size_t>(clients);
      const size_t end = conns * static_cast<size_t>(client + 1) /
                         static_cast<size_t>(clients);
      std::vector<PipelinedConn> mine(end - begin);
      for (size_t c = 0; c < mine.size(); ++c) mine[c].Connect(path);
      std::vector<double>& lat = latencies[static_cast<size_t>(client)];
      lat.reserve(rounds * mine.size() * pipeline);

      for (size_t round = 0; round < rounds; ++round) {
        // Burst phase: a pipelined window on every connection first …
        for (size_t c = 0; c < mine.size(); ++c) {
          PipelinedConn& conn = mine[c];
          const size_t conn_id = begin + c;
          std::string burst;
          conn.picks.clear();
          for (size_t k = 0; k < pipeline; ++k) {
            const size_t pick =
                ((conn.sent + k) * 2654435761ULL + conn_id * 97ULL) %
                texts.size();
            conn.picks.push_back(pick);
            burst += texts[pick];
            burst += '\n';
          }
          conn.burst_timer = lc::WallTimer();
          conn.SendAll(burst);
          conn.sent += pipeline;
        }
        // … then the harvest: responses come back in request order.
        for (PipelinedConn& conn : mine) {
          for (const size_t pick : conn.picks) {
            const std::string line = conn.ReadLine();
            lat.push_back(conn.burst_timer.Seconds() * 1e6);
            const lc::StatusOr<double> got = lc::serve::ParseEstimate(line);
            if (!got.ok() || *got != expected[pick]) {
              bit_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
      for (PipelinedConn& conn : mine) conn.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();

  SocketLoadResult result;
  result.seconds = wall.Seconds();
  result.stats = server.GetStats();
  result.net = net.net_stats();
  net.Shutdown();
  server.Shutdown();
  LC_CHECK(bit_mismatches.load() == 0)
      << bit_mismatches.load()
      << " socket responses diverged from direct EstimateAll";

  std::vector<double> all;
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.requests = all.size();
  LC_CHECK(result.requests == rounds * conns * pipeline);
  result.throughput_qps = static_cast<double>(all.size()) / result.seconds;
  result.p50_us = lc::Quantile(all, 0.50);
  result.p95_us = lc::Quantile(all, 0.95);
  result.p99_us = lc::Quantile(all, 0.99);
  result.mean_us = lc::Mean(all);
  return result;
}

void PrintSocketRow(const char* name, const SocketLoadResult& result) {
  std::cout << lc::Format(
      "%-12s %10.0f qps %10.1f us %10.1f us %10.1f us %10.1f us\n", name,
      result.throughput_qps, result.p50_us, result.p95_us, result.p99_us,
      result.mean_us);
}

void PrintSocketJson(std::ostream& os, const std::string& name,
                     const SocketLoadResult& result, size_t conns,
                     size_t pipeline, int loops) {
  std::string loop_conns = "[";
  for (size_t i = 0; i < result.net.loop_conns.size(); ++i) {
    loop_conns += lc::Format(
        "%s%llu", i == 0 ? "" : ", ",
        static_cast<unsigned long long>(result.net.loop_conns[i]));
  }
  loop_conns += "]";
  os << lc::Format(
      "    \"%s\": { \"seconds\": %.3f, \"throughput_qps\": %.0f, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
      "\"mean_us\": %.1f, \"requests\": %zu, \"conns\": %zu, "
      "\"pipeline\": %zu, \"loops\": %d, \"served\": %llu, "
      "\"admission_cache_hits\": %llu, "
      "\"model_batches\": %llu, \"mean_batch\": %.2f, \"lines_in\": %llu, "
      "\"responses_out\": %llu, \"read_pauses\": %llu, "
      "\"handoffs\": %llu, \"loop_conns\": %s }",
      name.c_str(), result.seconds, result.throughput_qps, result.p50_us,
      result.p95_us, result.p99_us, result.mean_us, result.requests, conns,
      pipeline, loops, static_cast<unsigned long long>(result.stats.served),
      static_cast<unsigned long long>(result.stats.admission_cache_hits),
      static_cast<unsigned long long>(result.stats.model_batches),
      result.stats.batch_size.mean(),
      static_cast<unsigned long long>(result.net.lines_in),
      static_cast<unsigned long long>(result.net.responses_out),
      static_cast<unsigned long long>(result.net.read_pauses),
      static_cast<unsigned long long>(result.net.handoffs),
      loop_conns.c_str());
}

void PrintRow(const char* name, const LoadResult& result) {
  std::cout << lc::Format(
      "%-12s %10.0f qps %10.1f us %10.1f us %10.1f us %10.1f us\n", name,
      result.throughput_qps, result.p50_us, result.p95_us, result.p99_us,
      result.mean_us);
}

void PrintJson(std::ostream& os, const char* name, const LoadResult& result) {
  os << lc::Format(
      "    \"%s\": { \"seconds\": %.3f, \"throughput_qps\": %.0f, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
      "\"mean_us\": %.1f, \"served\": %llu, \"admission_cache_hits\": %llu, "
      "\"model_batches\": %llu, \"mean_batch\": %.2f, "
      "\"mean_queue_wait_us\": %.1f, \"cache_hits\": %llu, "
      "\"cache_misses\": %llu }",
      name, result.seconds, result.throughput_qps, result.p50_us,
      result.p95_us, result.p99_us, result.mean_us,
      static_cast<unsigned long long>(result.stats.served),
      static_cast<unsigned long long>(result.stats.admission_cache_hits),
      static_cast<unsigned long long>(result.stats.model_batches),
      result.stats.batch_size.mean(), result.stats.queue_wait_us.mean(),
      static_cast<unsigned long long>(result.cache.hits),
      static_cast<unsigned long long>(result.cache.misses));
}

}  // namespace

int main(int argc, char** argv) {
  bool socket_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--transport=socket") {
      socket_mode = true;
    } else if (arg == "--transport=direct") {
      socket_mode = false;
    } else {
      std::cerr << "unknown flag: " << arg
                << " (supported: --transport=direct|socket)\n";
      return 2;
    }
  }

  lc::Experiment experiment;
  std::cout << (socket_mode
                    ? "=== Serving front-end: socket-transport load ===\n"
                    : "=== Serving front-end: closed-loop load ===\n");
  experiment.PrintSetup(std::cout);

  const size_t total_requests = static_cast<size_t>(
      std::max<int64_t>(1, lc::GetEnvInt("LC_SERVE_LOAD_REQUESTS", 20000)));
  const int clients = static_cast<int>(
      std::max<int64_t>(1, lc::GetEnvInt("LC_SERVE_LOAD_CLIENTS", 8)));
  const lc::Workload& synthetic = experiment.SyntheticWorkload();
  const size_t distinct = std::min<size_t>(
      static_cast<size_t>(
          std::max<int64_t>(1, lc::GetEnvInt("LC_SERVE_LOAD_DISTINCT", 512))),
      synthetic.size());

  lc::MscnModel& model = experiment.Model(lc::FeatureVariant::kBitmaps);
  const lc::Featurizer& featurizer =
      experiment.FeaturizerFor(lc::FeatureVariant::kBitmaps);
  const lc::Schema& schema = experiment.db().schema();
  const lc::SampleSet& samples = experiment.samples();

  std::vector<std::string> texts;
  std::vector<const lc::LabeledQuery*> pointers;
  texts.reserve(distinct);
  pointers.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    texts.push_back(synthetic.queries[i].query.Serialize());
    pointers.push_back(&synthetic.queries[i]);
  }

  // Ground truth for the bit-match gate: the pure batched forward pass.
  lc::MscnEstimator direct(&featurizer, &model, "direct",
                           /*cache_capacity=*/0);
  const std::vector<double> expected = direct.EstimateAll(pointers, 64);

  if (socket_mode) {
    const size_t conns = static_cast<size_t>(
        std::max<int64_t>(1, lc::GetEnvInt("LC_SERVE_LOAD_CONNS", 256)));
    const size_t pipeline = static_cast<size_t>(
        std::max<int64_t>(1, lc::GetEnvInt("LC_SERVE_LOAD_PIPELINE", 8)));
    // The sharding sweep: rerun the whole load at each requested loop
    // count. Default is the single-loop transport; the BENCH_pr8_loops
    // record uses "1,2,4".
    std::vector<int> loop_counts;
    for (const std::string& piece :
         lc::Split(lc::GetEnvString("LC_SERVE_LOAD_LOOPS", "1"), ',')) {
      const std::string trimmed = lc::Trim(piece);
      if (trimmed.empty()) continue;
      int32_t value = 0;
      const lc::Status parsed = lc::ParseInt32(trimmed, 0, &value);
      LC_CHECK(parsed.ok() && value >= 1)
          << "bad LC_SERVE_LOAD_LOOPS entry '" << trimmed << "'";
      loop_counts.push_back(value);
    }
    LC_CHECK(!loop_counts.empty()) << "LC_SERVE_LOAD_LOOPS resolved empty";

    std::cout << lc::Format(
        "requests=%zu clients=%d conns=%zu pipeline=%zu distinct=%zu | "
        "max batch=%zu\n\n",
        total_requests, clients, conns, pipeline, distinct,
        lc::serve::EstimatorServer::kMaxBatch);
    std::cout << lc::Format("%-12s %14s %13s %13s %13s %13s\n",
                            "cache@loops", "throughput", "p50", "p95", "p99",
                            "mean");

    size_t total_gated = 0;
    std::vector<std::pair<std::string, SocketLoadResult>> records;
    for (const int loops : loop_counts) {
      lc::MscnEstimator sock_off(&featurizer, &model, "MSCN",
                                 /*cache_capacity=*/0);
      const SocketLoadResult off_result = RunSocketLoad(
          &sock_off, schema, samples, texts, expected, total_requests,
          clients, conns, pipeline, loops);
      PrintSocketRow(lc::Format("off@%d", loops).c_str(), off_result);

      lc::MscnEstimator sock_on(&featurizer, &model, "MSCN+cache",
                                /*cache_capacity=*/-1);
      const SocketLoadResult on_result = RunSocketLoad(
          &sock_on, schema, samples, texts, expected, total_requests,
          clients, conns, pipeline, loops);
      PrintSocketRow(lc::Format("on@%d", loops).c_str(), on_result);

      // The work-division evidence: lifetime connections owned per loop.
      std::string division;
      for (size_t i = 0; i < on_result.net.loop_conns.size(); ++i) {
        division += lc::Format("%s%llu", i == 0 ? "" : "/",
                               static_cast<unsigned long long>(
                                   on_result.net.loop_conns[i]));
      }
      std::cout << lc::Format(
          "  loops=%d conns-per-loop=%s handoffs=%llu\n", loops,
          division.c_str(),
          static_cast<unsigned long long>(on_result.net.handoffs));

      total_gated += off_result.requests + on_result.requests;
      records.emplace_back(lc::Format("socket_cache_off_loops%d", loops),
                           off_result);
      records.emplace_back(lc::Format("socket_cache_on_loops%d", loops),
                           on_result);
    }

    std::cout << lc::Format(
        "\nbit-match: all %zu responses over %zu concurrent connections "
        "identical to direct EstimateAll (cache on and off, every loop "
        "count)\n",
        total_gated, conns);
    std::cout << "\nJSON fragment for BENCH records:\n{\n";
    for (size_t i = 0; i < records.size(); ++i) {
      const int loops = std::stoi(records[i].first.substr(
          records[i].first.find("loops") + 5));
      PrintSocketJson(std::cout, records[i].first, records[i].second, conns,
                      pipeline, loops);
      std::cout << (i + 1 < records.size() ? ",\n" : "\n");
    }
    std::cout << "}\n";
    return 0;
  }

  std::cout << lc::Format(
      "requests=%zu clients=%d distinct=%zu | max batch=%zu\n\n",
      total_requests, clients, distinct,
      lc::serve::EstimatorServer::kMaxBatch);
  std::cout << lc::Format("%-12s %14s %13s %13s %13s %13s\n", "cache",
                          "throughput", "p50", "p95", "p99", "mean");

  lc::MscnEstimator cache_off(&featurizer, &model, "MSCN",
                              /*cache_capacity=*/0);
  const LoadResult off =
      RunLoad(&cache_off, schema, samples, texts, total_requests, clients);
  PrintRow("off", off);

  lc::MscnEstimator cache_on(&featurizer, &model, "MSCN+cache",
                             /*cache_capacity=*/-1);
  const LoadResult on =
      RunLoad(&cache_on, schema, samples, texts, total_requests, clients);
  PrintRow("on", on);
  lc::PrintCacheCounters(std::cout, cache_on.name(),
                         cache_on.cache_counters());

  // Bit-match gate: the server path (parse → validate → relabel → batched
  // EstimateBatch, cache on or off) must reproduce EstimateAll exactly, in
  // the %.17g response text a socket client reads.
  for (const bool use_cache : {false, true}) {
    lc::MscnEstimator estimator(&featurizer, &model, "verify",
                                use_cache ? int64_t{4096} : int64_t{0});
    lc::serve::EstimatorServer server(&estimator, &schema, &samples);
    for (size_t i = 0; i < distinct; ++i) {
      const std::string line = server.HandleLine(texts[i]);
      const lc::StatusOr<double> got = lc::serve::ParseEstimate(line);
      LC_CHECK(got.ok()) << line;
      LC_CHECK(*got == expected[i])
          << "server estimate diverged from EstimateAll (cache="
          << (use_cache ? "on" : "off") << ", query " << i << "): " << line
          << " vs " << lc::Format("%.17g", expected[i]);
    }
  }
  std::cout << "\nbit-match: server estimates identical to direct "
               "EstimateAll over all "
            << distinct << " distinct queries (cache on and off)\n";

  if (lc::GetEnvInt("LC_SERVE_LOAD_RETRAIN", 1) == 0) {
    std::cout << "\nJSON fragment for BENCH records:\n{\n";
    PrintJson(std::cout, "cache_off", off);
    std::cout << ",\n";
    PrintJson(std::cout, "cache_on", on);
    std::cout << "\n}\n";
    return 0;
  }

  // ---- Retrain-during-load: copy-train-swap ----
  // Cache off: every request is a cache miss, so every request runs the
  // model while the clone trains. The model starts from a private copy.
  const lc::Workload& training = experiment.TrainingWorkload();
  const size_t retrain_queries = std::min<size_t>(
      static_cast<size_t>(std::max<int64_t>(
          1, lc::GetEnvInt("LC_SERVE_LOAD_RETRAIN_QUERIES", 2000))),
      training.size());
  const int retrain_epochs = static_cast<int>(std::max<int64_t>(
      1, lc::GetEnvInt("LC_SERVE_LOAD_RETRAIN_EPOCHS", 2)));
  std::vector<const lc::LabeledQuery*> retrain_set;
  retrain_set.reserve(retrain_queries);
  for (size_t i = 0; i < retrain_queries; ++i) {
    retrain_set.push_back(&training.queries[i]);
  }
  lc::MscnConfig retrain_config = experiment.config().mscn;
  retrain_config.variant = lc::FeatureVariant::kBitmaps;
  lc::Trainer trainer(&featurizer, retrain_config);

  std::cout << lc::Format(
      "\n=== Retrain during load (cache off, %zu retrain queries x %d "
      "epochs) ===\n",
      retrain_queries, retrain_epochs);

  // Copy-train-swap through the server's ADMIN RETRAIN verb: the clone
  // trains in the background, the swap is a pointer exchange.
  auto swap_model = std::make_shared<lc::MscnModel>(model);
  lc::MscnEstimator swap_est(&featurizer, swap_model, "swap",
                             /*cache_capacity=*/0);
  const RetrainLoadResult swap = RunRetrainLoad(
      &swap_est, schema, samples, texts, clients,
      [&](lc::serve::EstimatorServer& server) {
        server.set_retrain_fn([&] {
          auto fresh = trainer.TrainClone(*swap_est.model_snapshot(),
                                          retrain_set, {}, retrain_epochs,
                                          nullptr);
          swap_est.SwapModel(std::move(fresh));
          return lc::Status::OK();
        });
        const std::string line = server.HandleLine("ADMIN RETRAIN");
        LC_CHECK(lc::StartsWith(line, "OK")) << line;
        while (server.retrain_in_flight()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  PrintRetrainRow("swap", swap);
  LC_CHECK(swap.stats.model_swaps == 1u)
      << "ADMIN RETRAIN did not publish a swap";

  // Lazy stale-entry retirement, observable end to end (cache on): warm
  // every distinct query, swap, then re-serve — each old entry must be
  // retired individually by the lookup that discovers it, and post-swap
  // estimates must bit-match a direct EstimateAll on the new model.
  uint64_t retirements = 0;
  {
    auto live_model = std::make_shared<lc::MscnModel>(model);
    lc::MscnEstimator estimator(&featurizer, live_model, "swap+cache",
                                /*cache_capacity=*/4096);
    lc::serve::EstimatorServer server(&estimator, &schema, &samples);
    server.set_retrain_fn([&] {
      auto fresh = trainer.TrainClone(*estimator.model_snapshot(),
                                      retrain_set, {}, 1, nullptr);
      estimator.SwapModel(std::move(fresh));
      return lc::Status::OK();
    });
    for (size_t i = 0; i < distinct; ++i) {
      const std::string line = server.HandleLine(texts[i]);
      LC_CHECK(lc::serve::ParseEstimate(line).ok()) << line;
    }
    const std::string line = server.HandleLine("ADMIN RETRAIN");
    LC_CHECK(lc::StartsWith(line, "OK")) << line;
    while (server.retrain_in_flight()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    lc::MscnEstimator fresh_direct(&featurizer, estimator.model_snapshot(),
                                   "direct", /*cache_capacity=*/0);
    const std::vector<double> fresh_expected =
        fresh_direct.EstimateAll(pointers, 64);
    for (size_t i = 0; i < distinct; ++i) {
      const std::string line = server.HandleLine(texts[i]);
      const lc::StatusOr<double> got = lc::serve::ParseEstimate(line);
      LC_CHECK(got.ok()) << line;
      LC_CHECK(*got == fresh_expected[i])
          << "post-swap estimate diverged from the new model at query " << i;
    }
    retirements = server.GetStats().stale_retirements;
    LC_CHECK(retirements >= distinct)
        << "expected every warmed entry to retire lazily, saw "
        << retirements;
  }
  std::cout << lc::Format(
      "\npost-swap: all %zu warmed cache entries retired lazily "
      "(%llu stale retirements), estimates bit-match the new model\n",
      distinct, static_cast<unsigned long long>(retirements));

  std::cout << "\nJSON fragment for BENCH records:\n{\n";
  PrintJson(std::cout, "cache_off", off);
  std::cout << ",\n";
  PrintJson(std::cout, "cache_on", on);
  std::cout << ",\n";
  PrintRetrainJson(std::cout, "retrain_swap", swap);
  std::cout << lc::Format(
      ",\n    \"swap_lazy_retirement\": { \"distinct\": %zu, "
      "\"stale_retirements\": %llu }",
      distinct, static_cast<unsigned long long>(retirements));
  std::cout << "\n}\n";
  return 0;
}
