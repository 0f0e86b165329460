#include "serve/net/socket_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/server.h"
#include "util/check.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/str.h"

namespace lc {
namespace serve {
namespace net {

namespace {

// How long a listener that hit fd exhaustion stays unwatched before the
// owning loop retries accepting (closes free descriptors in the meantime).
constexpr int kAcceptBackoffMs = 100;

// Most connections accepted per listener readiness event. Bounds how long
// an accept flood can starve a loop's connection handlers; the
// level-triggered poller re-reports the listener while the backlog is
// non-empty, so nothing is lost when the cap is hit.
constexpr int kAcceptBatch = 16;

// listen(2) backlog, per listener.
constexpr int kListenBacklog = 128;

std::vector<std::string> SplitListenSpecs(const std::string& specs) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(specs, ',')) {
    const std::string trimmed = Trim(piece);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

int ResolveLoops(int configured) {
  if (configured > 0) return configured;
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::min<unsigned>(std::max(1u, hardware), 4u));
}

// Owns a raw accepted fd across an EventLoop::Post handoff: if the task is
// dropped (the target loop sealed its queue after exiting), the destructor
// closes the descriptor instead of leaking it. shared_ptr because
// std::function requires copyable captures.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

}  // namespace

SocketServerConfig SocketServerConfig::FromEnv() {
  SocketServerConfig config;
  config.listen = SplitListenSpecs(GetEnvString("LC_SERVE_LISTEN", ""));
  config.loops = static_cast<int>(
      std::max<int64_t>(0, GetEnvInt("LC_SERVE_LOOPS", config.loops)));
  config.idle_timeout_ms = std::max<int64_t>(
      0, GetEnvInt("LC_SERVE_IDLE_TIMEOUT_MS", config.idle_timeout_ms));
  config.stats_interval_ms = std::max<int64_t>(
      0, GetEnvInt("LC_SERVE_STATS_INTERVAL_MS", config.stats_interval_ms));
  config.write_high_water = static_cast<size_t>(std::max<int64_t>(
      1024, GetEnvInt("LC_SERVE_WRITE_BUFFER",
                      static_cast<int64_t>(config.write_high_water))));
  config.drain_timeout_ms = std::max<int64_t>(
      100, GetEnvInt("LC_SERVE_DRAIN_TIMEOUT_MS", config.drain_timeout_ms));
  return config;
}

SocketServer::SocketServer(EstimatorServer* server, SocketServerConfig config)
    : server_(server), config_(std::move(config)) {
  LC_CHECK(server != nullptr);
}

SocketServer::~SocketServer() { Shutdown(); }

Status SocketServer::Start() {
  LC_CHECK(!started_) << "SocketServer::Start called twice";
  if (config_.listen.empty()) {
    return Status::InvalidArgument(
        "no listen endpoints configured (set LC_SERVE_LISTEN or "
        "SocketServerConfig::listen)");
  }
  loops_ = ResolveLoops(config_.loops);

  std::vector<Endpoint> endpoints;
  for (const std::string& spec : config_.listen) {
    StatusOr<Endpoint> endpoint = ParseEndpoint(spec);
    if (!endpoint.ok()) return endpoint.status();
    endpoints.push_back(*endpoint);
  }

  for (int i = 0; i < loops_; ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->index = i;
    shard->loop = std::make_unique<EventLoop>();
    shards_.push_back(std::move(shard));
  }

  // Bind. Any failure unwinds everything (no loop thread is running yet,
  // so plain destruction is the cleanup).
  Status status = Status::OK();
  for (const Endpoint& endpoint : endpoints) {
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      // One listener on loop 0; accepted fds are handed off round-robin.
      StatusOr<std::unique_ptr<Listener>> listener =
          Listener::Bind(endpoint, kListenBacklog);
      if (!listener.ok()) {
        status = listener.status();
        break;
      }
      resolved_.push_back((*listener)->endpoint());
      shards_[0]->listeners.push_back(std::move(listener).value());
      continue;
    }
    // TCP: one SO_REUSEPORT listener per loop so the kernel spreads the
    // accepts. The first bind resolves an ephemeral port; the peers bind
    // the resolved endpoint. A single loop needs no REUSEPORT at all.
    const bool reuse_port = loops_ > 1;
    StatusOr<std::unique_ptr<Listener>> first =
        Listener::Bind(endpoint, kListenBacklog, reuse_port);
    if (!first.ok()) {
      status = first.status();
      break;
    }
    const Endpoint resolved = (*first)->endpoint();
    resolved_.push_back(resolved);
    shards_[0]->listeners.push_back(std::move(first).value());
    for (int i = 1; i < loops_ && status.ok(); ++i) {
      StatusOr<std::unique_ptr<Listener>> peer =
          Listener::Bind(resolved, kListenBacklog, /*reuse_port=*/true);
      if (!peer.ok()) {
        status = peer.status();
        break;
      }
      shards_[i]->listeners.push_back(std::move(peer).value());
    }
    if (!status.ok()) break;
  }

  // Registrations and timer arming happen before any loop thread exists,
  // which satisfies the loop-thread-only rule (there is exactly one thread
  // touching loop state at any point in time).
  if (status.ok()) {
    for (const std::unique_ptr<LoopShard>& shard : shards_) {
      LoopShard* raw_shard = shard.get();
      for (const std::unique_ptr<Listener>& listener : shard->listeners) {
        Listener* raw = listener.get();
        status = shard->loop->Watch(
            raw->fd(), /*want_read=*/true, /*want_write=*/false,
            LC_CAPTURE_SAFE(
                "Shutdown() unwatches and clears every listener on its "
                "own loop (phase 1), then joins the loop threads, before "
                "shards_ or *this can die",
                [this, raw_shard, raw](const PollEvent&) {
                  OnListenerReadable(raw_shard, raw);
                }));
        if (!status.ok()) break;
      }
      if (!status.ok()) break;
      ArmIdleTimer(raw_shard);
    }
  }
  if (!status.ok()) {
    shards_.clear();
    resolved_.clear();
    return status;
  }

  ArmStatsTimer();
  for (const Endpoint& endpoint : resolved_) {
    LC_LOG(INFO) << "serving line protocol on " << endpoint.ToString()
                 << " (epoll, " << loops_
                 << (loops_ == 1 ? " loop)" : " loops)");
  }
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    EventLoop* loop = shard->loop.get();
    shard->thread = std::thread([loop] { loop->Run(); });
  }
  started_ = true;
  return Status::OK();
}

void SocketServer::OnListenerReadable(LoopShard* shard, Listener* listener) {
  if (stopping_.load(std::memory_order_acquire)) return;
  // Drain up to kAcceptBatch pending connections per readiness event:
  // enough to amortize the wakeup under a connection flood, bounded so the
  // flood cannot starve this loop's established connections. Level
  // triggering re-reports a still-non-empty backlog on the next wait.
  for (int batch = 0; batch < kAcceptBatch; ++batch) {
    AcceptResult result;
    const int fd = listener->Accept(&result);
    if (fd < 0) {
      if (result == AcceptResult::kTransient) continue;
      if (result == AcceptResult::kExhausted) PauseAccepting(shard, listener);
      return;  // kNoPending (or paused): wait for the next readiness.
    }
    if (listener->endpoint().kind == Endpoint::Kind::kUnix && loops_ > 1) {
      // Unix sockets cannot shard at the kernel (no SO_REUSEPORT), so
      // loop 0 spreads them itself: round-robin over every loop,
      // including loop 0. The fd crosses threads through Post; the
      // Connection is created and registered on its owning loop, so the
      // single-owner invariant holds from its first Watch.
      LoopShard* target =
          shards_[next_handoff_++ % shards_.size()].get();
      if (target == shard) {
        AdoptFd(shard, fd);
      } else {
        counters_.handoffs.fetch_add(1, std::memory_order_relaxed);
        auto guard = std::make_shared<FdGuard>(fd);
        target->loop->Post(LC_CAPTURE_SAFE(
            "handoffs are only posted by loop 0's accept path, which "
            "Shutdown() fences off (phase 1) before draining and joining "
            "the loops that would run this; the fd itself is owned by the "
            "shared FdGuard, closed if the sealed queue drops the task",
            [this, target, guard] { AdoptFd(target, guard->Release()); }));
      }
      continue;
    }
    AdoptFd(shard, fd);
  }
}

void SocketServer::AdoptFd(LoopShard* shard, int fd) {
  // Runs on `shard`'s loop thread (directly from its accept path, or as a
  // posted handoff task). A handoff can land after stopping_ was set; the
  // connection is registered anyway — its bytes were kernel-accepted, so
  // the drain contract owes them answers. The shutdown rendezvous
  // barriers guarantee every handoff task runs BEFORE the shard's drain
  // task, whose snapshot then includes this connection.
  if (config_.so_sndbuf > 0) {
    (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                     sizeof(config_.so_sndbuf));
  }
  auto connection = std::make_shared<Connection>(
      fd, shard->loop.get(), server_, config_.write_high_water, &counters_,
      [this, shard](int closed_fd) {
        shard->connections.erase(closed_fd);
        MarkLoopDrainedIfDone(shard);
      });
  const Status registered = connection->Register();
  if (!registered.ok()) {
    LC_LOG(WARNING) << "dropping connection: " << registered.ToString();
    return;  // The connection closes itself via its destructor.
  }
  counters_.accepted.fetch_add(1, std::memory_order_relaxed);
  shard->conns.fetch_add(1, std::memory_order_relaxed);
  shard->connections[fd] = std::move(connection);
}

void SocketServer::PauseAccepting(LoopShard* shard, Listener* listener) {
  // Out of descriptors: the pending connection stays in the backlog, so a
  // level-triggered poller reports the listener readable on every wait —
  // keeping it watched spins the loop at 100% CPU until an fd frees up.
  // Unwatch it and retry after a backoff instead. Per loop: the sibling
  // loops keep accepting on their own listeners if they still have fds.
  LC_LOG(WARNING) << "accept on " << listener->endpoint().ToString()
                  << " (loop " << shard->index
                  << ") failed: out of file descriptors; pausing accepts for "
                  << kAcceptBackoffMs << " ms";
  shard->loop->Unwatch(listener->fd());
  shard->loop->RunAt(
      std::chrono::steady_clock::now() +
          std::chrono::milliseconds(kAcceptBackoffMs),
      LC_CAPTURE_SAFE(
          "ResumeAccepting re-checks stopping_ and re-finds `listener` in "
          "shard->listeners before use; Shutdown() joins this loop before "
          "*this or the shards die",
          [this, shard, listener] { ResumeAccepting(shard, listener); }));
}

void SocketServer::ResumeAccepting(LoopShard* shard, Listener* listener) {
  // Shutdown sets stopping_ before any listener is torn down, so past
  // this check `listener` is still alive in its shard.
  if (stopping_.load(std::memory_order_acquire)) return;
  const bool alive =
      std::any_of(shard->listeners.begin(), shard->listeners.end(),
                  [listener](const std::unique_ptr<Listener>& candidate) {
                    return candidate.get() == listener;
                  });
  if (!alive) return;
  const Status watched = shard->loop->Watch(
      listener->fd(), /*want_read=*/true, /*want_write=*/false,
      LC_CAPTURE_SAFE(
          "`listener` was just re-verified alive in shard->listeners, and "
          "Shutdown() unwatches it (phase 1) on this same loop before any "
          "teardown",
          [this, shard, listener](const PollEvent&) {
            OnListenerReadable(shard, listener);
          }));
  if (!watched.ok()) {
    LC_LOG(WARNING) << "re-watching paused listener "
                    << listener->endpoint().ToString()
                    << " failed: " << watched.ToString() << "; retrying";
    shard->loop->RunAt(
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(kAcceptBackoffMs),
        LC_CAPTURE_SAFE(
            "same contract as the PauseAccepting retry: stopping_ and the "
            "shard->listeners membership are re-checked on entry",
            [this, shard, listener] { ResumeAccepting(shard, listener); }));
    return;
  }
  // Catch up on connections that queued while paused; re-pauses if the
  // descriptor table is still full.
  OnListenerReadable(shard, listener);
}

void SocketServer::ArmIdleTimer(LoopShard* shard) {
  if (config_.idle_timeout_ms <= 0) return;
  // Per loop: each loop reaps only the connections it owns, so the sweep
  // never touches another loop's fds. Sweep at a quarter of the timeout
  // so reaping lags it by at most ~25%.
  const auto period = std::chrono::milliseconds(
      std::max<int64_t>(1, config_.idle_timeout_ms / 4));
  shard->loop->RunAt(std::chrono::steady_clock::now() + period,
                     LC_CAPTURE_SAFE(
                         "the sweep re-checks stopping_ before touching "
                         "anything and Shutdown() joins this loop before "
                         "*this or the shard dies",
                         [this, shard] {
    if (!stopping_.load(std::memory_order_acquire)) {
      const auto now = std::chrono::steady_clock::now();
      const auto timeout =
          std::chrono::milliseconds(config_.idle_timeout_ms);
      // Snapshot: CloseIfIdle erases from the shard map via on_close.
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(shard->connections.size());
      for (const auto& [fd, connection] : shard->connections) {
        snapshot.push_back(connection);
      }
      for (const std::shared_ptr<Connection>& connection : snapshot) {
        connection->CloseIfIdle(now, timeout);
      }
      ArmIdleTimer(shard);
    }
  }));
}

void SocketServer::ArmStatsTimer() {
  if (config_.stats_interval_ms <= 0) return;
  // Loop 0 only: N loops must still produce ONE periodic stats line, not
  // N duplicates. The counters it prints are the shared atomics, so the
  // line covers every loop's traffic regardless of who emits it.
  const auto period = std::chrono::milliseconds(config_.stats_interval_ms);
  // Raw [this] is safe by Shutdown() ordering: the timer fires only on
  // loop 0's thread, and Shutdown() — which every destruction path runs
  // first (~SocketServer calls it) — stops and joins all loop threads
  // before shards_ or *this are torn down, so no firing can outlive the
  // server. The re-arm is gated on stopping_, set before the join, which
  // also bounds the timer chain.
  shards_[0]->loop->RunAt(
      std::chrono::steady_clock::now() + period,
      LC_CAPTURE_SAFE(
          "loop 0 is joined in Shutdown() before *this dies, and the "
          "re-arm chain is cut by stopping_",
          [this] {
    if (!stopping_.load(std::memory_order_acquire)) {
      const NetStats net = net_stats();
      std::string per_loop;
      for (size_t i = 0; i < net.loop_conns.size(); ++i) {
        per_loop += Format("%s%llu", i == 0 ? "" : "/",
                           static_cast<unsigned long long>(net.loop_conns[i]));
      }
      LC_LOG(INFO) << "serve stats: " << server_->FormatStatsLine()
                   << Format(" | net: open=%llu accepted=%llu lines=%llu "
                             "responses=%llu oversize=%llu reaped=%llu "
                             "read_pauses=%llu write_syscalls=%llu "
                             "handoffs=%llu loop_conns=%s",
                             static_cast<unsigned long long>(net.open),
                             static_cast<unsigned long long>(net.accepted),
                             static_cast<unsigned long long>(net.lines_in),
                             static_cast<unsigned long long>(
                                 net.responses_out),
                             static_cast<unsigned long long>(
                                 net.oversize_lines),
                             static_cast<unsigned long long>(net.reaped_idle),
                             static_cast<unsigned long long>(
                                 net.read_pauses),
                             static_cast<unsigned long long>(
                                 net.write_syscalls),
                             static_cast<unsigned long long>(net.handoffs),
                             per_loop.c_str());
      ArmStatsTimer();
    }
  }));
}

void SocketServer::RendezvousAllLoops() {
  // Tasks run FIFO per loop, so once every loop has executed its barrier
  // task, everything posted to any loop before this call has run too.
  // The notify stays INSIDE the critical section here, unlike the
  // notify-after-unlock convention elsewhere: mu and cv live on this
  // stack frame, and a waiter woken between an early unlock and the
  // notify could see pending == 0, return, and destroy cv under the
  // notifier. Holding mu across NotifyAll pins the waiter until the
  // notifier is done with cv.
  Mutex mu;
  CondVar cv;
  size_t pending = shards_.size();
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    shard->loop->Post(LC_CAPTURE_SAFE(
        "by-reference captures of this stack frame are pinned by the "
        "Wait below: RendezvousAllLoops does not return until every "
        "barrier task has run, and it is only called while all loops "
        "still run (before Stop() seals any queue)",
        [&mu, &cv, &pending] {
          MutexLock lock(&mu);
          if (--pending == 0) cv.NotifyAll();
        }));
  }
  MutexLock lock(&mu);
  while (pending != 0) cv.Wait(&mu);
}

void SocketServer::MarkLoopDrainedIfDone(LoopShard* shard) {
  // Owning loop thread only. A shard counts as drained once its drain
  // task ran AND it owns no connections; drain_started gates the mark so
  // a connection closing during the pre-drain phases cannot report an
  // empty-but-not-yet-draining shard.
  if (!shard->drain_started || !shard->connections.empty()) return;
  bool all_drained = false;
  {
    MutexLock lock(&drain_mu_);
    if (loop_drained_[static_cast<size_t>(shard->index)]) return;
    loop_drained_[static_cast<size_t>(shard->index)] = true;
    all_drained = (--undrained_loops_ == 0);
  }
  // drain_cv_ is a member, kept alive past the Shutdown wait by the
  // loop-thread joins, so the usual notify-after-unlock is safe here.
  if (all_drained) drain_cv_.NotifyAll();
}

void SocketServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  stopping_.store(true, std::memory_order_release);
  {
    MutexLock lock(&drain_mu_);
    loop_drained_.assign(shards_.size(), false);
    undrained_loops_ = shards_.size();
  }

  // Phase 1 — no new connections: every loop tears its listeners down.
  // The rendezvous doubles as the handoff fence: after loop 0 ran its
  // phase-1 task it can never post another handoff.
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    LoopShard* raw = shard.get();
    raw->loop->Post(LC_CAPTURE_SAFE(
        "Shutdown() blocks on the rendezvous below until this task ran, "
        "and the shard shells it points at outlive the joins",
        [raw] {
          for (const std::unique_ptr<Listener>& listener : raw->listeners) {
            raw->loop->Unwatch(listener->fd());
          }
          raw->listeners.clear();
        }));
  }
  RendezvousAllLoops();

  // Phase 2 — flush stragglers: handoff fds loop 0 posted before phase 1
  // may still sit in peer queues; the barrier makes every one of them a
  // registered connection before any drain snapshot is taken.
  RendezvousAllLoops();

  // Phase 3 — concurrent drain on all loops: BeginDrain harvests the
  // request bytes the kernel already accepted on each connection, and
  // each loop keeps multiplexing until every claimed line has flushed.
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    LoopShard* raw = shard.get();
    raw->loop->Post(LC_CAPTURE_SAFE(
        "Shutdown() waits on drain_cv_ and then joins every loop thread "
        "before *this or the shard shells are destroyed",
        [this, raw] {
      raw->drain_started = true;
      // Snapshot: BeginDrain may close a connection, erasing it from the
      // map (which re-checks the mark via on_close).
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(raw->connections.size());
      for (const auto& [fd, connection] : raw->connections) {
        snapshot.push_back(connection);
      }
      for (const std::shared_ptr<Connection>& connection : snapshot) {
        connection->BeginDrain();
      }
      MarkLoopDrainedIfDone(raw);
    }));
  }

  // Rendezvous before close: wait until EVERY loop drained. A wedged
  // drain anywhere (a client that never reads its responses) is
  // force-closed at the shared deadline rather than parking
  // shutdown forever.
  bool clean = false;
  {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.drain_timeout_ms);
    MutexLock lock(&drain_mu_);
    while (undrained_loops_ != 0) {
      if (drain_cv_.WaitUntil(&drain_mu_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    clean = (undrained_loops_ == 0);
  }
  if (!clean) {
    LC_LOG(WARNING) << "socket drain deadline exceeded; force-closing "
                       "remaining connections on all loops";
    for (const std::unique_ptr<LoopShard>& shard : shards_) {
      LoopShard* raw = shard.get();
      raw->loop->Post(LC_CAPTURE_SAFE(
          "Shutdown() waits for the drain count (no deadline this time) "
          "and joins every loop thread before anything captured here dies",
          [this, raw] {
            std::vector<std::shared_ptr<Connection>> snapshot;
            snapshot.reserve(raw->connections.size());
            for (const auto& [fd, connection] : raw->connections) {
              snapshot.push_back(connection);
            }
            for (const std::shared_ptr<Connection>& connection : snapshot) {
              connection->ForceClose();
            }
            MarkLoopDrainedIfDone(raw);
          }));
    }
    MutexLock lock(&drain_mu_);
    while (undrained_loops_ != 0) drain_cv_.Wait(&drain_mu_);
  }

  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    shard->loop->Stop();
  }
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Every loop thread is joined: free the loops. The shard shells stay
  // alive for net_stats' per-loop counters.
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    shard->loop.reset();
  }
}

std::vector<Endpoint> SocketServer::endpoints() const {
  // Stable after Start(): resolved_ never changes while running.
  return resolved_;
}

SocketServer::NetStats SocketServer::net_stats() const {
  NetStats stats;
  stats.accepted = counters_.accepted.load(std::memory_order_relaxed);
  stats.closed = counters_.closed.load(std::memory_order_relaxed);
  stats.reaped_idle = counters_.reaped_idle.load(std::memory_order_relaxed);
  stats.lines_in = counters_.lines_in.load(std::memory_order_relaxed);
  stats.responses_out =
      counters_.responses_out.load(std::memory_order_relaxed);
  stats.oversize_lines =
      counters_.oversize_lines.load(std::memory_order_relaxed);
  stats.read_pauses = counters_.read_pauses.load(std::memory_order_relaxed);
  stats.write_syscalls =
      counters_.write_syscalls.load(std::memory_order_relaxed);
  stats.handoffs = counters_.handoffs.load(std::memory_order_relaxed);
  stats.open = stats.accepted - std::min(stats.closed, stats.accepted);
  stats.loop_conns.reserve(shards_.size());
  for (const std::unique_ptr<LoopShard>& shard : shards_) {
    stats.loop_conns.push_back(shard->conns.load(std::memory_order_relaxed));
  }
  return stats;
}

}  // namespace net
}  // namespace serve
}  // namespace lc
