//===- server/Server.h - virgild: compile-and-execute daemon ----*- C++ -*-===//
///
/// \file
/// The long-lived service the compile pipeline amortizes into: N
/// event-loop threads (epoll-backed where available) accept
/// connections on TCP and/or Unix sockets, a framing state machine per
/// connection reassembles requests, and per-shard bounded queues feed
/// a worker pool that serves each request through an exec::Executor —
/// compile through the shared CompileService/BytecodeCache, then run
/// on a warm pooled VM or a fresh one under hard quotas (fuel, heap
/// bytes, wall-clock deadline). Design invariants:
///
///   * Isolation — every request runs on a VM whose observable state
///     is indistinguishable from freshly constructed (the VmPool
///     invisibility contract); a hostile program can only burn its own
///     quotas, which degrade to a structured Outcome on the wire.
///   * Sharding — each event-loop thread owns a disjoint shard:
///     poller, connection table, wakeup pipe, bounded queue, response
///     list. A connection is pinned for life to the shard that
///     accepted it, so no connection state is ever shared between
///     loops. TCP accepts spread across shards via per-shard
///     SO_REUSEPORT listeners (shared-listener fallback); the Unix
///     listener is polled by every shard with accept() as the
///     arbiter. Workers are assigned round-robin to shards.
///   * Backpressure — when a shard's queue is at capacity its loop
///     answers BUSY immediately instead of queueing unboundedly; the
///     client retries. Workers are never blocked by the network: they
///     hand finished responses back to their shard over its wakeup
///     pipe.
///   * Graceful drain — stop() (or SIGTERM via requestStop()) closes
///     the listeners and lets every shard independently finish its
///     queued work, flush buffered responses, then join. No request
///     that was accepted is dropped, on any shard.
///   * Robustness — malformed frames or payloads close that one
///     connection with a diagnostic; nothing a client sends can crash
///     or hang the daemon.
///
/// The STATS request renders live metrics (sharded ServerMetrics +
/// cache + exec-pool stats) as one JSON document, served from the
/// event loop without touching the worker queues — observability
/// stays responsive under overload. statsJson() is safe from any
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SERVER_SERVER_H
#define VIRGIL_SERVER_SERVER_H

#include "exec/Executor.h"
#include "net/Frame.h"
#include "net/Poller.h"
#include "server/Metrics.h"
#include "service/CompileService.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace virgil {
namespace server {

struct ServerConfig {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string UnixPath;
  /// TCP listener; Port < 0 disables it, 0 binds an ephemeral port
  /// (read back via tcpPort()).
  std::string TcpHost = "127.0.0.1";
  int TcpPort = -1;

  int Workers = 2;
  /// Event-loop threads. Each owns one shard (poller, connections,
  /// queue); workers are distributed round-robin across shards, and
  /// the effective worker count is raised to at least IoThreads so no
  /// shard is starved. 1 reproduces the classic single-loop daemon.
  int IoThreads = 1;
  /// Per-shard request-queue bound; overflow answers BUSY.
  size_t QueueCap = 64;

  /// Bytecode cache (shared across requests); empty disables it.
  std::string CacheDir;
  uint64_t CacheMaxBytes = 0;

  /// Per-request execution: default and maximum quotas (a request may
  /// tighten them; anything above the maximum is clamped), the request
  /// VM's engine settings (defaults from FeatureAxes), and the warm-VM
  /// pool (per worker: repeat sources skip the compile service and heap
  /// setup, reusing a reset VM observationally identical to a fresh
  /// one; off for the ablation baseline and differential testing).
  exec::ExecutorConfig Exec;

  CompilerOptions Compile;
};

class Server {
public:
  explicit Server(ServerConfig Config);
  ~Server();

  /// Opens the listeners and spawns the event loops + workers. False
  /// (with \p Err) if no listener could be opened.
  bool start(std::string *Err);

  /// Graceful shutdown: drain every shard's queue, flush responses,
  /// join all threads. Idempotent.
  void stop();

  /// Async-signal-safe shutdown trigger (the SIGTERM handler calls
  /// this; the owner still calls stop() to join).
  void requestStop();

  /// True once requestStop()/stop() was called.
  bool stopping() const { return Stopping.load(); }

  /// The bound TCP port (after start() with TcpPort >= 0).
  uint16_t tcpPort() const { return BoundTcpPort; }

  /// The live STATS document (also what a STATS frame returns).
  /// Thread-safe: callable from any thread, any time after start().
  std::string statsJson() const;

private:
  struct Conn {
    int Fd = -1;
    net::FrameDecoder Decoder;
    std::string WriteBuf;
    size_t WritePos = 0;
    bool CloseAfterFlush = false;
  };

  struct Work {
    uint64_t ConnId = 0;
    MsgType Type = MsgType::ExecuteReq;
    ExecuteRequest Req; ///< CompileReq reuses the same payload shape.
    std::chrono::steady_clock::time_point Enqueued;
  };

  struct Response {
    uint64_t ConnId;
    std::string Bytes;
  };

  /// One event-loop thread's world. Everything here (except the
  /// explicitly synchronized queue/response/gauge members) is touched
  /// only by the owning loop thread.
  struct Shard {
    int Id = 0;
    net::Poller Poll;
    int WakePipe[2] = {-1, -1};
    /// Per-shard SO_REUSEPORT TCP listener; -1 when the shard polls
    /// the shared listener instead.
    int TcpListenFd = -1;
    std::map<uint64_t, Conn> Conns;
    uint64_t NextConnSeq = 1;
    /// Mirror of Conns.size() readable by statsJson() cross-thread.
    std::atomic<size_t> ActiveConns{0};

    mutable std::mutex QueueMu;
    std::condition_variable QueueCv;
    std::deque<Work> Queue;
    /// Requests popped but not yet answered; drain waits for zero.
    std::atomic<int> InFlight{0};

    std::mutex RespMu;
    std::vector<Response> Responses;

    std::thread LoopThread;
  };

  void eventLoop(Shard &S);
  void workerLoop(int WorkerId);
  void acceptOn(Shard &S, int ListenFd);
  /// Reads available bytes and processes complete frames. False when
  /// the connection should be torn down now.
  bool serviceRead(Shard &S, uint64_t ConnId, Conn &C);
  /// Handles one decoded frame; false tears the connection down.
  bool handleFrame(Shard &S, uint64_t ConnId, Conn &C, const net::Frame &F);
  bool flushWrites(Conn &C);
  void queueResponse(Conn &C, uint8_t Type, const std::string &Payload);
  void closeConn(Shard &S, uint64_t ConnId);
  void wakeShard(Shard &S);
  Shard &shardOfConn(uint64_t ConnId) const {
    return *Shards[(size_t)(ConnId >> 48) % Shards.size()];
  }

  ServerConfig Config;
  std::unique_ptr<CompileService> Service;
  /// One Executor (with its warm-VM pool) per worker thread.
  std::vector<std::unique_ptr<exec::Executor>> Execs;
  ServerMetrics Metrics;
  std::chrono::steady_clock::time_point StartTime;

  /// Shared listeners: the Unix socket always; TCP only when
  /// SO_REUSEPORT sharding is off or unavailable.
  int TcpListenFd = -1;
  int UnixListenFd = -1;
  uint16_t BoundTcpPort = 0;

  std::vector<std::unique_ptr<Shard>> Shards;
  /// Flat copy of every shard's wake-pipe write end, fixed before the
  /// signal handler can fire: requestStop() must stay async-signal-
  /// safe, so it indexes this array instead of walking Shards.
  static constexpr int kMaxIoThreads = 64;
  int WakeFds[kMaxIoThreads];
  int NumWakeFds = 0;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Started{false};
  bool Joined = false;
  std::vector<std::thread> WorkerThreads;
};

} // namespace server
} // namespace virgil

#endif // VIRGIL_SERVER_SERVER_H
