//===- server/Server.cpp --------------------------------------------------===//

#include "server/Server.h"

#include "net/Socket.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace virgil;
using namespace virgil::server;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

constexpr int kMaxIoThreadsLocal = 64;

ServerConfig normalized(ServerConfig C) {
  if (C.Workers <= 0)
    C.Workers = 1;
  if (C.IoThreads <= 0)
    C.IoThreads = 1;
  if (C.IoThreads > kMaxIoThreadsLocal)
    C.IoThreads = kMaxIoThreadsLocal;
  // Every shard needs at least one worker draining its queue.
  if (C.Workers < C.IoThreads)
    C.Workers = C.IoThreads;
  if (C.Exec.PoolSize == 0)
    C.Exec.UsePool = false;
  return C;
}

} // namespace

Server::Server(ServerConfig C)
    : Config(normalized(std::move(C))),
      Metrics(Config.Workers, Config.IoThreads) {
  ServiceOptions SO;
  SO.Jobs = 1; // workers call compileOne directly; no inner pool
  SO.CacheDir = Config.CacheDir;
  SO.CacheMaxBytes = Config.CacheMaxBytes;
  SO.Compile = Config.Compile;
  Service = std::make_unique<CompileService>(SO);

  Execs.reserve((size_t)Config.Workers);
  for (int W = 0; W != Config.Workers; ++W)
    Execs.push_back(std::make_unique<exec::Executor>(Config.Exec, *Service));
}

Server::~Server() { stop(); }

bool Server::start(std::string *Err) {
  if (Started.load())
    return true;
  if (Config.UnixPath.empty() && Config.TcpPort < 0) {
    if (Err)
      *Err = "no listener configured (need a unix path or tcp port)";
    return false;
  }

  Shards.clear();
  for (int I = 0; I != Config.IoThreads; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Id = I;
  }

  auto Fail = [&] {
    for (auto &S : Shards) {
      net::closeFd(S->TcpListenFd);
      net::closeFd(S->WakePipe[0]);
      net::closeFd(S->WakePipe[1]);
    }
    Shards.clear();
    net::closeFd(UnixListenFd);
    net::closeFd(TcpListenFd);
    UnixListenFd = TcpListenFd = -1;
    NumWakeFds = 0;
    return false;
  };

  if (!Config.UnixPath.empty()) {
    // One shared Unix listener: every shard polls it and accept() is
    // the arbiter (losers see EAGAIN, which acceptOn tolerates).
    UnixListenFd = net::listenUnix(Config.UnixPath, Err);
    if (UnixListenFd < 0)
      return Fail();
    net::setNonBlocking(UnixListenFd, true);
  }
  if (Config.TcpPort >= 0) {
    if (Config.IoThreads > 1) {
      // Per-shard SO_REUSEPORT listeners: the kernel spreads accepts
      // across shards with no thundering herd. The first listener may
      // bind an ephemeral port; the rest bind the read-back port.
      bool ReusePortOk = true;
      std::string ReuseErr;
      for (auto &S : Shards) {
        uint16_t Port = S->Id == 0 ? (uint16_t)Config.TcpPort : BoundTcpPort;
        S->TcpListenFd =
            net::listenTcp(Config.TcpHost, Port, &ReuseErr,
                           S->Id == 0 ? &BoundTcpPort : nullptr, true);
        if (S->TcpListenFd < 0) {
          ReusePortOk = false;
          break;
        }
        net::setNonBlocking(S->TcpListenFd, true);
      }
      if (!ReusePortOk) {
        // Platform without SO_REUSEPORT (or a bind race): fall back to
        // one shared listener all shards poll, like the Unix socket.
        for (auto &S : Shards) {
          net::closeFd(S->TcpListenFd);
          S->TcpListenFd = -1;
        }
        BoundTcpPort = 0;
        TcpListenFd = net::listenTcp(Config.TcpHost, (uint16_t)Config.TcpPort,
                                     Err, &BoundTcpPort);
        if (TcpListenFd < 0)
          return Fail();
        net::setNonBlocking(TcpListenFd, true);
      }
    } else {
      TcpListenFd = net::listenTcp(Config.TcpHost, (uint16_t)Config.TcpPort,
                                   Err, &BoundTcpPort);
      if (TcpListenFd < 0)
        return Fail();
      net::setNonBlocking(TcpListenFd, true);
    }
  }

  NumWakeFds = 0;
  for (auto &S : Shards) {
    if (::pipe(S->WakePipe) != 0) {
      if (Err)
        *Err = std::string("pipe: ") + std::strerror(errno);
      return Fail();
    }
    net::setNonBlocking(S->WakePipe[0], true);
    net::setNonBlocking(S->WakePipe[1], true);
    WakeFds[NumWakeFds++] = S->WakePipe[1];
  }

  StartTime = Clock::now();
  Started.store(true);
  for (auto &S : Shards) {
    Shard *P = S.get();
    P->LoopThread = std::thread([this, P] { eventLoop(*P); });
  }
  WorkerThreads.reserve((size_t)Config.Workers);
  for (int W = 0; W != Config.Workers; ++W)
    WorkerThreads.emplace_back([this, W] { workerLoop(W); });
  return true;
}

void Server::requestStop() {
  Stopping.store(true);
  // Async-signal-safe: a flag store and one write per shard's wake
  // pipe; EAGAIN means that loop is already due to wake.
  char B = 1;
  for (int I = 0; I != NumWakeFds; ++I)
    if (WakeFds[I] >= 0)
      (void)!::write(WakeFds[I], &B, 1);
}

void Server::stop() {
  if (!Started.load() || Joined)
    return;
  requestStop();
  for (auto &S : Shards)
    S->QueueCv.notify_all();
  for (auto &S : Shards)
    if (S->LoopThread.joinable())
      S->LoopThread.join();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  Joined = true;
  for (auto &S : Shards) {
    net::closeFd(S->TcpListenFd);
    net::closeFd(S->WakePipe[0]);
    net::closeFd(S->WakePipe[1]);
    S->TcpListenFd = S->WakePipe[0] = S->WakePipe[1] = -1;
  }
  NumWakeFds = 0;
  net::closeFd(UnixListenFd);
  net::closeFd(TcpListenFd);
  UnixListenFd = TcpListenFd = -1;
  if (!Config.UnixPath.empty())
    ::unlink(Config.UnixPath.c_str());
}

//===----------------------------------------------------------------------===//
// Event loops (one per shard)
//===----------------------------------------------------------------------===//

void Server::wakeShard(Shard &S) {
  char B = 1;
  (void)!::write(S.WakePipe[1], &B, 1);
}

void Server::eventLoop(Shard &S) {
  bool DrainArmed = false;
  Clock::time_point DrainDeadline;

  for (;;) {
    bool Draining = Stopping.load();
    if (Draining && !DrainArmed) {
      DrainArmed = true;
      // Workers are bounded by per-request deadlines, so the drain
      // converges; the cap protects against a client that never reads
      // its responses.
      DrainDeadline =
          Clock::now() +
          std::chrono::milliseconds(Config.Exec.MaxDeadlineMs + 5000);
    }

    // This shard's TCP accept source: its own SO_REUSEPORT listener,
    // or the shared one when per-shard listeners are off.
    int TcpFd = S.TcpListenFd >= 0 ? S.TcpListenFd : TcpListenFd;

    S.Poll.clear();
    size_t TcpIdx = (size_t)-1, UnixIdx = (size_t)-1;
    if (!Draining) {
      if (TcpFd >= 0)
        TcpIdx = S.Poll.add(TcpFd);
      if (UnixListenFd >= 0)
        UnixIdx = S.Poll.add(UnixListenFd);
    }
    S.Poll.add(S.WakePipe[0]);
    std::vector<std::pair<size_t, uint64_t>> ConnSlots;
    ConnSlots.reserve(S.Conns.size());
    for (auto &[Id, C] : S.Conns) {
      bool WantWrite = C.WritePos < C.WriteBuf.size();
      ConnSlots.emplace_back(S.Poll.add(C.Fd, WantWrite), Id);
    }

    S.Poll.wait(100);

    // Drain the wakeup pipe (the byte count is meaningless — it is
    // only a doorbell).
    char Junk[256];
    while (::read(S.WakePipe[0], Junk, sizeof(Junk)) > 0) {
    }

    // Ship worker responses to their connections (the conn may have
    // gone away; that just drops the bytes).
    {
      std::vector<Response> Ready;
      {
        std::lock_guard<std::mutex> Lock(S.RespMu);
        Ready.swap(S.Responses);
      }
      for (Response &R : Ready) {
        auto It = S.Conns.find(R.ConnId);
        if (It == S.Conns.end())
          continue;
        It->second.WriteBuf += R.Bytes;
      }
    }

    if (!Draining) {
      if (TcpIdx != (size_t)-1 && S.Poll.readable(TcpIdx))
        acceptOn(S, TcpFd);
      if (UnixIdx != (size_t)-1 && S.Poll.readable(UnixIdx))
        acceptOn(S, UnixListenFd);
    }

    std::vector<uint64_t> ToClose;
    for (auto &[Idx, Id] : ConnSlots) {
      auto It = S.Conns.find(Id);
      if (It == S.Conns.end())
        continue;
      Conn &C = It->second;
      if (S.Poll.errored(Idx)) {
        ToClose.push_back(Id);
        continue;
      }
      if (S.Poll.readable(Idx) && !C.CloseAfterFlush) {
        if (!serviceRead(S, Id, C)) {
          ToClose.push_back(Id);
          continue;
        }
      }
      if (!flushWrites(C))
        ToClose.push_back(Id);
    }
    // Flush anything the response-shipping step added to connections
    // that were not otherwise ready this round.
    for (auto &[Id, C] : S.Conns) {
      if (C.WritePos < C.WriteBuf.size() || C.CloseAfterFlush)
        if (!flushWrites(C))
          ToClose.push_back(Id);
    }
    for (uint64_t Id : ToClose)
      closeConn(S, Id);

    if (Draining) {
      // Each shard drains independently: its own queue empty, its
      // workers' in-flight count zero, its responses flushed.
      bool QueueEmpty;
      {
        std::lock_guard<std::mutex> Lock(S.QueueMu);
        QueueEmpty = S.Queue.empty();
      }
      bool RespEmpty;
      {
        std::lock_guard<std::mutex> Lock(S.RespMu);
        RespEmpty = S.Responses.empty();
      }
      bool Flushed = true;
      for (auto &[Id, C] : S.Conns)
        if (C.WritePos < C.WriteBuf.size())
          Flushed = false;
      bool Done =
          QueueEmpty && S.InFlight.load() == 0 && RespEmpty && Flushed;
      if (Done || Clock::now() >= DrainDeadline) {
        std::vector<uint64_t> All;
        for (auto &[Id, C] : S.Conns)
          All.push_back(Id);
        for (uint64_t Id : All)
          closeConn(S, Id);
        return;
      }
    }
  }
}

void Server::acceptOn(Shard &S, int ListenFd) {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // EAGAIN (including another shard winning the race on a shared
      // listener) or a transient accept error: poll again later.
      return;
    }
    net::setNonBlocking(Fd, true);
    Conn C;
    C.Fd = Fd;
    // Connection ids carry their shard in the top bits, so a worker
    // can route its response back to the owning loop.
    uint64_t Id = ((uint64_t)S.Id << 48) | (S.NextConnSeq++);
    S.Conns.emplace(Id, std::move(C));
    S.ActiveConns.store(S.Conns.size(), std::memory_order_relaxed);
    Metrics.onConnection(S.Id);
  }
}

bool Server::serviceRead(Shard &S, uint64_t ConnId, Conn &C) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.Decoder.feed(Buf, (size_t)N);
      if ((size_t)N < sizeof(Buf))
        break;
      continue;
    }
    if (N == 0) {
      // Peer finished sending. Process what we have, answer it, then
      // close once the write buffer flushes.
      C.CloseAfterFlush = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    return false; // hard socket error
  }

  net::Frame F;
  for (;;) {
    net::FrameDecoder::Status St = C.Decoder.next(F);
    if (St == net::FrameDecoder::Status::NeedMore)
      break;
    if (St == net::FrameDecoder::Status::Error) {
      // Malformed stream: tell the client why, then hang up. Never
      // try to resynchronize a corrupt framing layer.
      Metrics.onProtocolError(S.Id);
      ErrorResponse E{"malformed frame: " + C.Decoder.error()};
      queueResponse(C, (uint8_t)MsgType::ErrorResp,
                    encodeErrorResponse(E));
      C.CloseAfterFlush = true;
      break;
    }
    if (!handleFrame(S, ConnId, C, F))
      return false;
    if (C.CloseAfterFlush)
      break;
  }
  return true;
}

bool Server::handleFrame(Shard &S, uint64_t ConnId, Conn &C,
                         const net::Frame &F) {
  switch ((MsgType)F.Type) {
  case MsgType::ExecuteReq:
  case MsgType::CompileReq: {
    Work W;
    W.ConnId = ConnId;
    W.Type = (MsgType)F.Type;
    if (!decodeExecuteRequest(F.Payload, &W.Req)) {
      Metrics.onProtocolError(S.Id);
      ErrorResponse E{"malformed request payload"};
      queueResponse(C, (uint8_t)MsgType::ErrorResp,
                    encodeErrorResponse(E));
      C.CloseAfterFlush = true;
      return true;
    }
    if (Stopping.load()) {
      Metrics.onBusy(S.Id);
      ErrorResponse E{"server draining; retry elsewhere"};
      queueResponse(C, (uint8_t)MsgType::BusyResp,
                    encodeErrorResponse(E));
      return true;
    }
    W.Enqueued = Clock::now();
    {
      std::lock_guard<std::mutex> Lock(S.QueueMu);
      if (S.Queue.size() >= Config.QueueCap) {
        Metrics.onBusy(S.Id);
        ErrorResponse E{"queue full; retry"};
        queueResponse(C, (uint8_t)MsgType::BusyResp,
                      encodeErrorResponse(E));
        return true;
      }
      S.Queue.push_back(std::move(W));
      Metrics.onEnqueue(S.Id, S.Queue.size());
    }
    S.QueueCv.notify_one();
    return true;
  }
  case MsgType::StatsReq:
    Metrics.onStatsReq(S.Id);
    queueResponse(C, (uint8_t)MsgType::StatsResp, statsJson());
    return true;
  case MsgType::PingReq:
    Metrics.onPing(S.Id);
    queueResponse(C, (uint8_t)MsgType::PingResp, "");
    return true;
  default: {
    // Unknown or response-typed frame from a client: diagnostic, then
    // close — the stream's intent is unknowable.
    Metrics.onProtocolError(S.Id);
    char Msg[64];
    std::snprintf(Msg, sizeof(Msg), "unexpected frame type 0x%02x",
                  F.Type);
    ErrorResponse E{Msg};
    queueResponse(C, (uint8_t)MsgType::ErrorResp, encodeErrorResponse(E));
    C.CloseAfterFlush = true;
    return true;
  }
  }
}

void Server::queueResponse(Conn &C, uint8_t Type,
                           const std::string &Payload) {
  C.WriteBuf += net::encodeFrame(Type, Payload);
}

bool Server::flushWrites(Conn &C) {
  while (C.WritePos < C.WriteBuf.size()) {
    ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WritePos,
                       C.WriteBuf.size() - C.WritePos, MSG_NOSIGNAL);
    if (N > 0) {
      C.WritePos += (size_t)N;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // poll will report writability
    return false;  // peer gone
  }
  C.WriteBuf.clear();
  C.WritePos = 0;
  return !C.CloseAfterFlush;
}

void Server::closeConn(Shard &S, uint64_t ConnId) {
  auto It = S.Conns.find(ConnId);
  if (It == S.Conns.end())
    return;
  // Tell the poller first: with the epoll backend, a later connection
  // could reuse this fd number and be mistaken for a live
  // registration (see Poller::forget).
  S.Poll.forget(It->second.Fd);
  net::closeFd(It->second.Fd);
  S.Conns.erase(It);
  S.ActiveConns.store(S.Conns.size(), std::memory_order_relaxed);
  Metrics.onDisconnect(S.Id);
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::workerLoop(int WorkerId) {
  // Workers are pinned round-robin to shards; each drains only its
  // own shard's queue, so queue contention never crosses shards.
  Shard &S = *Shards[(size_t)WorkerId % Shards.size()];
  exec::Executor &Ex = *Execs[(size_t)WorkerId];
  for (;;) {
    Work W;
    {
      std::unique_lock<std::mutex> Lock(S.QueueMu);
      // wait_for rather than wait: requestStop() from a signal
      // handler cannot safely notify a condition variable, so poll
      // the flag at a coarse interval as the fallback wakeup.
      S.QueueCv.wait_for(Lock, std::chrono::milliseconds(100), [&] {
        return Stopping.load() || !S.Queue.empty();
      });
      if (S.Queue.empty()) {
        if (Stopping.load())
          return;
        continue;
      }
      W = std::move(S.Queue.front());
      S.Queue.pop_front();
      S.InFlight.fetch_add(1);
    }

    double QueueMs = msSince(W.Enqueued);
    auto T0 = Clock::now();
    double CompileMs = 0, ExecuteMs = 0;
    bool IsExecute = W.Type == MsgType::ExecuteReq;
    ExecuteResponse R = Ex.run(W.Req, IsExecute, &CompileMs, &ExecuteMs);
    double TotalMs = msSince(T0);

    std::string Payload;
    uint8_t Type;
    if (IsExecute) {
      Type = (uint8_t)MsgType::ExecuteResp;
      Payload = encodeExecuteResponse(R);
    } else {
      CompileResponse CR;
      CR.O = R.O == Outcome::CompileError ? R.O : Outcome::Ok;
      CR.Message = R.O == Outcome::CompileError ? R.Message : "";
      CR.CacheHit = R.CacheHit;
      CR.CompileMs = CompileMs;
      CR.TimingsJson = R.TimingsJson;
      Type = (uint8_t)MsgType::CompileResp;
      Payload = encodeCompileResponse(CR);
    }

    Metrics.onRequestDone(WorkerId, IsExecute, R.O, R.CacheHit, CompileMs,
                          ExecuteMs, TotalMs, QueueMs, R.Instrs, R.GcMinor,
                          R.GcMajor, R.GcPauseNs);
    {
      std::lock_guard<std::mutex> Lock(S.RespMu);
      S.Responses.push_back({W.ConnId, net::encodeFrame(Type, Payload)});
    }
    S.InFlight.fetch_sub(1);
    wakeShard(S);
  }
}

//===----------------------------------------------------------------------===//
// STATS
//===----------------------------------------------------------------------===//

std::string Server::statsJson() const {
  // Exec section: warm-VM pool totals across workers + the front-end
  // shape. Pool stats are relaxed atomics, safe to sample here.
  uint64_t Hits = 0, Misses = 0, Evictions = 0, Drops = 0, Resident = 0;
  for (const auto &E : Execs) {
    const exec::VmPoolStats &PS = E->poolStats();
    Hits += PS.Hits.load(std::memory_order_relaxed);
    Misses += PS.Misses.load(std::memory_order_relaxed);
    Evictions += PS.Evictions.load(std::memory_order_relaxed);
    Drops += PS.Drops.load(std::memory_order_relaxed);
    Resident += PS.Resident.load(std::memory_order_relaxed);
  }
  uint64_t Probes = Hits + Misses;
  double HitPct = Probes ? 100.0 * (double)Hits / (double)Probes : 0;
  const char *Backend =
      Shards.empty() ? (net::Poller::epollAvailable() ? "epoll" : "poll")
                     : Shards.front()->Poll.backendName();
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      ",\"exec\":{\"io_threads\":%zu,\"poller\":\"%s\",\"vm_pool\":{"
      "\"enabled\":%s,\"per_worker_cap\":%zu,\"resident\":%llu,"
      "\"hits\":%llu,\"misses\":%llu,\"hit_rate_pct\":%.1f,"
      "\"evictions\":%llu,\"drops\":%llu}}",
      Shards.empty() ? (size_t)Config.IoThreads : Shards.size(), Backend,
      Config.Exec.UsePool ? "true" : "false", Config.Exec.PoolSize,
      (unsigned long long)Resident, (unsigned long long)Hits,
      (unsigned long long)Misses, HitPct, (unsigned long long)Evictions,
      (unsigned long long)Drops);
  std::string Sections = Buf;

  // The mono, opt and jit sections: every worker's ExecTotals, summed,
  // plus the configuration they ran under.
  exec::ExecTotals T;
  for (const auto &E : Execs)
    T += E->totals();
  const CompilerOptions &CO = Service->options().Compile;
  std::snprintf(Buf, sizeof(Buf), ",\"compiles\":%llu,",
                (unsigned long long)T.Compiles);
  Sections += ",\"mono\":{" + axisFlags(CO, axisBit(Axis::Share), true) +
              Buf + countersJson(T.Share);
  std::snprintf(Buf, sizeof(Buf), ",\"share_ratio\":%.2f}",
                T.Share.shareRatio());
  Sections += Buf;
  Sections += ",\"opt\":{" +
              axisFlags(CO, axisBit(Axis::Escape) | axisBit(Axis::Ssa), true) +
              "," + countersJson(T.Opt) + "}";
  const VmOptions::JitMode Jit = Config.Exec.Vm.Jit;
  std::snprintf(Buf, sizeof(Buf),
                ",\"jit\":{\"mode\":\"%s\",\"threshold\":%u,",
                Jit == VmOptions::JitMode::On    ? "on"
                : Jit == VmOptions::JitMode::Off ? "off"
                                                 : "auto",
                Config.Exec.Vm.JitThreshold);
  Sections += Buf + countersJson(T.Jit) + "}";

  if (BytecodeCache *Cache = Service->cache()) {
    CacheStats CS = Cache->stats();
    uint64_t Probes = CS.Hits + CS.Misses;
    double HitPct = Probes ? 100.0 * (double)CS.Hits / (double)Probes : 0;
    std::snprintf(
        Buf, sizeof(Buf),
        ",\"cache\":{\"hits\":%llu,\"misses\":%llu,\"stores\":%llu,"
        "\"hit_rate_pct\":%.1f,\"corrupt_evictions\":%llu,"
        "\"version_evictions\":%llu,\"capacity_evictions\":%llu,"
        "\"disk_bytes\":%llu,\"max_bytes\":%llu,"
        "\"shared_bodies\":%llu,\"cache_bytes_saved\":%llu}",
        (unsigned long long)CS.Hits, (unsigned long long)CS.Misses,
        (unsigned long long)CS.Stores, HitPct,
        (unsigned long long)CS.CorruptEvictions,
        (unsigned long long)CS.VersionEvictions,
        (unsigned long long)CS.CapacityEvictions,
        (unsigned long long)Cache->diskBytes(),
        (unsigned long long)Cache->maxBytes(),
        (unsigned long long)CS.SharedBodies,
        (unsigned long long)CS.CacheBytesSaved);
    Sections += Buf;
  }

  size_t Depth = 0, Active = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->QueueMu);
    Depth += S->Queue.size();
  }
  for (const auto &S : Shards)
    Active += S->ActiveConns.load(std::memory_order_relaxed);
  size_t Cap = Config.QueueCap * (Shards.empty() ? 1 : Shards.size());
  return Metrics.toJson(msSince(StartTime), Depth, Cap, Active, Sections);
}
