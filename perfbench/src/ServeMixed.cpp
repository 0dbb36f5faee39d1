//===- perfbench/src/ServeMixed.cpp - serve_mixed workload ----------------===//
///
/// \file
/// The shipped virgild in its own process (2 workers, 1 I/O thread, a
/// fresh cache dir), driven by an open loop at a fixed offered rate:
/// requests are due at evenly spaced instants and each is timed from
/// when it was due until its response arrived, so a stall charges every
/// request queued behind it. One thread drives kConns Unix-socket
/// connections with one request in flight on each. Not pipelined:
/// virgild answers a connection's pipelined requests in completion
/// order, not request order, and responses carry no id.
///
/// Request classes, in shuffled blocks of 20 (so the mix is exact):
///   hot  (16/20) — kHotSources sources that fit the warm-VM pools
///                  (2 workers x 8); primed by executing them in setup,
///                  so these are pool hits;
///   warm  (3/20) — kWarmSources sources, more than the pools hold,
///                  compiled into the disk cache during setup, so these
///                  run cache load, deserialize and BcPrepare;
///   cold  (1/20) — sources the server has never seen: compile, cache
///                  store, run.
///
/// Every response is checked against the polymorphic interpreter's
/// result for its source; BUSY, errors and transport failures count as
/// failed ops.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "corpus/Generators.h"
#include "server/Client.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <filesystem>
#include <set>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

using namespace virgil;
using namespace virgil::server;

namespace {

constexpr double kRatePerSec = 1000;
constexpr int kConns = 4;
constexpr int kWorkers = 2;
constexpr int kHotSources = 4;
/// Hot sources run kHotScale times the family's mid-range size, so their
/// latency is mostly execution on a warm VM rather than wake-ups.
constexpr int kHotScale = 2;
constexpr int kWarmSources = 48;
/// The generator is behind when its p99 send delay exceeds this; such a
/// run is invalid and reports no numbers.
constexpr double kLateBoundMs = 20;
/// The latency limit on req_p99_ms.
constexpr double kP99LimitMs = 100;

enum Class : uint8_t { Hot, Warm, Cold };
const char *const kClassNames[] = {"hot", "warm", "cold"};

/// The daemon process. Stopped (SIGTERM, then SIGKILL after 10 s) and
/// reaped on destruction.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const RunContext &Ctx, const std::string &Dir,
             std::string *Err) {
    Sock = Dir + "/d.sock";
    std::string Cache = Dir + "/cache", Log = Dir + "/virgild.log";
    std::vector<std::string> Args = {Ctx.Virgild,
                                     "--unix",
                                     Sock,
                                     "--workers",
                                     std::to_string(kWorkers),
                                     "--io-threads",
                                     "1",
                                     "--cache-dir",
                                     Cache};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    int Rc = posix_spawn(&Pid, Ctx.Virgild.c_str(), &FA, nullptr,
                         Argv.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Rc != 0) {
      Pid = -1;
      *Err = "cannot start " + Ctx.Virgild;
      return false;
    }
    for (int Try = 0; Try != 1000; ++Try) {
      Client C;
      std::string E;
      if (C.connectUnix(Sock, &E) && C.ping(&E))
        return true;
      if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        *Err = "virgild exited at startup (see " + Log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    *Err = "virgild did not come up";
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int Try = 0; Try != 1000; ++Try) {
      if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  int pid() const { return Pid; }
  const std::string &socket() const { return Sock; }

private:
  pid_t Pid = -1;
  std::string Sock;
};

/// Flattens a JSON document into "a.b.0.c" -> number; strings, bools
/// and nulls are skipped. Enough for the STATS document.
class FlatJson {
public:
  explicit FlatJson(const std::string &Text) : S(Text) { value(""); }
  double get(const std::string &Path) const {
    auto It = Nums.find(Path);
    return It == Nums.end() ? 0 : It->second;
  }
  /// Sum of `<Prefix>.<i>.<Field>` over every array index i.
  double sumOver(const std::string &Prefix, const std::string &Field) const {
    double Total = 0;
    for (int I = 0;; ++I) {
      auto It = Nums.find(Prefix + "." + std::to_string(I) + "." + Field);
      if (It == Nums.end())
        return Total;
      Total += It->second;
    }
  }

private:
  void ws() {
    while (P < S.size() && std::isspace((unsigned char)S[P]))
      ++P;
  }
  std::string str() {
    std::string O;
    ++P; // opening quote
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\')
        ++P;
      if (P < S.size())
        O += S[P++];
    }
    ++P;
    return O;
  }
  void value(const std::string &Path) {
    ws();
    if (P >= S.size())
      return;
    auto join = [&](const std::string &K) {
      return Path.empty() ? K : Path + "." + K;
    };
    if (S[P] == '{') {
      ++P;
      for (ws(); P < S.size() && S[P] != '}';) {
        std::string K = str();
        ws();
        ++P; // ':'
        value(join(K));
        ws();
        if (P < S.size() && S[P] == ',')
          ++P, ws();
      }
      ++P;
    } else if (S[P] == '[') {
      ++P;
      int I = 0;
      for (ws(); P < S.size() && S[P] != ']'; ++I) {
        value(join(std::to_string(I)));
        ws();
        if (P < S.size() && S[P] == ',')
          ++P, ws();
      }
      ++P;
    } else if (S[P] == '"') {
      str();
    } else {
      size_t End = P;
      while (End < S.size() && !std::strchr(",}] \n\t\r", S[End]))
        ++End;
      std::string Tok = S.substr(P, End - P);
      P = End;
      char *Stop = nullptr;
      double V = std::strtod(Tok.c_str(), &Stop);
      if (Stop && *Stop == '\0' && !Tok.empty())
        Nums[Path] = V;
    }
  }

  const std::string S;
  size_t P = 0;
  std::map<std::string, double> Nums;
};

bool fetchStats(const std::string &Sock, std::string *Json, std::string *Err) {
  Client C;
  return C.connectUnix(Sock, Err) && C.stats(Json, Err);
}

struct Prog {
  Source Src;
  Expectation Ref;
};

struct Request {
  Class K = Hot;
  int Prog = 0; ///< index into the class's source list
  int64_t DueNs = 0;
  /// When the generator released it (lateness = WakeNs - DueNs).
  int64_t WakeNs = 0;
  int64_t SendNs = 0;
  int64_t RecvNs = 0;
  bool Ok = false;
  ExecuteResponse Resp;
};

/// Inputs for one run: the three source sets and the request schedule.
struct Plan {
  std::vector<Prog> Sets[3];
  std::vector<std::pair<Class, int>> Schedule;
};

/// One program family: a generator whose size parameter the seed draws
/// from [Lo, Hi], wide enough for every cold request of a run to get a
/// distinct value. Different parameters give different source text (the
/// parameter is a literal in it), so cold requests are never-seen
/// sources whose compile work is the family's.
struct Family {
  const char *Name;
  int Lo, Hi;
  std::string (*Gen)(int);
};

const Family kFamilies[] = {
    {"tuple", 1000, 3000, [](int N) { return corpus::genTupleWorkload(4, N); }},
    {"polycall", 1000, 3000, corpus::genPolyCallWorkload},
    {"adhoc", 1000, 3000,
     [](int N) { return corpus::genAdhocWorkload(4, N, false); }},
    {"variance", 100, 1100,
     [](int N) { return corpus::genVarianceWorkload(16, N, true); }},
    {"matcher", 500, 1500,
     [](int N) { return corpus::genMatcherWorkload(4, N); }},
    {"callconv", 2000, 6000, corpus::genCallConvWorkload},
};
constexpr int kFamilyCount = sizeof(kFamilies) / sizeof(kFamilies[0]);

Plan makePlan(const RunContext &Ctx) {
  Rng R(Ctx.Seed, /*Stream=*/3);
  Plan P;
  size_t N = (size_t)(kRatePerSec * (Ctx.Seconds + kWarmupSeconds));
  std::set<std::string> Seen;
  // Hot sources sit mid-range (+-5%) so each seed's hot set costs about
  // the same; warm and cold ones use the family's full range.
  auto add = [&](Class K, const Family &F, bool Mid) {
    for (;;) {
      int Span = (F.Hi - F.Lo) / 20, Mid0 = kHotScale * (F.Lo + F.Hi) / 2;
      int Param = Mid ? R.range(Mid0 - Span, Mid0 + Span) : R.range(F.Lo, F.Hi);
      std::string Text = F.Gen(Param);
      if (!Seen.insert(Text).second)
        continue;
      P.Sets[K].push_back({{std::string(kClassNames[K]) + "-" + F.Name +
                                std::to_string(Param),
                            Text},
                           {}});
      return;
    }
  };
  for (int I = 0; I != kHotSources; ++I)
    add(Hot, kFamilies[I % kFamilyCount], true);
  for (int I = 0; I != kWarmSources; ++I)
    add(Warm, kFamilies[I % kFamilyCount], false);
  for (size_t I = 0; I < (N + 19) / 20; ++I)
    add(Cold, kFamilies[I % kFamilyCount], false);
  int NextCold = 0;
  for (size_t Block = 0; Block * 20 < N; ++Block) {
    std::vector<std::pair<Class, int>> B;
    for (int I = 0; I != 16; ++I)
      B.push_back({Hot, R.range(0, kHotSources - 1)});
    for (int I = 0; I != 3; ++I)
      B.push_back({Warm, R.range(0, kWarmSources - 1)});
    B.push_back({Cold, NextCold++});
    std::shuffle(B.begin(), B.end(), R.engine());
    P.Schedule.insert(P.Schedule.end(), B.begin(), B.end());
  }
  P.Schedule.resize(N);
  return P;
}

/// Sends every hot source a few times (so each worker pools it) and
/// compiles the warm set into the cache.
bool prime(const Daemon &D, const Plan &P, std::string *Err) {
  Client C;
  if (!C.connectUnix(D.socket(), Err))
    return false;
  for (const Prog &W : P.Sets[Warm]) {
    ExecuteRequest Req;
    Req.Name = W.Src.Name;
    Req.Source = W.Src.Text;
    CompileResponse Resp;
    bool Busy = false;
    if (!C.compile(Req, &Resp, &Busy, Err) || Busy || Resp.O != Outcome::Ok) {
      *Err = "priming the cache failed for " + W.Src.Name;
      return false;
    }
  }
  // Pipelined bursts, so both workers pick up each hot source.
  for (int Round = 0; Round != 4; ++Round) {
    for (const Prog &H : P.Sets[Hot]) {
      ExecuteRequest Req;
      Req.Name = H.Src.Name;
      Req.Source = H.Src.Text;
      if (!C.sendFrame((uint8_t)MsgType::ExecuteReq,
                       encodeExecuteRequest(Req), Err))
        return false;
    }
    for (size_t I = 0; I != P.Sets[Hot].size(); ++I) {
      net::Frame F;
      if (!C.recvFrame(&F, Err))
        return false;
    }
  }
  return true;
}

} // namespace

WorkloadResult runServeMixed(const RunContext &Ctx, SpanLog *Trace) {
  WorkloadResult Res;
  std::string Err;

  // Set-up: generate sources, start a fresh daemon, prime pool and
  // cache. Repeated three times; the last daemon serves the run.
  std::vector<double> SetupS;
  Plan P;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep != 3; ++Rep) {
    std::string Dir = Ctx.WorkDir + "/serve" + std::to_string(Rep);
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir, EC);
    D.reset();
    Clock::time_point T0 = Clock::now();
    P = makePlan(Ctx);
    D = std::make_unique<Daemon>();
    if (!D->start(Ctx, Dir, &Err) || !prime(*D, P, &Err)) {
      Res.fail("set-up: " + Err);
      return Res;
    }
    SetupS.push_back(msSince(T0) / 1000);
  }
  for (auto &Set : P.Sets)
    for (Prog &Pr : Set) {
      std::optional<Expectation> E = interpretReference(Pr.Src, &Err);
      if (!E) {
        Res.fail(Pr.Src.Name + ": no reference: " + Err);
        return Res;
      }
      Pr.Ref = *E;
    }

  std::string Before;
  if (!fetchStats(D->socket(), &Before, &Err)) {
    Res.fail("STATS: " + Err);
    return Res;
  }
  FlatJson S0(Before);

  std::vector<Client> Conns(kConns);
  for (Client &C : Conns)
    if (!C.connectUnix(D->socket(), &Err)) {
      Res.fail("connect: " + Err);
      return Res;
    }
  const size_t N = P.Schedule.size();
  std::vector<Request> Reqs(N);
  std::vector<std::string> Payloads(N);
  for (size_t I = 0; I != N; ++I) {
    auto [K, Idx] = P.Schedule[I];
    Reqs[I].K = K;
    Reqs[I].Prog = Idx;
    ExecuteRequest Req;
    Req.Name = P.Sets[K][Idx].Src.Name;
    Req.Source = P.Sets[K][Idx].Src.Text;
    Payloads[I] = encodeExecuteRequest(Req);
  }

  // One thread drives every connection: it releases each request at its
  // due time into Ready, sends from Ready on any idle connection, and
  // sleeps in ppoll until the next due time or a response. Waiting in
  // Ready for an idle connection is part of a request's latency (the
  // server's backlog), not generator lateness.
  std::deque<size_t> Ready;
  std::vector<long> InFlight(kConns, -1);
  std::vector<pollfd> Fds(kConns);
  uint64_t Busy = 0;
  std::string TransportErr;
  const int64_t Start = SpanLog::nowNs() + 1000000;
  const double GapNs = 1e9 / kRatePerSec;
  size_t Released = 0, Done = 0;
  const int64_t GiveUp =
      Start + (int64_t)((Ctx.Seconds + kWarmupSeconds + 30) * 1e9);
  while (Done != N && TransportErr.empty()) {
    int64_t Now = SpanLog::nowNs();
    if (Now > GiveUp) {
      TransportErr = "no response within 30 s of the last due time";
      break;
    }
    for (; Released != N; ++Released) {
      Request &R = Reqs[Released];
      R.DueNs = Start + (int64_t)(GapNs * (double)Released);
      if (R.DueNs > Now)
        break;
      R.WakeNs = Now;
      Ready.push_back(Released);
    }
    for (int C = 0; C != kConns && !Ready.empty(); ++C) {
      if (InFlight[C] >= 0)
        continue;
      size_t I = Ready.front();
      Ready.pop_front();
      Reqs[I].SendNs = SpanLog::nowNs();
      if (!Conns[C].sendFrame((uint8_t)MsgType::ExecuteReq, Payloads[I],
                              &TransportErr))
        break;
      InFlight[C] = (long)I;
    }
    int Waiting = 0;
    for (int C = 0; C != kConns; ++C) {
      Fds[C].fd = InFlight[C] >= 0 ? Conns[C].fd() : -1;
      Fds[C].events = POLLIN;
      Fds[C].revents = 0;
      Waiting += InFlight[C] >= 0;
    }
    int64_t Until =
        Released != N ? Start + (int64_t)(GapNs * (double)Released) : GiveUp;
    if (!Waiting && Released == N)
      continue;
    Now = SpanLog::nowNs();
    timespec Timeout{0, 0};
    if (Until > Now) {
      Timeout.tv_sec = (Until - Now) / 1000000000;
      Timeout.tv_nsec = (Until - Now) % 1000000000;
    }
    if (ppoll(Fds.data(), kConns, &Timeout, nullptr) < 0 && errno != EINTR) {
      TransportErr = "ppoll failed";
      break;
    }
    for (int C = 0; C != kConns; ++C) {
      if (InFlight[C] < 0 || !(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Request &R = Reqs[InFlight[C]];
      net::Frame F;
      if (!Conns[C].recvFrame(&F, &TransportErr))
        break;
      R.RecvNs = SpanLog::nowNs();
      if (F.Type == (uint8_t)MsgType::BusyResp)
        ++Busy;
      else if (F.Type == (uint8_t)MsgType::ExecuteResp)
        R.Ok = decodeExecuteResponse(F.Payload, &R.Resp);
      InFlight[C] = -1;
      ++Done;
    }
  }
  if (!TransportErr.empty())
    Res.fail("transport: " + TransportErr);
  const int64_t End = SpanLog::nowNs();

  std::string After;
  if (!fetchStats(D->socket(), &After, &Err)) {
    Res.fail("STATS: " + Err);
    return Res;
  }
  FlatJson S1(After);
  double RssMb = peakRssMb(D->pid());
  D->stop();

  // Check every request; score those due after the warm-up second.
  const size_t WarmupN = (size_t)(kRatePerSec * kWarmupSeconds);
  std::vector<double> Lat, ClassLat[3], Late, Overhead, ExecMs, ClassExec[3],
      ColdCompile, CompileTotal, WarmLoad, GcMs;
  // (due time, value) samples for the per-window statistics.
  std::vector<std::pair<int64_t, double>> TimedLat, TimedColdLat;
  for (size_t I = 0; I != N; ++I) {
    Request &R = Reqs[I];
    ++Res.Attempted;
    const Prog &Pr = P.Sets[R.K][R.Prog];
    int64_t Send = R.SendNs;
    if (!R.Ok) {
      Res.fail(Pr.Src.Name + (R.RecvNs ? ": BUSY or protocol error"
                                       : ": no response"));
      continue;
    }
    const ExecuteResponse &X = R.Resp;
    std::string Bad;
    if (X.O != Outcome::Ok)
      Bad = std::string(outcomeName(X.O)) + ": " + X.Message;
    else if (X.Output != Pr.Ref.Output)
      Bad = "output differs from reference";
    else if (Pr.Ref.HasResult &&
             (!X.HasResult || (int64_t)(int32_t)X.ResultBits != Pr.Ref.Result))
      Bad = "result " + std::to_string((int32_t)X.ResultBits) +
            " != reference " + std::to_string(Pr.Ref.Result);
    if (!Bad.empty()) {
      Res.fail(Pr.Src.Name + ": " + Bad);
      continue;
    }
    if (I < WarmupN)
      continue;
    double L = (double)(R.RecvNs - R.DueNs) / 1e6;
    double Rtt = (double)(R.RecvNs - Send) / 1e6;
    Lat.push_back(L);
    ClassLat[R.K].push_back(L);
    TimedLat.push_back({R.DueNs, L});
    if (R.K == Cold)
      TimedColdLat.push_back({R.DueNs, L});
    Late.push_back((double)(R.WakeNs - R.DueNs) / 1e6);
    Overhead.push_back(Rtt - X.CompileMs - X.ExecuteMs);
    ExecMs.push_back(X.ExecuteMs);
    ClassExec[R.K].push_back(X.ExecuteMs);
    GcMs.push_back((double)X.GcPauseNs / 1e6);
    if (R.K == Cold) {
      ColdCompile.push_back(X.CompileMs);
      CompileTotal.push_back(FlatJson(X.TimingsJson).get("total_ms"));
    } else if (R.K == Warm) {
      WarmLoad.push_back(X.CompileMs);
    }
    if (Trace) {
      uint64_t Id = Trace->nextId();
      int Root = Trace->add(Id, "request", -1, R.DueNs, R.RecvNs);
      Trace->add(Id, "loadgen.wait", Root, R.DueNs, Send);
      int Rt = Trace->add(Id, "rtt", Root, Send, R.RecvNs);
      // The server reports durations, not instants: place them back to
      // back at the end of the round trip.
      int64_t ExecStart = R.RecvNs - (int64_t)(X.ExecuteMs * 1e6);
      int64_t CompStart = ExecStart - (int64_t)(X.CompileMs * 1e6);
      Trace->add(Id, "service.compile", Rt, CompStart, ExecStart);
      Trace->add(Id, "vm.execute", Rt, ExecStart, R.RecvNs);
    }
  }

  double LateP99 = quantile(Late, 0.99);
  double WindowMs = (double)(End - Start) / 1e6;
  std::printf("serve_mixed: %zu requests at %.0f/s over %d connections; "
              "hot %d / warm %d / cold %zu sources; p99 limit %.0f ms "
              "(%s); generator late p99 %.3f ms (bound %.0f ms); "
              "%llu BUSY\n",
              N, kRatePerSec, kConns, kHotSources, kWarmSources,
              P.Sets[Cold].size(), kP99LimitMs,
              quantile(Lat, 0.99) <= kP99LimitMs ? "met" : "MISSED", LateP99,
              kLateBoundMs, (unsigned long long)Busy);
  if (LateP99 > kLateBoundMs) {
    Res.Invalid = "load generator fell behind: late p99 " +
                  std::to_string(LateP99) + " ms";
    return Res;
  }

  if (!Trace) {
    std::vector<double> ClassMedians;
    for (auto &V : ClassExec)
      if (!V.empty())
        ClassMedians.push_back(median(V));
    Res.set("setup_s", median(SetupS), "s");
    // compile_ms: Compiler::compile inside the server (PhaseTimings
    // total) over every cold request of the run.
    Res.set("compile_ms_p50", quantile(CompileTotal, 0.5), "ms");
    Res.set("compile_ms_p99", quantile(CompileTotal, 0.99), "ms");
    // Latencies are medians over the run's 2 s windows of each window's
    // quantile (2000 requests a window: twenty beyond its p99), so one
    // slow stretch of the host moves only its own windows.
    const int64_t W = 2000000000;
    Res.set("bytecode_bytes", S0.get("cache.disk_bytes"), "bytes");
    Res.set("run_ms_geomean", geomean(ClassMedians), "ms");
    Res.set("req_p50_ms", windowedQuantile(TimedLat, W, 0.5), "ms");
    Res.set("req_p99_ms", windowedQuantile(TimedLat, W, 0.99), "ms");
    Res.set("req_cold_p50_ms", windowedQuantile(TimedColdLat, W, 0.5), "ms");
    Res.set("peak_rss_mb", RssMb, "MiB");
    return Res;
  }

  auto delta = [&](const std::string &Key) {
    return S1.get(Key) - S0.get(Key);
  };
  auto pct = [](double Part, double Whole) {
    return Whole > 0 ? 100 * Part / Whole : 0;
  };
  double CacheHits = delta("cache.hits"), CacheMiss = delta("cache.misses");
  double PoolHits = delta("exec.vm_pool.hits"),
         PoolMiss = delta("exec.vm_pool.misses");
  double BusyMs = S1.sumOver("workers", "busy_ms") -
                  S0.sumOver("workers", "busy_ms");
  Res.set("serve.hot_ms_p50", quantile(ClassLat[Hot], 0.5), "ms");
  Res.set("serve.warm_ms_p50", quantile(ClassLat[Warm], 0.5), "ms");
  Res.set("serve.cold_ms_p50", quantile(ClassLat[Cold], 0.5), "ms");
  Res.set("server.overhead_ms_p50", quantile(Overhead, 0.5), "ms");
  Res.set("server.queue_wait_ms_p50", S1.get("latency_ms.queue_wait.p50_ms"),
          "ms");
  Res.set("server.queue_wait_ms_p99", S1.get("latency_ms.queue_wait.p99_ms"),
          "ms");
  Res.set("server.worker_util_pct", pct(BusyMs, kWorkers * WindowMs), "%");
  Res.set("server.busy", (double)Busy, "count");
  Res.set("service.compile_ms_p50", quantile(ColdCompile, 0.5), "ms");
  Res.set("service.load_ms_p50", quantile(WarmLoad, 0.5), "ms");
  Res.set("service.cache_hit_pct", pct(CacheHits, CacheHits + CacheMiss), "%");
  Res.set("exec.pool_hit_pct", pct(PoolHits, PoolHits + PoolMiss), "%");
  Res.set("vm.execute_ms_p50", quantile(ExecMs, 0.5), "ms");
  Res.set("serve.gc_pause_ms", sum(GcMs) / (double)std::max<size_t>(1, GcMs.size()),
          "ms");
  Res.set("loadgen.late_ms_p99", LateP99, "ms");
  return Res;
}

} // namespace perfbench
