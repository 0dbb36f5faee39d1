//===- bench/bench_e13_server.cpp - E13: virgild request latency -----------===//
///
/// Beyond the paper: the compile server's latency profile. One
/// in-process virgild on a Unix socket, driven by concurrent client
/// connections in closed loop, measured two ways:
///
///   cold — every request carries a distinct source (content hash
///          never repeats), so each pays parse→sema→mono→normalize→
///          emit before the VM runs;
///   warm — every request carries the same source, so after the first
///          compile the bytecode cache answers and only BcPrepare+VM
///          run.
///
/// The headline claim mirrors E11 at the request level: warm p95 must
/// beat cold p95 by at least 2x (ISSUE acceptance), typically far
/// more.
///
/// A third phase measures *sustained throughput* (E15): the same warm
/// closed-loop drive against (a) a single-event-loop daemon with the
/// warm-VM pool disabled — the pre-pool architecture — and (b) the
/// production configuration, sharded event loops + per-worker VM
/// pools. The ratio is the sustained_speedup metric
/// tools/bench_all.sh gates (>= 3x) alongside warm-p50
/// non-regression, aggregated into BENCH_server.json against
/// bench/baseline_server.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;
using namespace virgil;
using namespace virgil::bench;
using namespace virgil::server;

namespace {

/// A compile-heavy-enough program: a few classes, a generic function,
/// and a loop the VM actually runs.
std::string baseProgram() {
  return "class Accum {\n"
         "  var total: int;\n"
         "  new(total) { }\n"
         "  def add(x: int) -> int { total = total + x; return total; }\n"
         "}\n"
         "def apply<T>(f: T -> T, x: T) -> T { return f(x); }\n"
         "def twice(x: int) -> int { return x * 2; }\n"
         "def main() -> int {\n"
         "  var a = Accum.new(1);\n"
         "  for (i = 0; i < 500; i = i + 1) a.add(apply(twice, i));\n"
         "  return a.total;\n"
         "}\n";
}

struct Sample {
  std::mutex Mu;
  std::vector<double> Ms;
  std::atomic<int> Errors{0};

  void add(double V) {
    std::lock_guard<std::mutex> G(Mu);
    Ms.push_back(V);
  }
  double pct(double Q) {
    std::sort(Ms.begin(), Ms.end());
    if (Ms.empty())
      return 0;
    double Pos = Q * (double)(Ms.size() - 1);
    size_t Lo = (size_t)Pos;
    size_t Hi = std::min(Lo + 1, Ms.size() - 1);
    return Ms[Lo] + (Ms[Hi] - Ms[Lo]) * (Pos - (double)Lo);
  }
};

/// Runs \p Total closed-loop requests across \p Conns connections.
/// \p Distinct makes every source unique (cold path).
void drive(const std::string &Sock, int Conns, int Total, bool Distinct,
           Sample &Out, const std::string &Program = baseProgram()) {
  std::atomic<int> Next{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W != Conns; ++W)
    Threads.emplace_back([&Sock, &Next, Total, Distinct, &Out, &Program] {
      Client C;
      std::string Err;
      if (!C.connectUnix(Sock, &Err)) {
        Out.Errors.fetch_add(1);
        return;
      }
      for (;;) {
        int Seq = Next.fetch_add(1);
        if (Seq >= Total)
          break;
        ExecuteRequest Req;
        Req.Name = "e13-" + std::to_string(Seq);
        Req.Source = Program;
        if (Distinct)
          Req.Source += "def uniq_" + std::to_string(Seq) +
                        "() -> int { return " + std::to_string(Seq) +
                        "; }\n";
        for (;;) {
          ExecuteResponse Resp;
          bool Busy = false;
          auto T0 = std::chrono::steady_clock::now();
          if (!C.execute(Req, &Resp, &Busy, &Err)) {
            Out.Errors.fetch_add(1);
            return;
          }
          if (Busy) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          if (Resp.O != Outcome::Ok) {
            Out.Errors.fetch_add(1);
            return;
          }
          Out.add(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count());
          break;
        }
      }
    });
  for (auto &T : Threads)
    T.join();
}

/// Boots a server with \p Config rooted at \p Root, measures warm
/// closed-loop throughput (after a short prime), and returns req/s
/// (-1 on any request failure).
double sustainedRps(ServerConfig Config, const std::string &Root, int Conns,
                    int Total) {
  // A minimal program: the sustained phase measures per-request
  // *setup* throughput (framing, queueing, cache/pool probe, heap and
  // stack standup), which is exactly the cost the warm-VM pool
  // removes. Program run time would be identical in both configs and
  // only dilute the ratio.
  const std::string Tiny = "def main() -> int { return 42; }\n";
  fs::create_directories(Root);
  Config.UnixPath = Root + "/sock";
  Config.TcpPort = -1;
  Config.CacheDir = Root + "/cache";
  Server S(Config);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "E13: server start failed: %s\n", Err.c_str());
    return -1;
  }
  Sample Prime;
  drive(Config.UnixPath, 1, 3, false, Prime, Tiny);
  Sample Run;
  auto T0 = std::chrono::steady_clock::now();
  drive(Config.UnixPath, Conns, Total, /*Distinct=*/false, Run, Tiny);
  double WallSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  S.stop();
  if (Prime.Errors.load() || Run.Errors.load() ||
      Run.Ms.size() != (size_t)Total)
    return -1;
  return WallSec > 0 ? (double)Total / WallSec : -1;
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E13: virgild request latency (cold vs warm cache)",
         "One daemon, concurrent closed-loop clients: distinct-source "
         "requests pay the whole pipeline per request; repeated-source "
         "requests ride the bytecode cache into BcPrepare+VM only.");

  std::string Root = (fs::temp_directory_path() /
                      ("virgil-bench-e13-" + std::to_string(::getpid())))
                         .string();
  fs::remove_all(Root);
  fs::create_directories(Root);

  ServerConfig Config;
  Config.UnixPath = Root + "/sock";
  Config.TcpPort = -1;
  Config.Workers = 4;
  Config.QueueCap = 256;
  Config.CacheDir = Root + "/cache";
  Server S(Config);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "E13: server start failed: %s\n", Err.c_str());
    return 1;
  }

  const int Conns = Opts.Quick ? 4 : 8;
  const int ColdN = Opts.Quick ? 40 : 150;
  const int WarmN = Opts.Quick ? 200 : 1000;

  // Warm-up: populate the cache entry the warm phase will hit, and get
  // first-connection costs out of the measured windows.
  {
    Sample Prime;
    drive(Config.UnixPath, 1, 3, false, Prime);
    if (Prime.Errors.load()) {
      std::fprintf(stderr, "E13: warm-up requests failed\n");
      return 1;
    }
  }

  Sample Cold, Warm;
  drive(Config.UnixPath, Conns, ColdN, /*Distinct=*/true, Cold);
  drive(Config.UnixPath, Conns, WarmN, /*Distinct=*/false, Warm);
  S.stop();

  // Sustained-throughput phase (E15): the same warm closed-loop drive
  // against the pre-pool architecture (one event loop, pool off, disk
  // cache only) and the production one (sharded loops + VM pools).
  const int SustN = Opts.Quick ? 400 : 2000;
  unsigned Cores = std::thread::hardware_concurrency();
  int IoThreads = Cores >= 4 ? 4 : (Cores >= 2 ? 2 : 1);
  ServerConfig SingleCfg;
  SingleCfg.Workers = 4;
  SingleCfg.QueueCap = 256;
  SingleCfg.IoThreads = 1;
  SingleCfg.Exec.UsePool = false;
  double SingleRps =
      sustainedRps(SingleCfg, Root + "/single", Conns, SustN);
  ServerConfig PooledCfg;
  PooledCfg.Workers = 4;
  PooledCfg.QueueCap = 256;
  PooledCfg.IoThreads = IoThreads;
  PooledCfg.Exec.UsePool = true;
  double PooledRps =
      sustainedRps(PooledCfg, Root + "/pooled", Conns, SustN);
  fs::remove_all(Root);
  if (SingleRps < 0 || PooledRps < 0) {
    std::fprintf(stderr, "E13: sustained phase had request failures\n");
    return 1;
  }
  double SustainedSpeedup = SingleRps > 0 ? PooledRps / SingleRps : 0;

  if (Cold.Errors.load() || Warm.Errors.load() ||
      Cold.Ms.size() != (size_t)ColdN || Warm.Ms.size() != (size_t)WarmN) {
    std::fprintf(stderr, "E13: request failures (cold %zu/%d, warm %zu/%d)\n",
                 Cold.Ms.size(), ColdN, Warm.Ms.size(), WarmN);
    return 1;
  }

  double ColdP50 = Cold.pct(0.50), ColdP95 = Cold.pct(0.95);
  double WarmP50 = Warm.pct(0.50), WarmP95 = Warm.pct(0.95);
  double Speedup = WarmP95 > 0 ? ColdP95 / WarmP95 : 0;

  std::printf("%-6s %9s %10s %10s\n", "phase", "requests", "p50-ms",
              "p95-ms");
  std::printf("%-6s %9d %10.3f %10.3f\n", "cold", ColdN, ColdP50, ColdP95);
  std::printf("%-6s %9d %10.3f %10.3f\n", "warm", WarmN, WarmP50, WarmP95);
  std::printf("\nwarm p95 speedup over cold: %.1fx\n", Speedup);
  std::printf("sustained req/s: single-loop/no-pool %.1f, "
              "%d-loop/pooled %.1f (%.1fx)\n",
              SingleRps, IoThreads, PooledRps, SustainedSpeedup);

  std::printf("\n-- JSON --\n");
  std::printf("{\"experiment\":\"e13_server\",\"conns\":%d,"
              "\"cold_p50_ms\":%.3f,\"cold_p95_ms\":%.3f,"
              "\"warm_p50_ms\":%.3f,\"warm_p95_ms\":%.3f,"
              "\"warm_speedup\":%.2f,\"sustained_rps_single\":%.1f,"
              "\"sustained_rps_pooled\":%.1f,\"sustained_speedup\":%.2f}\n",
              Conns, ColdP50, ColdP95, WarmP50, WarmP95, Speedup, SingleRps,
              PooledRps, SustainedSpeedup);

  if (!Opts.JsonPath.empty()) {
    JsonReport J("e13_server");
    J.metric("cold_p50_ms", ColdP50);
    J.metric("cold_p95_ms", ColdP95);
    J.metric("warm_p50_ms", WarmP50);
    J.metric("warm_p95_ms", WarmP95);
    J.metric("warm_speedup", Speedup);
    J.metric("sustained_rps_single", SingleRps);
    J.metric("sustained_rps_pooled", PooledRps);
    J.metric("sustained_speedup", SustainedSpeedup);
    J.write(Opts.JsonPath);
  }

  if (Speedup < 2.0) {
    std::fprintf(stderr,
                 "E13: warm p95 (%.3fms) is not 2x better than cold "
                 "p95 (%.3fms)\n",
                 WarmP95, ColdP95);
    return 1;
  }
  return 0;
}
