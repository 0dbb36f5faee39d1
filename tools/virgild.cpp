//===- tools/virgild.cpp - The compile-and-execute daemon ------------------===//
///
/// \file
/// `virgild [options]` — serves compile/execute requests over the
/// length-prefixed binary protocol (DESIGN.md §10) on a TCP and/or
/// Unix-domain socket. SIGTERM/SIGINT trigger a graceful drain:
/// in-flight and queued requests finish, responses flush, then the
/// process exits 0.
///
/// Options:
///   --unix PATH          listen on a Unix-domain socket at PATH
///   --tcp HOST:PORT      listen on TCP (PORT 0 = ephemeral, printed)
///   --workers N          worker threads (default 2; 0 = all cores)
///   --io-threads N       event-loop threads, each owning a shard of
///                        the connections (default 1; 0 = all cores).
///                        Workers are raised to at least this count.
///   --queue-cap N        bounded request queue per shard (default 64);
///                        overflow answers BUSY
///   --cache-dir D        enable the content-addressed bytecode cache
///   --cache-max-bytes N  LRU-evict the cache above N bytes
///   --fuel N             default per-request instruction budget
///   --heap-max-bytes N   default per-request heap quota (caps the
///                        request VM's nursery + old space combined)
///   --deadline-ms N      default per-request wall-clock budget
///   --vm-pool-size N     warm VMs retained per worker (default 8)
///   --no-opt             compile without the optimizer
///   --stats-on-exit      print the final STATS JSON to stdout on drain
///
/// It also takes every engine feature flag (`--mono-share on|off`,
/// `--vm-jit on|off|auto`, `--vm-pool on|off`, ...). The FeatureAxes
/// table (core/FeatureAxis.h) lists them with their defaults and
/// generates their parsing and usage text; STATS reports the resulting
/// totals in its "mono", "opt", "jit" and "exec" sections.
///
/// Exit codes: 0 clean drain, 1 startup failure, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace virgil;
using namespace virgil::server;

static Server *TheServer = nullptr;

static void onSignal(int) {
  // Async-signal-safe: sets a flag and writes one pipe byte.
  if (TheServer)
    TheServer->requestStop();
}

static void usage() {
  std::fprintf(
      stderr,
      "usage: virgild [--unix PATH] [--tcp HOST:PORT] [--workers N]\n"
      "               [--io-threads N] [--queue-cap N] [--cache-dir D]\n"
      "               [--cache-max-bytes N]\n"
      "               [--fuel N] [--heap-max-bytes N] [--deadline-ms N]\n"
      "               [--vm-pool-size N] [--no-opt] [--stats-on-exit]\n"
      "               %s\n",
      axisUsage(ModeDaemon).c_str());
}

static bool parseU64(const char *S, uint64_t *Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!End || End == S || *End != '\0')
    return false;
  *Out = (uint64_t)V;
  return true;
}

int main(int Argc, char **Argv) {
  ServerConfig Config;
  Config.TcpPort = -1;
  bool StatsOnExit = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--unix" && I + 1 < Argc) {
      Config.UnixPath = Argv[++I];
    } else if (Arg == "--tcp" && I + 1 < Argc) {
      std::string Spec = Argv[++I];
      size_t Colon = Spec.rfind(':');
      if (Colon == std::string::npos || Colon + 1 == Spec.size()) {
        std::fprintf(stderr, "virgild: --tcp needs HOST:PORT\n");
        return 2;
      }
      if (!parseU64(Spec.c_str() + Colon + 1, &N) || N > 65535) {
        std::fprintf(stderr, "virgild: bad port in '%s'\n", Spec.c_str());
        return 2;
      }
      Config.TcpHost = Spec.substr(0, Colon);
      Config.TcpPort = (int)N;
    } else if (Arg == "--workers" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &N)) {
        std::fprintf(stderr, "virgild: bad --workers\n");
        return 2;
      }
      Config.Workers =
          N == 0 ? (int)std::thread::hardware_concurrency() : (int)N;
    } else if (Arg == "--io-threads" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &N) || N > 64) {
        std::fprintf(stderr, "virgild: bad --io-threads\n");
        return 2;
      }
      Config.IoThreads =
          N == 0 ? (int)std::thread::hardware_concurrency() : (int)N;
    } else if (Arg == "--vm-pool-size" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &N) || N == 0 || N > 4096) {
        std::fprintf(stderr, "virgild: bad --vm-pool-size\n");
        return 2;
      }
      Config.Exec.PoolSize = (size_t)N;
    } else if (Arg == "--queue-cap" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &N) || N == 0) {
        std::fprintf(stderr, "virgild: bad --queue-cap\n");
        return 2;
      }
      Config.QueueCap = (size_t)N;
    } else if (Arg == "--cache-dir" && I + 1 < Argc) {
      Config.CacheDir = Argv[++I];
    } else if (Arg == "--cache-max-bytes" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &Config.CacheMaxBytes)) {
        std::fprintf(stderr, "virgild: bad --cache-max-bytes\n");
        return 2;
      }
    } else if (Arg == "--fuel" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &Config.Exec.DefaultFuel)) {
        std::fprintf(stderr, "virgild: bad --fuel\n");
        return 2;
      }
    } else if (Arg == "--heap-max-bytes" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &Config.Exec.DefaultHeapBytes)) {
        std::fprintf(stderr, "virgild: bad --heap-max-bytes\n");
        return 2;
      }
    } else if (Arg == "--deadline-ms" && I + 1 < Argc) {
      if (!parseU64(Argv[++I], &N)) {
        std::fprintf(stderr, "virgild: bad --deadline-ms\n");
        return 2;
      }
      Config.Exec.DefaultDeadlineMs = (uint32_t)N;
    } else if (Arg == "--no-opt") {
      Config.Compile.Optimize = false;
    } else if (int K = parseAxisFlag(ModeDaemon, "virgild", I, Argc, Argv,
                                     {&Config.Compile, &Config.Exec.Vm,
                                      &Config.Exec.UsePool})) {
      if (K < 0)
        return 2;
    } else if (Arg == "--stats-on-exit") {
      StatsOnExit = true;
    } else {
      std::fprintf(stderr, "virgild: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Config.UnixPath.empty() && Config.TcpPort < 0) {
    std::fprintf(stderr,
                 "virgild: need at least one of --unix or --tcp\n");
    usage();
    return 2;
  }

  Server S(Config);
  TheServer = &S;
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "virgild: %s\n", Err.c_str());
    return 1;
  }

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (!Config.UnixPath.empty())
    std::fprintf(stderr, "virgild: listening on unix %s\n",
                 Config.UnixPath.c_str());
  if (Config.TcpPort >= 0)
    std::fprintf(stderr, "virgild: listening on tcp %s:%u\n",
                 Config.TcpHost.c_str(), S.tcpPort());
  std::fprintf(stderr,
               "virgild: %d io threads, %d workers, queue cap %zu/shard, "
               "vm pool %s, cache %s\n",
               Config.IoThreads,
               Config.Workers < Config.IoThreads ? Config.IoThreads
                                                 : Config.Workers,
               Config.QueueCap,
               Config.Exec.UsePool ? "on" : "off",
               Config.CacheDir.empty() ? "off"
                                       : Config.CacheDir.c_str());

  while (!S.stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::fprintf(stderr, "virgild: draining...\n");
  if (StatsOnExit) {
    // Snapshot before stop(): the metrics are complete once the drain
    // finishes, but the queue/connection gauges are livelier here.
    std::string Stats = S.statsJson();
    S.stop();
    std::printf("%s\n", Stats.c_str());
  } else {
    S.stop();
  }
  std::fprintf(stderr, "virgild: clean shutdown\n");
  return 0;
}
