//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
///
/// \file
/// Helpers for the experiment harness: compile-once caching, the four
/// execution strategies, and table printing. Each bench binary
/// reproduces one row of DESIGN.md's experiment index and prints a
/// paper-style comparison; EXPERIMENTS.md records the measured shapes.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_BENCH_BENCHUTIL_H
#define VIRGIL_BENCH_BENCHUTIL_H

#include "core/Compiler.h"
#include "core/FeatureAxis.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace virgil {
namespace bench {

/// Compiler options with every compile-side FeatureAxes row at its
/// table default, whatever the VIRGIL_* environment says: a labelled
/// row ("full optimizer", "ssa off") measures the configuration it
/// names. Rows start from here and set only what their label changes.
inline CompilerOptions tableOptions() {
  CompilerOptions O;
  for (const FeatureAxis &A : FeatureAxes)
    if (A.Key == AxisKey::Cache)
      setAxisValue(A.Id, O, A.Default);
  return O;
}

/// The same for the VM-side rows (heap, nursery, JIT).
inline VmOptions tableVmOptions() {
  VmOptions O;
  for (const FeatureAxis &A : FeatureAxes)
    if (A.Key == AxisKey::Pool)
      setAxisValue(A.Id, O, A.Default);
  return O;
}

inline std::unique_ptr<Program>
compileOrDie(const std::string &Source,
             CompilerOptions Options = tableOptions()) {
  Compiler C(Options);
  std::string Error;
  auto P = C.compile("bench", Source, &Error);
  if (!P) {
    std::fprintf(stderr, "bench program failed to compile:\n%s\n",
                 Error.c_str());
    std::exit(1);
  }
  return P;
}

inline void dieIfTrapped(bool Trapped, const std::string &Message,
                         const char *What) {
  if (Trapped) {
    std::fprintf(stderr, "%s trapped: %s\n", What, Message.c_str());
    std::exit(1);
  }
}

/// Prints an experiment banner so concatenated bench output reads as a
/// report.
inline void banner(const char *Id, const char *Claim) {
  std::printf("\n==== %s ====\n%s\n", Id, Claim);
}

//===----------------------------------------------------------------------===//
// Machine-readable results (--json) and the CI quick mode (--quick)
//===----------------------------------------------------------------------===//

/// Options every bench binary understands in addition to the google
/// benchmark flags. parseBenchOpts strips them from argv before
/// benchmark::Initialize sees (and rejects) them.
struct BenchOpts {
  /// Write this bench's headline metrics as one JSON object to the
  /// given path ("-" = stdout). Empty: no JSON.
  std::string JsonPath;
  /// CI perf-smoke mode: measure only the headline metrics with
  /// reduced repetitions and skip the google-benchmark timing loops.
  bool Quick = false;
};

inline BenchOpts parseBenchOpts(int &Argc, char **Argv) {
  BenchOpts Opts;
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--quick") == 0) {
      Opts.Quick = true;
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
  Argv[Argc] = nullptr;
  return Opts;
}

/// Accumulates name/value metrics and writes them as one flat JSON
/// object: {"bench":"<id>","metrics":{...}}. Flat on purpose — the
/// aggregator (tools/bench_all.sh) merges per-bench files into
/// BENCH_vm.json without needing to understand their shapes.
class JsonReport {
public:
  explicit JsonReport(std::string BenchId) : Id(std::move(BenchId)) {}

  void metric(const std::string &Name, double Value) {
    Metrics.emplace_back(Name, Value);
  }

  /// Writes the report; exits nonzero on I/O failure so CI notices.
  void write(const std::string &Path) const {
    std::string S = "{\"bench\":\"" + Id + "\",\"metrics\":{";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", Metrics[I].second);
      if (I)
        S += ",";
      S += "\"" + Metrics[I].first + "\":" + Buf;
    }
    S += "}}\n";
    if (Path == "-") {
      std::fputs(S.c_str(), stdout);
      return;
    }
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F || std::fwrite(S.data(), 1, S.size(), F) != S.size()) {
      std::fprintf(stderr, "bench: cannot write JSON to '%s'\n",
                   Path.c_str());
      std::exit(1);
    }
    std::fclose(F);
  }

private:
  std::string Id;
  std::vector<std::pair<std::string, double>> Metrics;
};

/// One VM throughput sample: executed instructions per wall second.
struct VmThroughput {
  double MinstrPerSec = 0;
  uint64_t Instrs = 0; ///< Per run (identical across runs).
  VmCounters Counters; ///< From the best run.
};

/// Best-of-\p Rounds VM throughput for the compiled \p P, \p Iters
/// fresh runs per round. Best-of because the shared CI machines have
/// heavy scheduling noise; the fastest round is the least-perturbed
/// estimate of the engine itself.
inline VmThroughput measureVmThroughput(Program &P, int Iters, int Rounds,
                                        VmOptions Opts = tableVmOptions()) {
  VmThroughput Best;
  double BestSec = 1e100;
  for (int Round = 0; Round != Rounds; ++Round) {
    uint64_t Instrs = 0;
    VmCounters Last;
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I != Iters; ++I) {
      VmResult R = P.runVm(Opts);
      dieIfTrapped(R.Trapped, R.TrapMessage, "vm throughput");
      Instrs += R.Counters.Instrs;
      Last = R.Counters;
    }
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
    if (Sec < BestSec) {
      BestSec = Sec;
      Best.MinstrPerSec = (double)Instrs / Sec / 1e6;
      Best.Instrs = Instrs / (uint64_t)Iters;
      Best.Counters = Last;
    }
  }
  return Best;
}

} // namespace bench
} // namespace virgil

#endif // VIRGIL_BENCH_BENCHUTIL_H
