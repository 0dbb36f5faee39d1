//===- bench/bench_e12_dispatch.cpp - E12: execution-engine ablation -------===//
///
/// E12 isolates the VM execution engine itself (DESIGN.md §9): the
/// same bytecode runs under three engine configurations —
///
///   switch      portable switch dispatch, no fusion, no inline caches
///               (the naive interpreter the engine grew out of)
///   threaded    token-threaded computed-goto dispatch, still unfused
///   full        threaded + superinstruction fusion + inline caches
///
/// — over two workloads: the call-heavy E1 calling-convention stream
/// and the virtual-dispatch-heavy E6 matcher (compiled without the
/// optimizer so devirtualization does not remove the CallV sites the
/// inline caches exist for). Reported factors are relative to the
/// switch leg. Results are identical across legs by construction
/// (preparation preserves semantics and instruction counts), and the
/// harness checks that.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Generators.h"

#include <cstdio>

using namespace virgil;
using namespace virgil::bench;

namespace {

struct Leg {
  const char *Name;
  VmOptions Opts;
};

/// The first three legs ablate the *interpreter* engine, so they pin
/// the JIT tier off; the fourth leg runs the full engine with the
/// baseline JIT at threshold 0 (every function compiled up front).
VmOptions legOpts(VmOptions::Dispatch Mode, bool Fuse, bool Ic,
                  VmOptions::JitMode Jit) {
  VmOptions O = tableVmOptions();
  O.Mode = Mode;
  O.Fuse = Fuse;
  O.InlineCache = Ic;
  O.Jit = Jit;
  if (Jit == VmOptions::JitMode::On)
    O.JitThreshold = 0;
  return O;
}

const Leg Legs[] = {
    {"switch", legOpts(VmOptions::Dispatch::Switch, false, false,
                       VmOptions::JitMode::Off)},
    {"threaded", legOpts(VmOptions::Dispatch::Auto, false, false,
                         VmOptions::JitMode::Off)},
    {"full", legOpts(VmOptions::Dispatch::Auto, true, true,
                     VmOptions::JitMode::Off)},
    {"jit", legOpts(VmOptions::Dispatch::Auto, true, true,
                    VmOptions::JitMode::On)},
};

struct Workload {
  const char *Name;
  std::unique_ptr<Program> P;
};

} // namespace

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E12: execution-engine ablation (DESIGN.md §9)",
         "Same bytecode, three engine configurations: switch dispatch, "
         "threaded dispatch, threaded + fusion + inline caches.");

  if (!Vm::threadedAvailable())
    std::printf("note: computed goto not compiled in; the threaded "
                "legs fall back to switch dispatch.\n");

  CompilerOptions NoOpt = tableOptions();
  NoOpt.Optimize = false;
  Workload Workloads[2];
  Workloads[0] = {"callconv",
                  compileOrDie(corpus::genCallConvWorkload(20000))};
  Workloads[1] = {"matcher-noopt",
                  compileOrDie(corpus::genMatcherWorkload(8, 20000), NoOpt)};

  int Iters = Opts.Quick ? 4 : 12;
  int Rounds = Opts.Quick ? 3 : 5;

  JsonReport J("e12_dispatch");
  for (Workload &W : Workloads) {
    std::printf("\n-- %s --\n", W.Name);
    std::printf("%-10s %12s %10s %12s %12s\n", "engine", "Minstr/s",
                "factor", "ic hit/miss", "fused-exec");
    double SwitchRate = 0;
    int64_t Result = 0;
    bool First = true;
    for (const Leg &L : Legs) {
      VmResult Check = W.P->runVm(L.Opts);
      dieIfTrapped(Check.Trapped, Check.TrapMessage, "E12");
      if (First) {
        Result = Check.ResultBits;
        First = false;
      } else if (Check.ResultBits != Result) {
        std::fprintf(stderr, "E12: engine legs disagree on %s\n", W.Name);
        return 1;
      }
      VmThroughput T = measureVmThroughput(*W.P, Iters, Rounds, L.Opts);
      if (SwitchRate == 0)
        SwitchRate = T.MinstrPerSec;
      char Ic[32];
      std::snprintf(Ic, sizeof(Ic), "%llu/%llu",
                    (unsigned long long)T.Counters.IcHits,
                    (unsigned long long)T.Counters.IcMisses);
      std::printf("%-10s %12.1f %9.2fx %12s %12llu\n", L.Name,
                  T.MinstrPerSec, T.MinstrPerSec / SwitchRate, Ic,
                  (unsigned long long)T.Counters.FusedExecuted);
      J.metric(std::string(W.Name) + "_" + L.Name + "_minstr_per_sec",
               T.MinstrPerSec);
      J.metric(std::string(W.Name) + "_" + L.Name + "_factor",
               T.MinstrPerSec / SwitchRate);
    }
  }
  std::printf("\n");
  if (!Opts.JsonPath.empty())
    J.write(Opts.JsonPath);
  return 0;
}
