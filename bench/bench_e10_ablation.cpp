//===- bench/bench_e10_ablation.cpp - E10: optimizer ablation --------------===//
///
/// Which ingredient of the §3.3 recipe matters? The paper's sequence is
/// specialize -> decide queries statically -> fold branches -> inline.
/// This ablation disables one optimizer pass at a time on the E4
/// dispatch workload and reports residual dynamic type tests, residual
/// calls, code size, and VM time — showing that folding is what removes
/// the casts and inlining what removes the remaining call.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Generators.h"
#include "ir/IrStats.h"

#include <chrono>
#include <cstdio>

using namespace virgil;
using namespace virgil::bench;

namespace {

struct Config {
  const char *Name;
  CompilerOptions Options;
};

double timeVm(Program &P, int Runs) {
  // Warm up.
  dieIfTrapped(P.runVm().Trapped, "", "ablation");
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I != Runs; ++I) {
    VmResult R = P.runVm();
    dieIfTrapped(R.Trapped, R.TrapMessage, "ablation");
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count() /
         Runs;
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E10: optimizer ablation on the §3.3 dispatch workload",
         "Disable one pass at a time: folding removes the dynamic type "
         "tests, DCE removes the dead branches, inlining removes the "
         "remaining direct call.");

  std::string Source = corpus::genAdhocWorkload(/*Cases=*/4,
                                                /*Iters=*/20000,
                                                /*Direct=*/false);

  std::vector<Config> Configs;
  Configs.push_back({"full optimizer", CompilerOptions()});
  {
    // Folding is SCCP's job, inside the SSA mid-tier.
    CompilerOptions O;
    O.Opt.Ssa = false;
    Configs.push_back({"- folding", O});
  }
  {
    CompilerOptions O;
    O.Opt.Inline = false;
    Configs.push_back({"- inlining", O});
  }
  {
    CompilerOptions O;
    O.Opt.Dce = false;
    Configs.push_back({"- dce", O});
  }
  {
    CompilerOptions O;
    O.Opt.Devirtualize = false;
    Configs.push_back({"- devirt", O});
  }
  {
    CompilerOptions O;
    O.Optimize = false;
    Configs.push_back({"no optimizer", O});
  }

  std::printf("%-16s %10s %8s %10s %12s\n", "config", "casts", "calls",
              "instrs", "vm ms/run");
  size_t FullCasts = 0, NoFoldCasts = 0, NoOptCasts = 0;
  for (Config &C : Configs) {
    auto P = compileOrDie(Source, C.Options);
    const IrStats &S = P->stats().NormIr;
    double Ms = timeVm(*P, Opts.Quick ? 5 : 20);
    if (&C == &Configs.front())
      FullCasts = S.NumCasts;
    if (&C == &Configs[1])
      NoFoldCasts = S.NumCasts;
    if (&C == &Configs.back())
      NoOptCasts = S.NumCasts;
    std::printf("%-16s %10zu %8zu %10zu %12.3f\n", C.Name, S.NumCasts,
                S.NumCalls, S.NumInstrs, Ms);
  }
  std::printf("\nexpected shape: '- folding' keeps all dynamic type "
              "tests; 'full' and '- devirt' match (no virtual calls "
              "here); 'no optimizer' is the slowest and largest.\n");
  if (!Opts.JsonPath.empty()) {
    JsonReport J("e10_ablation");
    J.metric("full_opt_residual_casts", (double)FullCasts);
    J.metric("no_folding_residual_casts", (double)NoFoldCasts);
    J.metric("no_opt_residual_casts", (double)NoOptCasts);
    J.write(Opts.JsonPath);
  }
  return 0;
}
