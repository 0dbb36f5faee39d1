//===- tools/virgilc.cpp - Command-line compiler driver --------------------===//
///
/// \file
/// `virgilc [options] file.v3` — compiles and runs a Virgil-core
/// program through the full pipeline.
///
/// Options:
///   --interp        run the polymorphic interpreter instead of the VM
///   --dump-ast      print the checked AST
///   --dump-ir       print the polymorphic IR
///   --dump-mono     print the monomorphized (optimized) IR
///   --dump-norm     print the normalized (optimized) IR
///   --stats         print pipeline statistics (including phase timings)
///   --no-opt        disable the optimizer
///   --dump-ir=<pass>  print the IR after every run of the named
///                   optimizer pass (devirt, inline, ssa, sccp,
///                   loadelim, ssa-out, dce, escape, deadfields);
///                   ssa/sccp/loadelim dump in SSA form, with phis
///                   visible
///   -e <source>     compile <source> text instead of a file
///
/// `virgilc batch [options] <files...>` — compiles many programs
/// through the parallel compile service, with an optional
/// content-addressed bytecode cache:
///
///   --jobs N        worker threads (default 1; 0 = all cores)
///   --cache-dir D   enable the on-disk bytecode cache at D
///   --cache-max-bytes N  LRU-evict cache entries above N total bytes
///   --run           also execute each compiled module on the VM
///   --stats         print aggregate per-phase compile timings
///   --no-opt        disable the optimizer
///
/// Per-job status lines (with mono-expansion and sharing metrics on
/// cache misses) are followed by an aggregate summary and a
/// machine-readable JSON line (hit rate, wall time, bodies shared) for
/// scripts.
/// Batch exit codes are distinct per error route: 0 success, 1 compile
/// failure, 2 usage error, 3 unreadable input, 4 runtime trap.
///
/// `virgilc fuzz [options]` — differential fuzzing: generated programs
/// run under all four strategies; divergences are reduced and saved:
///
///   --seeds N        number of seeds to run (default 100)
///   --start-seed K   first seed (default 1)
///   --time-budget S  run until S seconds elapsed instead of --seeds
///   --out-dir D      persist .v reproducers + JSON metadata into D
///   --fuel N         per-strategy instruction budget
///   --no-reduce      skip shrinking divergent programs
///   --no-opt-compare skip the second (optimizer-off) pipeline
///   --gen-off F      disable one generator feature (repeatable):
///                    virtual-dispatch, nested-tuples, higher-order,
///                    deep-generics, operator-values, cast-chains,
///                    loops
///   --verbose        log each divergence as it is found
///
/// Fuzz exit codes: 0 all seeds agree, 1 divergences found, 2 usage.
///
/// Every mode also takes the engine feature flags that the FeatureAxes
/// table (core/FeatureAxis.h) lists for it, e.g. `--mono-share on|off`
/// or `--vm-jit on|off|auto`; the table generates their parsing and
/// usage text. In fuzz mode an axis with oracle legs is a bare switch
/// that adds them (`--opt-ssa` adds the "/ssa" legs; see
/// fuzz::OracleConfig::Axes).
///
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "core/Compiler.h"
#include "fuzz/Fuzzer.h"
#include "ir/IrPrinter.h"
#include "service/CompileService.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace virgil;

static void usage() {
  std::fprintf(stderr,
               "usage: virgilc [--interp] [--dump-ast|--dump-ir|"
               "--dump-mono|--dump-norm] [--stats] [--vm-stats] "
               "[--vm-dispatch auto|switch|threaded] [--no-opt] "
               "[--dump-ir=<pass>]\n"
               "               %s\n"
               "               (file.v3 | -e <source>)\n"
               "       virgilc batch [--jobs N] [--cache-dir D] "
               "[--cache-max-bytes N] [--run] [--stats] [--no-opt]\n"
               "                     %s <files...>\n"
               "       virgilc fuzz [--seeds N] [--start-seed K] "
               "[--time-budget S] [--out-dir D] [--fuel N]\n"
               "                    [--no-reduce] [--no-opt-compare] "
               "[--gen-off FEATURE] [--verbose]\n"
               "                    %s\n",
               axisUsage(ModeSingle).c_str(), axisUsage(ModeBatch).c_str(),
               axisUsage(ModeFuzz).c_str());
}

static bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

//===----------------------------------------------------------------------===//
// batch mode
//===----------------------------------------------------------------------===//

// Batch exit codes: every error route is distinct and reports to
// stderr, so scripts can tell usage mistakes from missing inputs from
// bad programs from runtime traps.
enum BatchExit {
  BatchOk = 0,
  BatchCompileFailed = 1,
  BatchUsage = 2,
  BatchBadInput = 3,
  BatchTrapped = 4,
};

static int runBatch(int Argc, char **Argv) {
  ServiceOptions Options;
  bool RunVm = false, ShowStats = false;
  std::vector<std::string> Paths;

  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--jobs" && I + 1 < Argc) {
      char *End = nullptr;
      long N = std::strtol(Argv[++I], &End, 10);
      if (!End || *End != '\0' || End == Argv[I] || N < 0) {
        std::fprintf(stderr,
                     "virgilc: --jobs needs a non-negative integer, got "
                     "'%s'\n",
                     Argv[I]);
        return BatchUsage;
      }
      Options.Jobs = (int)N;
    } else if (Arg == "--cache-dir" && I + 1 < Argc) {
      Options.CacheDir = Argv[++I];
    } else if (Arg == "--cache-max-bytes" && I + 1 < Argc) {
      char *End = nullptr;
      unsigned long long N = std::strtoull(Argv[++I], &End, 10);
      if (!End || *End != '\0' || End == Argv[I]) {
        std::fprintf(stderr,
                     "virgilc: --cache-max-bytes needs an integer, got "
                     "'%s'\n",
                     Argv[I]);
        return BatchUsage;
      }
      Options.CacheMaxBytes = (uint64_t)N;
    } else if (Arg == "--run") {
      RunVm = true;
    } else if (Arg == "--stats") {
      ShowStats = true;
    } else if (Arg == "--no-opt") {
      Options.Compile.Optimize = false;
    } else if (int K = parseAxisFlag(ModeBatch, "virgilc", I, Argc, Argv,
                                     {&Options.Compile})) {
      if (K < 0)
        return BatchUsage;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "virgilc: unknown batch option '%s'\n",
                   Arg.c_str());
      usage();
      return BatchUsage;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "virgilc: batch needs at least one input file\n");
    usage();
    return BatchUsage;
  }

  std::vector<CompileJob> Jobs;
  Jobs.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    CompileJob Job;
    Job.Name = Path;
    if (!readWholeFile(Path, Job.Source)) {
      std::fprintf(stderr, "virgilc: cannot open '%s'\n", Path.c_str());
      return BatchBadInput;
    }
    Jobs.push_back(std::move(Job));
  }

  CompileService Service(Options);
  std::vector<JobResult> Results = Service.compileBatch(Jobs);

  bool AnyCompileFailed = false, AnyTrapped = false;
  for (JobResult &R : Results) {
    const char *Tag = !R.Ok ? "fail" : R.CacheHit ? "hit " : "miss";
    if (R.Ok) {
      // Expansion metrics exist only where the front-end actually ran;
      // a hit deserializes bytes and has nothing to report.
      if (!R.CacheHit)
        std::printf("[%s] %-40s %10.2f ms  mono x%.2f, share x%.2f "
                    "(%zu bodies merged)\n",
                    Tag, R.Name.c_str(), R.Ms, R.MonoExpansion,
                    R.Share.shareRatio(), R.Share.BodiesShared);
      else
        std::printf("[%s] %-40s %10.2f ms\n", Tag, R.Name.c_str(), R.Ms);
    } else {
      AnyCompileFailed = true;
      std::string FirstLine = R.Error.substr(0, R.Error.find('\n'));
      std::fprintf(stderr, "[%s] %-40s %s\n", Tag, R.Name.c_str(),
                   FirstLine.c_str());
    }
    if (R.Ok && RunVm) {
      VmResult V = R.Unit->runVm();
      std::fputs(V.Output.c_str(), stdout);
      if (V.Trapped) {
        AnyTrapped = true;
        std::fprintf(stderr, "  -> trap: %s (%s)\n",
                     V.TrapMessage.c_str(), R.Name.c_str());
      } else if (V.HasResult) {
        std::printf("  -> result %lld\n", (long long)V.ResultBits);
      }
    }
  }

  const BatchStats &S = Service.lastBatchStats();
  std::printf("batch: %zu jobs, %zu ok, %zu failed", S.Jobs, S.Succeeded,
              S.Failed);
  if (Service.cache())
    std::printf("; cache: %zu hits / %zu misses (%.1f%% hit rate)",
                S.Hits, S.Misses, S.hitRatePct());
  if (S.Share.FunctionsBefore) // some job compiled with sharing on
    std::printf("; share: %zu -> %zu functions (x%.2f, %zu bodies "
                "merged)",
                S.Share.FunctionsBefore, S.Share.FunctionsAfter,
                S.Share.shareRatio(), S.Share.BodiesShared);
  std::printf("; wall %.2f ms (%.2f ms of job time)\n", S.WallMs,
              S.TotalJobMs);
  if (ShowStats) {
    std::printf("axes: %s\n",
                axisFlags(Options.Compile, ~AxisSet(0), false).c_str());
    std::printf("phases: %s\n", countersText(S.Phases).c_str());
    std::printf("opt: %s\n", countersText(S.Opt).c_str());
  }
  std::printf("%s\n", S.toJson(Options).c_str());
  if (AnyCompileFailed)
    return BatchCompileFailed;
  return AnyTrapped ? BatchTrapped : BatchOk;
}

//===----------------------------------------------------------------------===//
// fuzz mode
//===----------------------------------------------------------------------===//

static bool setGenFeature(virgil::corpus::GenConfig &Gen,
                          const std::string &Name, bool On) {
  if (Name == "virtual-dispatch")
    Gen.VirtualDispatch = On;
  else if (Name == "nested-tuples")
    Gen.NestedTuples = On;
  else if (Name == "higher-order")
    Gen.HigherOrder = On;
  else if (Name == "deep-generics")
    Gen.DeepGenerics = On;
  else if (Name == "operator-values")
    Gen.OperatorValues = On;
  else if (Name == "cast-chains")
    Gen.CastChains = On;
  else if (Name == "loops")
    Gen.Loops = On;
  else
    return false;
  return true;
}

static int runFuzz(int Argc, char **Argv) {
  fuzz::FuzzOptions Options;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--seeds" && I + 1 < Argc) {
      long long N = std::atoll(Argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "virgilc: --seeds must be > 0\n");
        return 2;
      }
      Options.Seeds = (uint64_t)N;
    } else if (Arg == "--start-seed" && I + 1 < Argc) {
      Options.StartSeed = (uint32_t)std::atoll(Argv[++I]);
    } else if (Arg == "--time-budget" && I + 1 < Argc) {
      Options.TimeBudgetSec = std::atof(Argv[++I]);
      if (Options.TimeBudgetSec <= 0) {
        std::fprintf(stderr, "virgilc: --time-budget must be > 0\n");
        return 2;
      }
    } else if (Arg == "--out-dir" && I + 1 < Argc) {
      Options.OutDir = Argv[++I];
    } else if (Arg == "--fuel" && I + 1 < Argc) {
      Options.Oracle.MaxInstrs = (uint64_t)std::atoll(Argv[++I]);
    } else if (Arg == "--no-reduce") {
      Options.Reduce = false;
    } else if (Arg == "--no-opt-compare") {
      Options.Oracle.CompareNoOpt = false;
    } else if (Arg == "--gen-off" && I + 1 < Argc) {
      std::string Feature = Argv[++I];
      if (!setGenFeature(Options.Gen, Feature, false)) {
        std::fprintf(stderr, "virgilc: unknown generator feature '%s'\n",
                     Feature.c_str());
        return 2;
      }
    } else if (Arg == "--verbose") {
      Options.Verbose = true;
    } else if (int K = parseAxisFlag(ModeFuzz, "virgilc", I, Argc, Argv,
                                     {nullptr, &Options.Oracle.Vm, nullptr,
                                      &Options.Oracle.Axes})) {
      if (K < 0)
        return 2;
    } else {
      std::fprintf(stderr, "virgilc: unknown fuzz option '%s'\n",
                   Arg.c_str());
      usage();
      return 2;
    }
  }

  fuzz::Fuzzer TheFuzzer(Options);
  fuzz::FuzzSummary Summary = TheFuzzer.run();

  for (const fuzz::FuzzDivergence &D : Summary.Divergences) {
    std::printf("seed %u: %s — %s (reduced %zu -> %zu bytes)\n", D.Seed,
                fuzz::outcomeName(D.Kind), D.Detail.c_str(),
                D.Source.size(), D.Reduced.size());
  }
  std::printf("fuzz: %llu seeds (config %s), %llu agree, %zu "
              "divergences; wall %.2f ms\n",
              (unsigned long long)Summary.SeedsRun,
              Options.Gen.summary().c_str(),
              (unsigned long long)Summary.Agreements,
              Summary.Divergences.size(), Summary.WallMs);
  std::printf("%s\n", Summary.toJson().c_str());
  if (!Summary.clean() && !Options.OutDir.empty())
    std::printf("reproducers written to %s\n", Options.OutDir.c_str());
  return Summary.clean() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// single-file mode
//===----------------------------------------------------------------------===//

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::string(Argv[1]) == "batch")
    return runBatch(Argc - 2, Argv + 2);
  if (Argc >= 2 && std::string(Argv[1]) == "fuzz")
    return runFuzz(Argc - 2, Argv + 2);

  bool UseInterp = false, DumpAst = false, DumpIr = false;
  bool DumpMono = false, DumpNorm = false, ShowStats = false;
  bool ShowVmStats = false;
  VmOptions VmOpts;
  CompilerOptions Options;
  std::string Path, Source, Name = "<cmdline>";
  bool HaveSource = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--interp")
      UseInterp = true;
    else if (Arg == "--dump-ast")
      DumpAst = true;
    else if (Arg == "--dump-ir")
      DumpIr = true;
    else if (Arg == "--dump-mono")
      DumpMono = true;
    else if (Arg == "--dump-norm")
      DumpNorm = true;
    else if (Arg == "--stats")
      ShowStats = true;
    else if (Arg == "--vm-stats")
      ShowVmStats = true;
    else if (Arg == "--vm-dispatch" && I + 1 < Argc) {
      std::string Mode = Argv[++I];
      if (Mode == "auto")
        VmOpts.Mode = VmOptions::Dispatch::Auto;
      else if (Mode == "switch")
        VmOpts.Mode = VmOptions::Dispatch::Switch;
      else if (Mode == "threaded")
        VmOpts.Mode = VmOptions::Dispatch::Threaded;
      else {
        std::fprintf(stderr, "virgilc: unknown dispatch mode '%s'\n",
                     Mode.c_str());
        return 2;
      }
    } else if (int K = parseAxisFlag(ModeSingle, "virgilc", I, Argc, Argv,
                                     {&Options, &VmOpts})) {
      if (K < 0)
        return 2;
    } else if (Arg.rfind("--dump-ir=", 0) == 0) {
      Options.DumpIrAfter = Arg.substr(10);
      bool Known = false;
      for (const char *Pass : OptPassNames)
        Known |= Options.DumpIrAfter == Pass;
      if (!Known) {
        std::fprintf(stderr, "virgilc: --dump-ir= needs a pass name, one "
                             "of devirt, inline, ssa, sccp, loadelim, "
                             "ssa-out, dce, escape, deadfields\n");
        return 2;
      }
    } else if (Arg == "--no-opt")
      Options.Optimize = false;
    else if (Arg == "-e" && I + 1 < Argc) {
      Source = Argv[++I];
      HaveSource = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "virgilc: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  // No input at all: report usage and fail rather than compiling an
  // empty program.
  if (!HaveSource) {
    if (Path.empty()) {
      usage();
      return 2;
    }
    if (!readWholeFile(Path, Source)) {
      std::fprintf(stderr, "virgilc: cannot open '%s'\n", Path.c_str());
      return 2;
    }
    Name = Path;
  }

  Compiler TheCompiler(Options);
  std::string Error;
  auto Program = TheCompiler.compile(Name, Source, &Error);
  if (!Program) {
    std::fprintf(stderr, "%s", Error.c_str());
    return 1;
  }
  if (DumpAst)
    std::printf("%s\n", printModule(Program->ast()).c_str());
  if (DumpIr)
    std::printf("%s", printModule(Program->polyIr()).c_str());
  if (DumpMono)
    std::printf("%s", printModule(Program->monoIr()).c_str());
  if (DumpNorm)
    std::printf("%s", printModule(Program->normIr()).c_str());
  if (ShowStats) {
    const PipelineStats &S = Program->stats();
    std::printf("poly: %s\n", S.Poly.toString().c_str());
    std::printf("mono: %s (expansion %.2fx functions)\n",
                S.MonoIr.toString().c_str(), S.Mono.functionExpansion());
    std::printf("share: %s (x%.2f)\n", countersText(S.Share).c_str(),
                S.Share.shareRatio());
    std::printf("norm: %s\n", S.NormIr.toString().c_str());
    OptStats Opt = S.OptAfterMono;
    Opt += S.OptAfterNorm;
    std::printf("axes: %s\n",
                axisFlags(Options, ~AxisSet(0), false).c_str());
    std::printf("opt: %s\n", countersText(Opt).c_str());
    std::printf("time: %s\n", countersText(S.Timings).c_str());
  }
  if (DumpAst || DumpIr || DumpMono || DumpNorm)
    return 0;

  if (UseInterp) {
    InterpResult R = Program->interpret();
    std::fputs(R.Output.c_str(), stdout);
    if (R.Trapped) {
      std::fprintf(stderr, "trap: %s\n", R.TrapMessage.c_str());
      return 1;
    }
    if (R.Result.kind() == Value::Kind::Int)
      return (int)(R.Result.asInt() & 0xFF);
    return 0;
  }
  VmResult R = Program->runVm(VmOpts);
  std::fputs(R.Output.c_str(), stdout);
  // One machine-readable JSON line on stderr, so it composes with
  // program output on stdout.
  if (ShowVmStats)
    std::fprintf(stderr, "%s\n", vmStatsJson(R).c_str());
  if (R.Trapped) {
    std::fprintf(stderr, "trap: %s\n", R.TrapMessage.c_str());
    return 1;
  }
  return R.HasResult ? (int)(R.ResultBits & 0xFF) : 0;
}
