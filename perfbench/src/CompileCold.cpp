//===- perfbench/src/CompileCold.cpp - compile_cold workload --------------===//
///
/// \file
/// What `virgilc file.v3` costs a user: each program of a seeded draw
/// is compiled from source with default CompilerOptions and no cache,
/// then run on a fresh Vm and checked against its reference. The op is
/// the compile and that first run; three more fresh-Vm runs, each
/// checked too, add samples for run_ms_geomean. The timed loop repeats
/// the draw, in order, until the run time is spent.
///
/// The draw mixes (sizes picked by the seed from the stated ranges):
///   - the paper corpus (corpus::allPrograms) and examples/v3/*.v3;
///   - genThroughputProgram at 8..128 classes (program size);
///   - genRandomProgram under seeded GenConfig toggles (feature mix);
///   - genExpansionWorkload and genShareWorkload (code expansion);
///   - genSsaWorkload (optimizer-heavy code).
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Staged.h"

#include "corpus/Corpus.h"
#include "corpus/Generators.h"
#include "vm/BcPrepare.h"
#include "vm/BytecodeSerializer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using namespace virgil;

namespace {

struct DrawItem {
  Source Src;
  /// Known answer (corpus, nqueens); otherwise interpreted later.
  std::optional<Expectation> Known;
};

constexpr int kRandomPrograms = 48;
/// Times the draw is generated before the first timed op.
constexpr int kSetupReps = 9;
/// Fresh-Vm runs after each compile. The first is the op's run; all
/// are run_ms samples (each run takes well under a millisecond, so one
/// sample per compile leaves too few to score).
constexpr int kRunsPerCompile = 4;

std::vector<DrawItem> makeDraw(const RunContext &Ctx) {
  Rng R(Ctx.Seed, /*Stream=*/1);
  std::vector<DrawItem> Draw;
  for (const corpus::CorpusProgram &C : corpus::allPrograms()) {
    Expectation E;
    E.HasResult = true;
    E.Result = C.ExpectedResult;
    E.Output = C.ExpectedOutput;
    Draw.push_back({{C.Name, C.Source}, E});
  }
  for (const char *Ex : {"calculator", "gc_demo", "pairs", "sieve"})
    if (auto Text = readFile(Ctx.Root + "/examples/v3/" + Ex + ".v3"))
      Draw.push_back({{Ex, *Text}, std::nullopt});
  if (auto Q = nqueensSource(Ctx.Root, 6)) {
    Expectation E;
    E.HasResult = true;
    E.Result = nqueensSolutions(6);
    E.Output = "6-queens solutions: 4\n";
    Draw.push_back({*Q, E});
  }
  for (int Classes : {8, 16, 32, 64, 128}) {
    int C = R.range(Classes, Classes + Classes / 16);
    Draw.push_back({{"throughput" + std::to_string(C),
                     corpus::genThroughputProgram(C)},
                    std::nullopt});
  }
  for (int I = 0; I != kRandomPrograms; ++I) {
    // Configurations are fixed by slot, so every draw has the same mix of
    // sizes and features: 4 size classes x 8 feature sets, each of which
    // turns one or two of the seven GenConfig features off (each feature
    // is off in a quarter of the slots). Only the seeds vary.
    corpus::GenConfig G;
    G.MaxFuncs = 3 + I % 2;
    G.MaxExprDepth = 2 + (I / 2) % 2;
    bool *Features[] = {&G.VirtualDispatch, &G.NestedTuples, &G.HigherOrder,
                        &G.DeepGenerics,    &G.OperatorValues, &G.CastChains,
                        &G.Loops};
    for (int F = 0; F != 7; ++F)
      *Features[F] = (I / 4 + F) % 4 != 0;
    uint32_t S = R.u32();
    Draw.push_back({{"random" + std::to_string(S),
                     corpus::genRandomProgram(S, G)},
                    std::nullopt});
  }
  // The first of each pair is the smaller generic; only the second
  // size parameter comes from the seed, so the draw's total size moves
  // little from seed to seed.
  for (int I = 0; I != 2; ++I) {
    int G = 3 + I, N = R.range(6, 8);
    Draw.push_back({{"expansion" + std::to_string(G) + "x" + std::to_string(N),
                     corpus::genExpansionWorkload(G, N)},
                    std::nullopt});
    N = R.range(6, 8);
    Draw.push_back({{"share" + std::to_string(G) + "x" + std::to_string(N),
                     corpus::genShareWorkload(G, N)},
                    std::nullopt});
    G = 4 + I, N = R.range(50, 70);
    Draw.push_back({{"ssa" + std::to_string(G) + "x" + std::to_string(N),
                     corpus::genSsaWorkload(G, N)},
                    std::nullopt});
  }
  return Draw;
}

/// Fills in every missing reference from the polymorphic interpreter.
bool resolveReferences(std::vector<DrawItem> &Draw, WorkloadResult &Res) {
  for (DrawItem &D : Draw) {
    if (D.Known)
      continue;
    std::string Err;
    D.Known = interpretReference(D.Src, &Err);
    if (!D.Known) {
      Res.fail(D.Src.Name + ": no reference: " + Err);
      return false;
    }
  }
  return true;
}

/// One compile_cold op: compile, then kRunsPerCompile runs, each on a
/// fresh Vm and checked. Returns false (with the failure recorded) on
/// any error.
bool compileAndRun(const DrawItem &D, WorkloadResult &Res, double *CompileMs,
                   double (&RunMs)[kRunsPerCompile], uint64_t *Bytes) {
  ++Res.Attempted;
  std::string Err;
  Clock::time_point T0 = Clock::now();
  Compiler C;
  auto P = C.compile(D.Src.Name, D.Src.Text, &Err);
  Clock::time_point T1 = Clock::now();
  if (!P) {
    Res.fail(D.Src.Name + ": compile error: " + Err);
    return false;
  }
  if (Bytes)
    *Bytes += serializeModule(P->bytecode()).size();
  for (double &Ms : RunMs) {
    Clock::time_point T2 = Clock::now();
    VmResult R;
    {
      Vm V(P->bytecode());
      R = V.run();
    }
    Ms = msSince(T2);
    std::string Bad = checkRun(R, *D.Known);
    if (!Bad.empty()) {
      Res.fail(D.Src.Name + ": " + Bad);
      return false;
    }
  }
  *CompileMs = msBetween(T0, T1);
  return true;
}

void plainRun(const std::vector<DrawItem> &Draw, const RunContext &Ctx,
              WorkloadResult &Res, std::vector<double> &SetupS) {
  // Warm-up: untimed passes for kWarmupSeconds (at least one), the
  // first of which also sums the serialized bytecode sizes.
  uint64_t Bytes = 0;
  Clock::time_point Start = Clock::now();
  for (int Pass = 0; Pass == 0 || msSince(Start) < kWarmupSeconds * 1000;
       ++Pass)
    for (const DrawItem &D : Draw) {
      double C = 0, R[kRunsPerCompile];
      compileAndRun(D, Res, &C, R, Pass == 0 ? &Bytes : nullptr);
    }

  // Timed passes over the whole draw, in order; each program's compile,
  // run and compile + first run times are scored by their fastest share.
  // After each pass the draw is generated once more, outside the op
  // timings, so the set-up samples span the window like the op samples.
  struct ProgramSamples {
    std::vector<double> Compile, Run, Req;
  };
  std::vector<ProgramSamples> Samples(Draw.size());
  size_t Passes = 0;
  Start = Clock::now();
  for (; Passes == 0 || msSince(Start) < Ctx.Seconds * 1000; ++Passes) {
    for (size_t I = 0; I != Draw.size(); ++I) {
      double C = 0, R[kRunsPerCompile];
      if (!compileAndRun(Draw[I], Res, &C, R, nullptr))
        continue;
      ProgramSamples &S = Samples[I];
      S.Compile.push_back(C);
      S.Run.insert(S.Run.end(), std::begin(R), std::end(R));
      S.Req.push_back(C + R[0]);
    }
    Clock::time_point T0 = Clock::now();
    makeDraw(Ctx);
    SetupS.push_back(msSince(T0) / 1000);
  }

  std::vector<double> CompileMs, ReqMs, RunMedians;
  for (const ProgramSamples &S : Samples) {
    if (S.Compile.empty())
      continue;
    for (double V : fastestOf(S.Compile))
      CompileMs.push_back(V);
    for (double V : fastestOf(S.Req))
      ReqMs.push_back(V);
    RunMedians.push_back(median(fastestOf(S.Run)));
  }
  std::printf("compile_cold: %zu timed passes\n", Passes);
  Res.set("compile_ms_p50", quantile(CompileMs, 0.5), "ms");
  Res.set("compile_ms_p99", quantile(CompileMs, 0.99), "ms");
  Res.set("bytecode_bytes", (double)Bytes, "bytes");
  Res.exact("bytecode_bytes", Bytes);
  Res.set("run_ms_geomean", geomean(RunMedians), "ms");
  Res.set("req_p50_ms", quantile(ReqMs, 0.5), "ms");
  Res.set("req_p99_ms", quantile(ReqMs, 0.99), "ms");
  // Every compile_cold op is a cold compile plus a first run.
  Res.set("req_cold_p50_ms", quantile(ReqMs, 0.5), "ms");
}

void tracedRun(const std::vector<DrawItem> &Draw, const RunContext &Ctx,
               SpanLog &Log, WorkloadResult &Res) {
  StageTimes T;
  OptStats Opt;
  double UntracedMs = 0, SerializeMs = 0, PrepareMs = 0, FirstRunMs = 0;
  uint64_t Bytes = 0, BcInstrs = 0, Fused = 0, MonoIn = 0, MonoOut = 0,
           Merged = 0;
  int64_t Removed = 0;
  int Passes = 0;
  // Exact counts come from each program's first good compile.
  std::vector<bool> Counted(Draw.size());
  // Per program, stage spans and staged wall time summed over the passes.
  std::vector<double> CoveredMs(Draw.size()), WallMs(Draw.size());
  Clock::time_point Start = Clock::now();
  for (; Passes == 0 || msSince(Start) < Ctx.Seconds * 1000; ++Passes) {
    for (size_t I = 0; I != Draw.size(); ++I) {
      const DrawItem &D = Draw[I];
      ++Res.Attempted;
      uint64_t Id = Log.nextId();
      std::string Err;
      // Alternate which compile goes first so neither one always
      // finds the caches warmed by the other.
      std::unique_ptr<Program> Plain;
      std::unique_ptr<StagedProgram> Staged;
      double PlainMs = 0;
      auto plain = [&] {
        Clock::time_point T0 = Clock::now();
        Compiler C;
        Plain = C.compile(D.Src.Name, D.Src.Text, &Err);
        PlainMs = msSince(T0);
      };
      if (I % 2 == 0)
        plain();
      Staged = compileStaged(D.Src, Log, Id, &Err);
      if (I % 2 != 0)
        plain();
      if (!Plain || !Staged) {
        Res.fail(D.Src.Name + ": compile error: " + Err);
        continue;
      }
      // The traced pipeline must be the real one: byte-identical
      // serialized output, and stage spans that cover its wall time.
      std::string Want = serializeModule(Plain->bytecode());
      std::string Got;
      {
        ScopedSpan S(Log, Id, "vm.serialize");
        Got = serializeModule(*Staged->Bytecode);
        SerializeMs += S.finish();
      }
      if (Got != Want) {
        Res.fail(D.Src.Name +
                 ": traced pipeline output differs from Compiler::compile "
                 "(core/Compiler.cpp stage order changed?)");
        continue;
      }
      const StageTimes &S = Staged->Times;
      CoveredMs[I] += S.stageSum();
      WallMs[I] += S.Wall;
      {
        ScopedSpan Sp(Log, Id, "vm.prepare");
        PreparedModule Prep = prepareModule(*Staged->Bytecode);
        PrepareMs += Sp.finish();
        if (!Counted[I])
          Fused += Prep.Stats.fusedTotal();
      }
      VmResult R;
      {
        ScopedSpan Sp(Log, Id, "vm.first_run");
        Vm V(*Staged->Bytecode);
        R = V.run();
        FirstRunMs += Sp.finish();
      }
      std::string Bad = checkRun(R, *D.Known);
      if (!Bad.empty()) {
        Res.fail(D.Src.Name + ": " + Bad);
        continue;
      }
      UntracedMs += PlainMs;
      T.Parse += S.Parse, T.Sema += S.Sema, T.Lower += S.Lower;
      T.Mono += S.Mono, T.OptMono += S.OptMono, T.Normalize += S.Normalize;
      T.OptNorm += S.OptNorm, T.Share += S.Share, T.Verify += S.Verify;
      T.Emit += S.Emit, T.Count += S.Count, T.Wall += S.Wall;
      Opt += Staged->OptMono;
      Opt += Staged->OptNorm;
      if (!Counted[I]) {
        Counted[I] = true;
        Bytes += Got.size();
        BcInstrs += bytecodeInstrs(*Staged->Bytecode);
        MonoIn += Staged->Mono.InputFunctions;
        MonoOut += Staged->Mono.OutputFunctions;
        Merged += Staged->Share.BodiesShared;
        Removed += Staged->InstrsRemoved;
      }
    }
  }
  // The stage spans must cover each program's staged wall time to within
  // 10%. Checked on the sums over the passes, so one host stall that
  // lands between two spans of one compile cannot fail the run.
  double MinCover = 1, MaxCover = 1;
  for (size_t I = 0; I != Draw.size(); ++I) {
    if (WallMs[I] <= 0)
      continue;
    MinCover = std::min(MinCover, CoveredMs[I] / WallMs[I]);
    MaxCover = std::max(MaxCover, CoveredMs[I] / WallMs[I]);
    if (CoveredMs[I] < 0.9 * WallMs[I] || CoveredMs[I] > 1.1 * WallMs[I])
      Res.fail(Draw[I].Src.Name + ": stage spans cover " +
               std::to_string(CoveredMs[I]) + " of " +
               std::to_string(WallMs[I]) + " ms");
  }
  std::printf("compile_cold: stage spans cover %.4f..%.4f of each "
              "program's staged wall time\n",
              MinCover, MaxCover);
  // Times are per pass over the draw; counts are one pass (exact).
  double N = Passes;
  Res.set("parse.ms", T.Parse / N, "ms");
  Res.set("sema.ms", T.Sema / N, "ms");
  Res.set("lower.ms", T.Lower / N, "ms");
  Res.set("mono.ms", T.Mono / N, "ms");
  Res.set("normalize.ms", T.Normalize / N, "ms");
  Res.set("share.ms", T.Share / N, "ms");
  Res.set("ir.verify_ms", T.Verify / N, "ms");
  Res.set("emit.ms", T.Emit / N, "ms");
  Res.set("opt.mono_ms", T.OptMono / N, "ms");
  Res.set("opt.norm_ms", T.OptNorm / N, "ms");
  Res.set("ssa.ms", Opt.SsaMs / N, "ms");
  Res.set("opt.inline_ms", Opt.InlineMs / N, "ms");
  Res.set("opt.dce_ms", Opt.DceMs / N, "ms");
  Res.set("opt.devirt_ms", Opt.DevirtMs / N, "ms");
  Res.set("opt.escape_ms", Opt.EscapeMs / N, "ms");
  Res.set("opt.pass_runs_skipped", (double)Opt.PassRunsSkipped / N, "count");
  double StageMs = T.stageSum() - T.Count;
  Res.set("opt.share_pct", StageMs > 0 ? 100 * T.optMs() / StageMs : 0, "%");
  Res.set("opt.instrs_removed", (double)Removed, "count");
  Res.set("mono.expansion", MonoIn ? (double)MonoOut / (double)MonoIn : 1,
          "ratio");
  Res.set("share.bodies_merged", (double)Merged, "count");
  Res.set("emit.bc_instrs", (double)BcInstrs, "count");
  Res.set("vm.serialized_bytes", (double)Bytes, "bytes");
  Res.set("vm.serialize_ms", SerializeMs / N, "ms");
  Res.set("vm.prepare_ms", PrepareMs / N, "ms");
  Res.set("vm.fused_static", (double)Fused, "count");
  Res.set("vm.first_run_ms", FirstRunMs / N, "ms");
  Res.set("trace.overhead_pct",
          UntracedMs > 0 ? 100 * (T.Wall - UntracedMs) / UntracedMs : 0, "%");
  Res.exact("vm.serialized_bytes", Bytes);
  Res.exact("emit.bc_instrs", BcInstrs);
  Res.exact("mono.functions_in", MonoIn);
  Res.exact("mono.functions_out", MonoOut);
  Res.exact("share.bodies_merged", Merged);
  Res.exact("opt.instrs_removed", (uint64_t)Removed);
}

} // namespace

WorkloadResult runCompileCold(const RunContext &Ctx, SpanLog *Trace) {
  WorkloadResult Res;
  // Set-up is generating the draw, which takes about a millisecond. It
  // is repeated here and once after each timed pass; setup_s is the
  // median over all of them.
  std::vector<double> SetupS;
  std::vector<DrawItem> Draw;
  for (int I = 0; I != kSetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    Draw = makeDraw(Ctx);
    SetupS.push_back(msSince(T0) / 1000);
  }
  if (!resolveReferences(Draw, Res))
    return Res;
  if (Trace) {
    tracedRun(Draw, Ctx, *Trace, Res);
  } else {
    plainRun(Draw, Ctx, Res, SetupS);
    Res.set("setup_s", median(SetupS), "s");
    Res.set("peak_rss_mb", peakRssMb(), "MiB");
  }
  std::printf("compile_cold: %zu programs in the draw\n", Draw.size());
  return Res;
}

} // namespace perfbench
