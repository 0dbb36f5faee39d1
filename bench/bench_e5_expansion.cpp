//===- bench/bench_e5_expansion.cpp - E5: code expansion (§4.3) ------------===//
///
/// Paper claim (§4.3 tradeoffs / §6.1): "The main drawback to
/// monomorphization is that polymorphic code can be duplicated
/// repeatedly ... In our experience, this has not been an issue in real
/// programs." The paper also "continually tracks the amount of code
/// expansion due to specialization."
///
/// This harness does the same tracking: for every corpus program and
/// for synthetic sweeps over (generic functions x distinct
/// instantiations), it reports pre/post function counts, instruction
/// counts, and the expansion factor. The expected *shape*: expansion
/// scales with distinct instantiations, stays modest (< 2x) on the
/// realistic corpus programs, and unused generics cost nothing.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Corpus.h"
#include "corpus/Generators.h"
#include "vm/BytecodeSerializer.h"

#include <cstdio>

using namespace virgil;
using namespace virgil::bench;

static void reportProgram(const char *Name, const std::string &Source) {
  CompilerOptions NoOpt = tableOptions();
  NoOpt.Optimize = false; // Measure pure specialization, not inlining.
  Compiler C(NoOpt);
  std::string Error;
  auto P = C.compile(Name, Source, &Error);
  if (!P) {
    std::printf("%-24s (compile error)\n", Name);
    return;
  }
  const PipelineStats &S = P->stats();
  std::printf("%-24s %8zu %8zu %8zu %8zu %8.2fx\n", Name,
              S.Poly.NumFunctions, S.MonoIr.NumFunctions,
              S.Poly.NumInstrs, S.MonoIr.NumInstrs,
              (double)S.MonoIr.NumInstrs /
                  (S.Poly.NumInstrs ? S.Poly.NumInstrs : 1));
}

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E5: code expansion from monomorphization (paper §4.3/§6.1)",
         "Specialization duplicates code per distinct instantiation; on "
         "realistic programs the expansion stays modest.");

  std::printf("\n-- corpus programs --\n");
  std::printf("%-24s %8s %8s %8s %8s %9s\n", "program", "fn-pre",
              "fn-post", "in-pre", "in-post", "expansion");
  for (const auto &Prog : corpus::allPrograms())
    reportProgram(Prog.Name, Prog.Source);

  std::printf("\n-- synthetic sweep: G generics x I instantiations --\n");
  std::printf("%-24s %8s %8s %8s %8s %9s\n", "workload", "fn-pre",
              "fn-post", "in-pre", "in-post", "expansion");
  for (int G : {1, 2, 4}) {
    for (int I : {1, 2, 4, 8}) {
      char Name[64];
      std::snprintf(Name, sizeof Name, "G=%d I=%d", G, I);
      reportProgram(Name, corpus::genExpansionWorkload(G, I));
    }
  }

  std::printf("\n-- dead generics cost nothing --\n");
  reportProgram("live main only", R"(
def unusedA<T>(x: T) -> T { return x; }
def unusedB<T>(x: T, y: T) -> (T, T) { return (x, y); }
class UnusedBox<T> { var v: T; new(v) { } }
def main() -> int { return 7; }
)");

  // Sharing leg (E16): the same expansion pressure with ref-typed
  // instantiations, compiled twice — specialization sharing off and on
  // — and compared by post-normalization function/instruction counts
  // and serialized module size. code_expansion_ratio (normalized
  // instructions off / on) is the gated headline: it answers "how much
  // of the monomorphization blow-up does sharing reclaim on ref-heavy
  // generic code". Serialized bytes move less than instructions
  // because the v2 serializer already back-references identical body
  // blobs even when IR sharing is off.
  std::printf("\n-- specialization sharing on ref instantiations "
              "(E16) --\n");
  std::printf("%-12s %7s %6s %8s %7s %10s %9s %7s\n", "workload",
              "fn-off", "fn-on", "in-off", "in-on", "bytes-off",
              "bytes-on", "ratio");
  double HeadlineRatio = 0, HeadlineShareRatio = 0;
  double HeadlineBytesRatio = 0;
  for (int G : {1, 2, 4}) {
    for (int I : {2, 4, 8}) {
      std::string Src = corpus::genShareWorkload(G, I);
      CompilerOptions Off = tableOptions(), On = tableOptions();
      Off.ShareSpecializations = false;
      On.ShareSpecializations = true;
      auto POff = compileOrDie(Src, Off);
      auto POn = compileOrDie(Src, On);
      const IrStats &SOff = POff->stats().NormIr;
      const IrStats &SOn = POn->stats().NormIr;
      size_t BytesOff = serializeModule(POff->bytecode()).size();
      size_t BytesOn = serializeModule(POn->bytecode()).size();
      double Ratio =
          SOn.NumInstrs ? (double)SOff.NumInstrs / SOn.NumInstrs : 1.0;
      std::printf("G=%d I=%d %12zu %6zu %8zu %7zu %10zu %9zu %6.2fx\n",
                  G, I, SOff.NumFunctions, SOn.NumFunctions,
                  SOff.NumInstrs, SOn.NumInstrs, BytesOff, BytesOn,
                  Ratio);
      if (G == 4 && I == 8) {
        HeadlineRatio = Ratio;
        HeadlineShareRatio = POn->stats().Share.shareRatio();
        HeadlineBytesRatio =
            BytesOn ? (double)BytesOff / BytesOn : 1.0;
      }
    }
  }

  // Runtime leg of the sharing story: identical throughput with
  // sharing on and off (the merged bodies are observationally the
  // same code), so the expansion win is free at run time.
  std::string ShareHot = corpus::genShareWorkload(4, 8, 3000);
  CompilerOptions ShOff = tableOptions(), ShOn = tableOptions();
  ShOff.ShareSpecializations = false;
  ShOn.ShareSpecializations = true;
  auto PShOff = compileOrDie(ShareHot, ShOff);
  auto PShOn = compileOrDie(ShareHot, ShOn);
  int ShIters = Opts.Quick ? 3 : 10;
  int ShRounds = Opts.Quick ? 3 : 5;
  // All interpreter-tier legs pin the JIT off: E5's throughput
  // comparisons are same-engine ratios, and the checked-in baseline
  // numbers predate the JIT tier. The tier gets its own leg below.
  VmOptions InterpOpts = tableVmOptions();
  InterpOpts.Jit = VmOptions::JitMode::Off;
  VmThroughput TShOff =
      measureVmThroughput(*PShOff, ShIters, ShRounds, InterpOpts);
  VmThroughput TShOn =
      measureVmThroughput(*PShOn, ShIters, ShRounds, InterpOpts);
  std::printf("\n-- vm throughput on the shared workload (G=4 I=8 "
              "reps=3000) --\n");
  std::printf("%-12s %14s %16s\n", "sharing", "Minstr/s", "instrs/run");
  std::printf("%-12s %14.1f %16llu\n", "off", TShOff.MinstrPerSec,
              (unsigned long long)TShOff.Instrs);
  std::printf("%-12s %14.1f %16llu   (same instruction stream, "
              "smaller module)\n",
              "on", TShOn.MinstrPerSec,
              (unsigned long long)TShOn.Instrs);

  // Runtime leg: VM throughput over the expanded (G=4, I=8) code, with
  // main's instantiation calls repeated so the run is long enough to
  // measure. The headline is the *unoptimized* stream — E5 studies
  // code expansion, and the inliner collapses the expanded call
  // structure this experiment exists to exercise.
  std::string Hot = corpus::genExpansionWorkload(4, 8, 2000);
  CompilerOptions NoOpt = tableOptions();
  NoOpt.Optimize = false;
  auto PNoOpt = compileOrDie(Hot, NoOpt);
  auto POpt = compileOrDie(Hot);
  int Iters = Opts.Quick ? 3 : 10;
  int Rounds = Opts.Quick ? 3 : 5;
  VmThroughput TN = measureVmThroughput(*PNoOpt, Iters, Rounds, InterpOpts);
  VmThroughput TO = measureVmThroughput(*POpt, Iters, Rounds, InterpOpts);
  std::printf("\n-- vm throughput on the expanded code (G=4 I=8 "
              "reps=2000) --\n");
  std::printf("%-12s %14s %16s %10s\n", "stream", "Minstr/s",
              "instrs/run", "calls");
  std::printf("%-12s %14.1f %16llu %10llu\n", "no-opt", TN.MinstrPerSec,
              (unsigned long long)TN.Instrs,
              (unsigned long long)TN.Counters.Calls);
  std::printf("%-12s %14.1f %16llu %10llu   (inliner collapses the "
              "expansion)\n",
              "optimized", TO.MinstrPerSec,
              (unsigned long long)TO.Instrs,
              (unsigned long long)TO.Counters.Calls);

  // JIT leg (E18): the expanded call-dense stream is the shape the
  // template JIT is best at — every call site is monomorphic after
  // specialization, so inline caches never miss. Exact accounting
  // requires the same instrs/run as the interpreter leg above.
  VmOptions JitOpts = tableVmOptions();
  JitOpts.Jit = VmOptions::JitMode::On;
  JitOpts.JitThreshold = 0;
  VmResult JitProbe = PNoOpt->runVm(JitOpts);
  dieIfTrapped(JitProbe.Trapped, JitProbe.TrapMessage, "E5 vm+jit");
  double JitRate = 0, JitSpeedup = 0;
  if (JitProbe.Jit.Available) {
    VmThroughput TJ = measureVmThroughput(*PNoOpt, Iters, Rounds, JitOpts);
    if (TJ.Instrs != TN.Instrs) {
      std::fprintf(stderr,
                   "E5: JIT instruction accounting diverged "
                   "(%llu vs %llu)\n",
                   (unsigned long long)TJ.Instrs,
                   (unsigned long long)TN.Instrs);
      return 1;
    }
    JitRate = TJ.MinstrPerSec;
    JitSpeedup = TN.MinstrPerSec > 0 ? TJ.MinstrPerSec / TN.MinstrPerSec : 0;
    std::printf("%-12s %14.1f %16llu %10llu   (%.2fx the interpreted "
                "no-opt stream)\n",
                "no-opt+jit", TJ.MinstrPerSec,
                (unsigned long long)TJ.Instrs,
                (unsigned long long)TJ.Counters.Calls, JitSpeedup);
  } else {
    std::printf("%-12s %14s\n", "no-opt+jit", "(host unsupported)");
  }

  // SSA mid-tier leg (E19): the specialization story's §3.3 payoff.
  // The workload re-reads fields across diamond joins (redundant
  // FieldGet/NullCheck chains only dominance-scoped load elimination
  // forwards) and drives classify<T> query ladders that SCCP folds
  // to straight-line code after specialization. Compiled twice — SSA
  // sandwich off (which folds nothing) and on — the ratio of *retired*
  // VM instructions (ssa-off / ssa-on, same program, same inputs) is
  // the gated ssa_instr_reduction headline: deterministic,
  // load-independent, and measured on exactly the code the sparse
  // passes rewrote. The throughput legs check the rewrite is also a
  // win (or at least free) at run time, and the opt wall-time sums
  // check that the sandwich keeps the optimizer's total cost in an
  // envelope of the optimizer without it.
  std::string SsaSrc = corpus::genSsaWorkload(4, 2000);
  CompilerOptions SsaOff = tableOptions(), SsaOn = tableOptions();
  SsaOff.Opt.Ssa = false;
  SsaOn.Opt.Ssa = true;
  auto PSsaOff = compileOrDie(SsaSrc, SsaOff);
  auto PSsaOn = compileOrDie(SsaSrc, SsaOn);
  VmResult RSsaOff = PSsaOff->runVm(InterpOpts);
  VmResult RSsaOn = PSsaOn->runVm(InterpOpts);
  dieIfTrapped(RSsaOff.Trapped, RSsaOff.TrapMessage, "E19 ssa-off");
  dieIfTrapped(RSsaOn.Trapped, RSsaOn.TrapMessage, "E19 ssa-on");
  if (RSsaOff.ResultBits != RSsaOn.ResultBits) {
    std::fprintf(stderr, "E19: ssa on/off results diverged\n");
    return 1;
  }
  VmThroughput TSsaOff =
      measureVmThroughput(*PSsaOff, Iters, Rounds, InterpOpts);
  VmThroughput TSsaOn =
      measureVmThroughput(*PSsaOn, Iters, Rounds, InterpOpts);
  double SsaReduction =
      TSsaOn.Instrs ? (double)TSsaOff.Instrs / TSsaOn.Instrs : 1.0;
  const PhaseTimings &TmOff = PSsaOff->stats().Timings;
  const PhaseTimings &TmOn = PSsaOn->stats().Timings;
  double SsaOptMsOff = TmOff.OptMonoMs + TmOff.OptNormMs;
  double SsaOptMsOn = TmOn.OptMonoMs + TmOn.OptNormMs;
  OptStats SsaCnt = PSsaOn->stats().OptAfterMono;
  SsaCnt += PSsaOn->stats().OptAfterNorm;
  std::printf("\n-- ssa mid-tier on the field/classify workload (E19, "
              "U=4 rounds=2000) --\n");
  std::printf("%-12s %14s %16s %10s\n", "ssa", "Minstr/s", "instrs/run",
              "opt-ms");
  std::printf("%-12s %14.1f %16llu %10.2f\n", "off", TSsaOff.MinstrPerSec,
              (unsigned long long)TSsaOff.Instrs, SsaOptMsOff);
  std::printf("%-12s %14.1f %16llu %10.2f   (%.2fx fewer instrs "
              "retired)\n",
              "on", TSsaOn.MinstrPerSec,
              (unsigned long long)TSsaOn.Instrs, SsaOptMsOn, SsaReduction);
  std::printf("   opt counters (both phases): %zu phis, %zu sccp folds, "
              "%zu loads eliminated, %zu stores killed, %zu null checks "
              "removed\n",
              SsaCnt.PhisPlaced, SsaCnt.SccpFolded, SsaCnt.LoadsEliminated,
              SsaCnt.StoresKilled, SsaCnt.NullChecksRemoved);

  // JIT leg of E19: the same on/off pair through the template JIT.
  // The tier compiles whatever bytecode it is given, so the sparse
  // rewrite must carry through. The non-regression metric is
  // wall-time per run, not Minstr/s: the on/off legs execute
  // *different* instruction streams (that is the point), and the
  // instructions SSA removes are the cheap loads the JIT retires
  // fastest, so the on-leg's rate can drop while the run itself gets
  // no slower. Same for the interpreter ratio below.
  double SsaRunRatio =
      TSsaOff.MinstrPerSec > 0 && TSsaOn.MinstrPerSec > 0
          ? ((double)TSsaOn.Instrs / TSsaOn.MinstrPerSec) /
                ((double)TSsaOff.Instrs / TSsaOff.MinstrPerSec)
          : 1.0;
  double SsaJitOn = 0, SsaJitOff = 0, SsaJitRunRatio = 1.0;
  if (JitProbe.Jit.Available) {
    VmThroughput TJOff = measureVmThroughput(*PSsaOff, Iters, Rounds, JitOpts);
    VmThroughput TJOn = measureVmThroughput(*PSsaOn, Iters, Rounds, JitOpts);
    SsaJitOff = TJOff.MinstrPerSec;
    SsaJitOn = TJOn.MinstrPerSec;
    if (TJOff.MinstrPerSec > 0 && TJOn.MinstrPerSec > 0)
      SsaJitRunRatio = ((double)TJOn.Instrs / TJOn.MinstrPerSec) /
                       ((double)TJOff.Instrs / TJOff.MinstrPerSec);
    std::printf("%-12s %14.1f %16llu\n", "off+jit", TJOff.MinstrPerSec,
                (unsigned long long)TJOff.Instrs);
    std::printf("%-12s %14.1f %16llu   (%.2fx the ssa-off run time)\n",
                "on+jit", TJOn.MinstrPerSec,
                (unsigned long long)TJOn.Instrs, SsaJitRunRatio);
  } else {
    std::printf("%-12s %14s\n", "jit", "(host unsupported)");
  }

  if (!Opts.JsonPath.empty()) {
    JsonReport J("e5_expansion");
    J.metric("vm_minstr_per_sec", TN.MinstrPerSec);
    J.metric("vm_minstr_per_sec_opt", TO.MinstrPerSec);
    J.metric("vm_instrs_per_run", (double)TN.Instrs);
    J.metric("vm_calls_per_run", (double)TN.Counters.Calls);
    J.metric("code_expansion_ratio", HeadlineRatio);
    J.metric("share_ratio", HeadlineShareRatio);
    J.metric("serialized_bytes_ratio", HeadlineBytesRatio);
    J.metric("vm_minstr_per_sec_share_off", TShOff.MinstrPerSec);
    J.metric("vm_minstr_per_sec_share_on", TShOn.MinstrPerSec);
    J.metric("jit_available", JitProbe.Jit.Available ? 1 : 0);
    J.metric("vm_jit_minstr_per_sec", JitRate);
    J.metric("jit_speedup", JitSpeedup);
    J.metric("ssa_instr_reduction", SsaReduction);
    J.metric("vm_minstr_per_sec_ssa_off", TSsaOff.MinstrPerSec);
    J.metric("vm_minstr_per_sec_ssa_on", TSsaOn.MinstrPerSec);
    J.metric("ssa_run_time_ratio", SsaRunRatio);
    J.metric("vm_jit_minstr_per_sec_ssa_off", SsaJitOff);
    J.metric("vm_jit_minstr_per_sec_ssa_on", SsaJitOn);
    J.metric("ssa_jit_run_time_ratio", SsaJitRunRatio);
    J.metric("opt_ms_ssa_off", SsaOptMsOff);
    J.metric("opt_ms_ssa_on", SsaOptMsOn);
    J.write(Opts.JsonPath);
  }
  return 0;
}
