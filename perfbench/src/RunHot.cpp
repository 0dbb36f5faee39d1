//===- perfbench/src/RunHot.cpp - run_hot workload ------------------------===//
///
/// \file
/// Seven named kernels, compiled during set-up. Each timed op runs one
/// kernel on a fresh Vm with default options (JIT auto, generational
/// heap), from construction until run() returns; the kernels take
/// turns so each gets the same number of runs. The compiler does no
/// work in a timed run; the VM, JIT and heap do all of it. Between
/// rounds of runs, each kernel is compiled once more for compile_ms.
///
/// The seed picks each generator's size parameters from the range in
/// the table below, so a held-out seed runs different instances of the
/// same kernels. The ranges are narrow (about 2%), so the seed moves
/// run times little and the benchmark's spread stays the host's. nqueens is the hand-written example at a fixed board
/// size with its hand-known solution count as the reference.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Staged.h"

#include "corpus/Generators.h"
#include "vm/BytecodeSerializer.h"

#include <cstdio>
#include <functional>

namespace perfbench {

using namespace virgil;

namespace {

struct KernelSpec {
  const char *Name;
  /// Span names for the traced run (static strings).
  const char *Span;
  std::function<std::optional<Source>(Rng &, const RunContext &)> Make;
};

constexpr int kQueens = 9;
/// Set-up (generate and compile every kernel) is repeated this often
/// before the first timed op, and once more every kSetupEvery timed
/// rounds; setup_s is the median over all of them.
constexpr int kSetupReps = 5;
constexpr size_t kSetupEvery = 8;

const std::vector<KernelSpec> &kernelSpecs() {
  using corpus::genCallConvWorkload;
  static const std::vector<KernelSpec> Specs = {
      {"callconv", "run.callconv",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"callconv",
                       genCallConvWorkload(R.range(570000, 580000))};
       }},
      {"matcher", "run.matcher",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"matcher", corpus::genMatcherWorkload(
                                      8, R.range(75000, 77000))};
       }},
      {"gc_churn", "run.gc_churn",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"gc_churn",
                       corpus::genGcWorkload(R.range(470, 480), 100)};
       }},
      {"escape_churn", "run.escape_churn",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"escape_churn", corpus::genEscapeChurn(
                                           R.range(28000, 29000), 8, 256)};
       }},
      {"ssa_classify", "run.ssa_classify",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"ssa_classify",
                       corpus::genSsaWorkload(4, R.range(30000, 31000))};
       }},
      {"share_traverse", "run.share_traverse",
       [](Rng &R, const RunContext &) -> std::optional<Source> {
         return Source{"share_traverse",
                       corpus::genShareWorkload(4, 8, R.range(16500, 17000))};
       }},
      {"nqueens", "run.nqueens",
       [](Rng &, const RunContext &Ctx) { return nqueensSource(Ctx.Root, kQueens); }},
  };
  return Specs;
}

/// One timed run of a kernel.
struct Sample {
  double RunMs = 0, ConstructMs = 0, JitCompileMs = 0, GcPauseMs = 0;
};

struct Kernel {
  const KernelSpec *Spec;
  Source Src;
  std::unique_ptr<Program> Prog;
  Expectation Ref;
  /// Scored runs, plus the counters of the first run (which every
  /// later run must repeat exactly).
  std::vector<Sample> Samples;
  std::optional<VmResult> First;

  std::vector<double> field(double Sample::*F) const {
    std::vector<double> V;
    for (const Sample &S : Samples)
      V.push_back(S.*F);
    return V;
  }
};

/// Generates and compiles every kernel; false (with a failure recorded)
/// if one does not compile.
bool setUp(const RunContext &Ctx, std::vector<Kernel> &Ks,
           WorkloadResult &Res) {
  Rng R(Ctx.Seed, /*Stream=*/2);
  Ks.clear();
  for (const KernelSpec &S : kernelSpecs()) {
    Kernel K;
    K.Spec = &S;
    std::optional<Source> Src = S.Make(R, Ctx);
    if (!Src) {
      Res.fail(std::string(S.Name) + ": source unavailable");
      return false;
    }
    K.Src = *Src;
    std::string Err;
    Compiler C;
    K.Prog = C.compile(K.Src.Name, K.Src.Text, &Err);
    if (!K.Prog) {
      Res.fail(std::string(S.Name) + ": compile error: " + Err);
      return false;
    }
    Ks.push_back(std::move(K));
  }
  return true;
}

/// The counters that must repeat exactly run after run.
bool sameCounts(const VmResult &A, const VmResult &B) {
  return A.Counters.Instrs == B.Counters.Instrs &&
         A.Heap.MinorCollections == B.Heap.MinorCollections &&
         A.Heap.MajorCollections == B.Heap.MajorCollections &&
         A.Jit.Deopts == B.Jit.Deopts;
}

} // namespace

WorkloadResult runRunHot(const RunContext &Ctx, SpanLog *Trace) {
  WorkloadResult Res;
  const size_t NK = kernelSpecs().size();
  std::vector<Kernel> Ks;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    if (!setUp(Ctx, Ks, Res))
      return Res;
    SetupS.push_back(msSince(T0) / 1000);
  }
  uint64_t Bytes = 0;
  Clock::time_point RefStart = Clock::now();
  for (size_t I = 0; I != NK; ++I) {
    Kernel &K = Ks[I];
    Bytes += serializeModule(K.Prog->bytecode()).size();
    if (K.Src.Name == "nqueens" + std::to_string(kQueens)) {
      K.Ref.HasResult = true;
      K.Ref.Result = nqueensSolutions(kQueens);
      K.Ref.Output = std::to_string(kQueens) + "-queens solutions: " +
                     std::to_string(K.Ref.Result) + "\n";
      continue;
    }
    std::string Err;
    std::optional<Expectation> E = interpretReference(K.Src, &Err);
    if (!E) {
      Res.fail(K.Src.Name + ": no reference: " + Err);
      return Res;
    }
    K.Ref = *E;
  }

  std::printf("run_hot: set-up %.3f s, references %.3f s\n", median(SetupS),
              msSince(RefStart) / 1000);
  // One op: a fresh Vm for kernel K, constructed and run, checked.
  auto runOnce = [&](Kernel &K, Sample *Out) {
    ++Res.Attempted;
    VmResult R;
    Clock::time_point T0 = Clock::now();
    if (Trace) {
      uint64_t Id = Trace->nextId();
      ScopedSpan Run(*Trace, Id, K.Spec->Span);
      ScopedSpan Ctor(*Trace, Id, "vm.construct", Run.index());
      Vm V(K.Prog->bytecode());
      Out->ConstructMs = Ctor.finish();
      ScopedSpan Exec(*Trace, Id, "vm.run", Run.index());
      R = V.run();
    } else {
      Vm V(K.Prog->bytecode());
      R = V.run();
    }
    Out->RunMs = msSince(T0);
    std::string Bad = checkRun(R, K.Ref);
    if (Bad.empty() && K.First && !sameCounts(R, *K.First))
      Bad = "exact counters drifted between runs";
    if (!Bad.empty()) {
      Res.fail(K.Src.Name + ": " + Bad);
      return false;
    }
    if (!K.First)
      K.First = R;
    Out->JitCompileMs = (double)R.Jit.CompileNs / 1e6;
    Out->GcPauseMs =
        (double)(R.Heap.MinorPauses.SumNs + R.Heap.MajorPauses.SumNs) / 1e6;
    return true;
  };

  Clock::time_point Start = Clock::now();
  while (msSince(Start) < kWarmupSeconds * 1000)
    for (Kernel &K : Ks) {
      Sample S;
      runOnce(K, &S);
    }
  // Timed rounds; each runs every kernel once, so the kernels get equal
  // run counts. Each kernel is scored by the fastest share of its runs.
  // Untraced rounds also compile every kernel once, outside the run
  // timings: compile samples then span the whole window, like the run
  // samples, instead of a few seconds that one slow stretch of the host
  // can cover. Every kSetupEvery rounds they repeat the set-up too.
  std::vector<std::vector<Sample>> Timed(NK);
  std::vector<std::vector<double>> CompileSamples(NK);
  size_t Rounds = 0;
  Start = Clock::now();
  for (; Rounds == 0 || msSince(Start) < Ctx.Seconds * 1000; ++Rounds) {
    for (size_t I = 0; I != NK; ++I) {
      Sample S;
      if (runOnce(Ks[I], &S))
        Timed[I].push_back(S);
    }
    if (Trace)
      continue;
    for (size_t I = 0; I != NK; ++I) {
      Clock::time_point T0 = Clock::now();
      Compiler C;
      auto P = C.compile(Ks[I].Src.Name, Ks[I].Src.Text);
      CompileSamples[I].push_back(msSince(T0));
    }
    if (Rounds % kSetupEvery == kSetupEvery - 1) {
      std::vector<Kernel> Again;
      Clock::time_point T0 = Clock::now();
      setUp(Ctx, Again, Res);
      SetupS.push_back(msSince(T0) / 1000);
    }
  }
  for (size_t I = 0; I != NK; ++I) {
    std::vector<double> Ms;
    for (const Sample &S : Timed[I])
      Ms.push_back(S.RunMs);
    for (size_t K : fastestShare(Ms))
      Ks[I].Samples.push_back(Timed[I][K]);
  }
  std::printf("run_hot: %zu timed rounds\n", Rounds);

  std::vector<double> Medians;
  uint64_t Instrs = 0, Deopts = 0, Minor = 0;
  for (const Kernel &K : Ks) {
    if (K.Samples.empty())
      continue;
    Medians.push_back(median(K.field(&Sample::RunMs)));
    Instrs += K.First->Counters.Instrs;
    Deopts += K.First->Jit.Deopts;
    Minor += K.First->Heap.MinorCollections;
    Res.exact(std::string("run.") + K.Spec->Name + ".instrs",
              K.First->Counters.Instrs);
    Res.exact(std::string("run.") + K.Spec->Name + ".jit_deopts",
              K.First->Jit.Deopts);
    Res.exact(std::string("run.") + K.Spec->Name + ".minor_gcs",
              K.First->Heap.MinorCollections);
  }
  Res.exact("vm.instrs", Instrs);
  Res.exact("jit.deopts", Deopts);
  Res.exact("heap.minor_gcs", Minor);

  if (!Trace) {
    // Compile times are scored as compile_cold scores its programs: the
    // fastest share of each kernel's compiles, pooled; p50/p99 over the
    // pool.
    std::vector<double> Compile, ColdMs;
    for (size_t I = 0; I != NK; ++I) {
      std::vector<double> Fast = fastestOf(CompileSamples[I]);
      Compile.insert(Compile.end(), Fast.begin(), Fast.end());
      // A cold request for a kernel: compile it, then run it.
      ColdMs.push_back(median(Fast) + median(Ks[I].field(&Sample::RunMs)));
    }
    Res.set("setup_s", median(SetupS), "s");
    Res.set("compile_ms_p50", quantile(Compile, 0.5), "ms");
    Res.set("compile_ms_p99", quantile(Compile, 0.99), "ms");
    Res.set("bytecode_bytes", (double)Bytes, "bytes");
    Res.set("run_ms_geomean", geomean(Medians), "ms");
    // A run_hot op is one kernel run; its p50/p99 are taken over the
    // kernels' median run times, so the tail is the slowest kernel and
    // not the host's scheduling hiccups.
    Res.set("req_p50_ms", quantile(Medians, 0.5), "ms");
    Res.set("req_p99_ms", quantile(Medians, 0.99), "ms");
    Res.set("req_cold_p50_ms", median(ColdMs), "ms");
    Res.set("peak_rss_mb", peakRssMb(), "MiB");
    return Res;
  }

  uint64_t IcHits = 0, IcMisses = 0, JitCompiles = 0, CodeBytes = 0, Osr = 0,
           Major = 0, Slots = 0, Promoted = 0, Nursery = 0;
  double ConstructMs = 0, JitMs = 0, PauseMs = 0, MinorP99Us = 0;
  for (const Kernel &K : Ks) {
    if (K.Samples.empty())
      continue;
    const VmResult &F = *K.First;
    std::string P = std::string("run.") + K.Spec->Name;
    Res.set(P + ".ms", median(K.field(&Sample::RunMs)), "ms");
    Res.set(P + ".instrs", (double)F.Counters.Instrs, "count");
    Res.set(P + ".jit_deopts", (double)F.Jit.Deopts, "count");
    Res.set(P + ".minor_gcs", (double)F.Heap.MinorCollections, "count");
    ConstructMs += median(K.field(&Sample::ConstructMs));
    JitMs += median(K.field(&Sample::JitCompileMs));
    PauseMs += median(K.field(&Sample::GcPauseMs));
    IcHits += F.Counters.IcHits;
    IcMisses += F.Counters.IcMisses;
    JitCompiles += F.Jit.Compiles;
    CodeBytes += F.Jit.CodeBytes;
    Osr += F.Jit.OsrEntries;
    Major += F.Heap.MajorCollections;
    Slots += F.Heap.SlotsAllocated;
    Promoted += F.Heap.SlotsPromoted;
    Nursery += F.Heap.NurserySlotsAllocated;
    MinorP99Us = std::max(MinorP99Us,
                          F.Heap.MinorPauses.percentileNs(0.99) / 1000);
  }
  // Totals are one run of every kernel.
  Res.set("vm.construct_ms", ConstructMs, "ms");
  Res.set("vm.instrs", (double)Instrs, "count");
  Res.set("vm.ic_hit_pct",
          IcHits + IcMisses ? 100.0 * (double)IcHits / (double)(IcHits + IcMisses)
                            : 0,
          "%");
  Res.set("jit.compiles", (double)JitCompiles, "count");
  Res.set("jit.compile_ms", JitMs, "ms");
  Res.set("jit.code_bytes", (double)CodeBytes, "bytes");
  Res.set("jit.osr_entries", (double)Osr, "count");
  Res.set("jit.deopts", (double)Deopts, "count");
  Res.set("heap.minor_gcs", (double)Minor, "count");
  Res.set("heap.major_gcs", (double)Major, "count");
  Res.set("heap.gc_pause_ms", PauseMs, "ms");
  Res.set("heap.minor_pause_p99_us", MinorP99Us, "us");
  Res.set("heap.slots_allocated", (double)Slots, "count");
  Res.set("heap.survival_pct",
          Nursery ? 100.0 * (double)Promoted / (double)Nursery : 0, "%");
  return Res;
}

} // namespace perfbench
