//===- bench/bench_e8_alloc_gc.cpp - E8: no implicit allocation + GC -------===//
///
/// Paper claims (§4.2/§4.3): "operations on tuples never allocate on
/// the heap"; "Virgil's native implementation never allocates memory
/// on the heap except when done explicitly by the programmer";
/// "Monomorphization affords the opportunity for whole-program
/// normalization ... programs can be compiled to a form where implicit
/// memory allocations on the heap are not required." And §5: a precise
/// semi-space garbage collector.
///
/// Part 1 audits every corpus program on the VM: heap objects/arrays
/// must equal the explicit `new` executions (counted by the
/// interpreter oracle), with string literals reported separately.
/// Part 2 stresses the collector and reports survival. Part 3 races
/// the generational heap against the single-space collector on an
/// allocation-dominated workload and gates the speedup
/// (alloc_speedup_gen), alongside pause percentiles, survival rate,
/// and write-barrier traffic.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Corpus.h"
#include "corpus/Generators.h"

#include <chrono>
#include <cstdio>
#include <sstream>

using namespace virgil;
using namespace virgil::bench;

namespace {

/// Allocation-dominated churn: a promoted keep-set of large arrays
/// that is occasionally re-pointed at fresh nursery arrays (old→young
/// stores → write barrier), plus one garbage Array<int>.new(256) per
/// iteration so nearly all executed work is allocation. Loop body is
/// a handful of instructions per 258 allocated slots, which is what
/// lets the nursery's O(survivors) minor collections beat the
/// single-space collector's O(live) copies.
std::string genAllocChurn(int Rounds) {
  std::ostringstream OS;
  OS << R"(
def main() -> int {
  var keep = Array<Array<int>>.new(64);
  for (i = 0; i < 64; i = i + 1) keep[i] = Array<int>.new(512);
  var acc = 0;
)";
  OS << "  for (round = 0; round < " << Rounds << "; round = round + 1) {\n";
  OS << R"(
    var g = Array<int>.new(256);
    g[0] = round;
    acc = (acc + g[0]) % 1000000;
    if (round % 997 == 0) keep[round % 64] = Array<int>.new(512);
  }
  var sum = 0;
  for (i = 0; i < 64; i = i + 1) sum = sum + keep[i].length;
  return (acc + sum) % 1000000;
}
)";
  return OS.str();
}

struct AllocSample {
  double MslotsPerSec = 0;
  HeapStats Heap;
};

/// Best-of-\p Repeats allocation throughput (million heap slots
/// allocated per wall second) for \p P under \p Opts.
AllocSample measureAllocThroughput(Program &P, int Repeats, VmOptions Opts) {
  AllocSample Best;
  for (int I = 0; I != Repeats; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    VmResult R = P.runVm(Opts);
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
    dieIfTrapped(R.Trapped, R.TrapMessage, "E8 alloc throughput");
    double Mslots = (double)R.Heap.SlotsAllocated / Sec / 1e6;
    if (Mslots > Best.MslotsPerSec) {
      Best.MslotsPerSec = Mslots;
      Best.Heap = R.Heap;
    }
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E8: zero implicit heap allocation + semispace GC "
         "(paper §4.2/§4.3/§5)",
         "VM allocations must match the interpreter's explicit "
         "object/array news exactly; boxed tuples exist only in the "
         "interpreter.");

  std::printf("(arrays may exceed the source-level count: Array<(A, B)> "
              "is backed by one array per scalar)\n");
  std::printf("%-24s %9s %9s %9s %9s %12s\n", "program", "objs",
              "arrays", "strings", "tuplesVM", "tuplesInterp");
  bool AllClean = true;
  // The audit counts *explicit* news on both engines, so scalar
  // replacement must be off here: escape analysis deletes explicit
  // allocations from the VM pipeline by design (E17 below measures
  // exactly that), which would read as a false implicit-allocation
  // mismatch against the unoptimized interpreter oracle.
  CompilerOptions AuditOptions = tableOptions();
  AuditOptions.Opt.Escape = false;
  for (const auto &Prog : corpus::allPrograms()) {
    Compiler C(AuditOptions);
    std::string Error;
    auto P = C.compile(Prog.Name, Prog.Source, &Error);
    if (!P) {
      std::printf("%-24s (compile error)\n", Prog.Name);
      AllClean = false;
      continue;
    }
    InterpResult I = P->interpret();
    VmResult V = P->runVm(tableVmOptions());
    if (I.Trapped || V.Trapped) {
      std::printf("%-24s (trapped)\n", Prog.Name);
      AllClean = false;
      continue;
    }
    // Oracle: object allocations must match the interpreter exactly;
    // arrays may exceed it because the multiple-arrays strategy backs
    // one Array<(A, B)> with one array per scalar, and never fall
    // short of the explicit news minus string literals.
    bool Match =
        V.Counters.HeapObjects == I.Counters.HeapObjects &&
        V.Counters.HeapArrays + V.Counters.StringAllocs >=
            I.Counters.HeapArrays;
    AllClean &= Match;
    std::printf("%-24s %9llu %9llu %9llu %9d %12llu%s\n", Prog.Name,
                (unsigned long long)V.Counters.HeapObjects,
                (unsigned long long)V.Counters.HeapArrays,
                (unsigned long long)V.Counters.StringAllocs, 0,
                (unsigned long long)I.Counters.HeapTuples,
                Match ? "" : "   MISMATCH");
  }
  std::printf("\nexplicit-only allocation verified on all programs: %s\n",
              AllClean ? "yes" : "NO");

  std::printf("\n-- semispace GC stress (rounds of garbage + live set) --\n");
  std::printf("%-8s %12s %12s %14s %12s\n", "rounds", "allocs",
              "collections", "slots copied", "max live");
  uint64_t Gc1024 = 0, MaxLive1024 = 0;
  for (int Rounds : {16, 64, 256, 1024}) {
    auto P = compileOrDie(corpus::genGcWorkload(Rounds, 100));
    VmResult R = P->runVm(tableVmOptions());
    dieIfTrapped(R.Trapped, R.TrapMessage, "E8 gc");
    if (Rounds == 1024) {
      Gc1024 = R.Heap.Collections;
      MaxLive1024 = R.Heap.MaxLiveSlots;
    }
    std::printf("%-8d %12llu %12llu %14llu %12llu\n", Rounds,
                (unsigned long long)R.Heap.ObjectsAllocated,
                (unsigned long long)R.Heap.Collections,
                (unsigned long long)R.Heap.SlotsCopied,
                (unsigned long long)R.Heap.MaxLiveSlots);
  }
  std::printf("\nexpected shape: allocations grow linearly with rounds; "
              "max-live stays bounded by the persistent set.\n");

  std::printf("\n-- generational vs single-space allocation throughput --\n");
  int ChurnRounds = Opts.Quick ? 8000 : 60000;
  int Repeats = Opts.Quick ? 2 : 4;
  auto Churn = compileOrDie(genAllocChurn(ChurnRounds));
  VmOptions GenOpts = tableVmOptions();
  GenOpts.Generational = true;
  VmOptions SemiOpts = tableVmOptions();
  SemiOpts.Generational = false;
  AllocSample Gen = measureAllocThroughput(*Churn, Repeats, GenOpts);
  AllocSample Semi = measureAllocThroughput(*Churn, Repeats, SemiOpts);
  double Speedup = Semi.MslotsPerSec > 0
                       ? Gen.MslotsPerSec / Semi.MslotsPerSec
                       : 0;
  std::printf("%-14s %12s %8s %8s %12s %12s %10s\n", "mode", "Mslots/s",
              "minor", "major", "p50 pause", "p99 pause", "barriers");
  std::printf("%-14s %12.2f %8llu %8llu %10.0fns %10.0fns %10llu\n",
              "generational", Gen.MslotsPerSec,
              (unsigned long long)Gen.Heap.MinorCollections,
              (unsigned long long)Gen.Heap.MajorCollections,
              Gen.Heap.MinorPauses.percentileNs(0.50),
              Gen.Heap.MinorPauses.percentileNs(0.99),
              (unsigned long long)Gen.Heap.BarrierHits);
  std::printf("%-14s %12.2f %8llu %8llu %10.0fns %10.0fns %10llu\n",
              "single-space", Semi.MslotsPerSec,
              (unsigned long long)Semi.Heap.MinorCollections,
              (unsigned long long)Semi.Heap.MajorCollections,
              Semi.Heap.MajorPauses.percentileNs(0.50),
              Semi.Heap.MajorPauses.percentileNs(0.99),
              (unsigned long long)Semi.Heap.BarrierHits);
  std::printf("\nalloc speedup (gen/semi): %.2fx   nursery survival: %.2f%%\n",
              Speedup, Gen.Heap.survivalRate() * 100.0);

  std::printf("\n-- E17: escape analysis vs nursery pressure --\n");
  int EscRounds = Opts.Quick ? 2000 : 20000;
  std::string EscSrc = corpus::genEscapeChurn(EscRounds, 8, 256);
  auto runEscape = [&](bool Escape) {
    CompilerOptions CO = tableOptions();
    CO.Opt.Escape = Escape;
    Compiler C(CO);
    std::string Error;
    auto P = C.compile("escape_churn", EscSrc, &Error);
    if (!P) {
      std::fprintf(stderr, "E17 compile failed: %s\n", Error.c_str());
      std::exit(1);
    }
    VmResult R = P->runVm(tableVmOptions());
    dieIfTrapped(R.Trapped, R.TrapMessage, "E17 escape churn");
    return R;
  };
  VmResult EscOn = runEscape(true);
  VmResult EscOff = runEscape(false);
  if (EscOn.ResultBits != EscOff.ResultBits) {
    std::fprintf(stderr, "E17: escape on/off results diverge\n");
    return 1;
  }
  double NurseryOn = (double)EscOn.Heap.NurserySlotsAllocated * 8;
  double NurseryOff = (double)EscOff.Heap.NurserySlotsAllocated * 8;
  double NurseryReduction = NurseryOn > 0 ? NurseryOff / NurseryOn : 0;
  std::printf("%-12s %14s %10s %10s %10s\n", "escape", "nursery bytes",
              "objects", "minor", "barriers");
  std::printf("%-12s %14.0f %10llu %10llu %10llu\n", "on", NurseryOn,
              (unsigned long long)EscOn.Heap.ObjectsAllocated,
              (unsigned long long)EscOn.Heap.MinorCollections,
              (unsigned long long)EscOn.Heap.BarrierHits);
  std::printf("%-12s %14.0f %10llu %10llu %10llu\n", "off", NurseryOff,
              (unsigned long long)EscOff.Heap.ObjectsAllocated,
              (unsigned long long)EscOff.Heap.MinorCollections,
              (unsigned long long)EscOff.Heap.BarrierHits);
  std::printf("\nnursery-byte reduction (off/on): %.2fx\n",
              NurseryReduction);

  if (!Opts.JsonPath.empty()) {
    JsonReport J("e8_alloc_gc");
    J.metric("alloc_match_all", AllClean ? 1 : 0);
    J.metric("gc_collections_1024", (double)Gc1024);
    J.metric("gc_max_live_slots_1024", (double)MaxLive1024);
    J.metric("alloc_mslots_gen", Gen.MslotsPerSec);
    J.metric("alloc_mslots_semi", Semi.MslotsPerSec);
    J.metric("alloc_speedup_gen", Speedup);
    J.metric("gc_minor_p99_pause_ns", Gen.Heap.MinorPauses.percentileNs(0.99));
    J.metric("gc_survival_pct", Gen.Heap.survivalRate() * 100.0);
    J.metric("gc_barrier_hits", (double)Gen.Heap.BarrierHits);
    J.metric("escape_nursery_bytes_on", NurseryOn);
    J.metric("escape_nursery_bytes_off", NurseryOff);
    J.metric("escape_nursery_reduction", NurseryReduction);
    J.metric("escape_minor_gcs_on", (double)EscOn.Heap.MinorCollections);
    J.metric("escape_minor_gcs_off",
             (double)EscOff.Heap.MinorCollections);
    J.metric("escape_barrier_hits_on", (double)EscOn.Heap.BarrierHits);
    J.metric("escape_barrier_hits_off",
             (double)EscOff.Heap.BarrierHits);
    J.write(Opts.JsonPath);
  }
  return AllClean ? 0 : 1;
}
