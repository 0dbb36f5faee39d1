//===- opt/PassManager.cpp ------------------------------------------------===//

#include "opt/PassManager.h"

#include "opt/Escape.h"
#include "ssa/Ssa.h"

#include <chrono>

using namespace virgil;

OptStats &OptStats::operator+=(const OptStats &O) {
  BranchesFolded += O.BranchesFolded;
  CopiesPropagated += O.CopiesPropagated;
  InstrsRemoved += O.InstrsRemoved;
  BlocksRemoved += O.BlocksRemoved;
  CallsInlined += O.CallsInlined;
  CallsDevirtualized += O.CallsDevirtualized;
  DevirtualizedByCha += O.DevirtualizedByCha;
  FieldsRemoved += O.FieldsRemoved;
  AllocsElided += O.AllocsElided;
  FieldsScalarized += O.FieldsScalarized;
  ClosuresFlattened += O.ClosuresFlattened;
  PhisPlaced += O.PhisPlaced;
  SccpFolded += O.SccpFolded;
  LoadsEliminated += O.LoadsEliminated;
  StoresKilled += O.StoresKilled;
  NullChecksRemoved += O.NullChecksRemoved;
  PassRunsSkipped += O.PassRunsSkipped;
  DevirtMs += O.DevirtMs;
  InlineMs += O.InlineMs;
  DceMs += O.DceMs;
  EscapeMs += O.EscapeMs;
  DeadFieldsMs += O.DeadFieldsMs;
  SsaMs += O.SsaMs;
  return *this;
}

OptStats virgil::optimizeModule(IrModule &M, const OptOptions &Options) {
  OptStats Stats;
  using Clock = std::chrono::steady_clock;
  // One memoized dominator analysis serves the whole invocation:
  // Escape, the CHA devirtualizer, and the SSA sandwich consume the
  // same per-function trees instead of re-deriving dominators per
  // pass. CFG-changing passes invalidate below; instruction-level
  // rewrites don't disturb block-level dominance.
  ssa::DominatorAnalysis DomA;

  // Per-pass changed-bit scheduling: ModVersion counts module
  // mutations; a pass is skipped when the module hasn't changed since
  // it last ran (its quiet confirmation run is provably quiet again).
  // A pass's *own* changes re-run it next round (its seen version is
  // recorded pre-bump), since one invocation need not be a fixpoint.
  enum Pass {
    PDevirt,
    PInline,
    PSsa,
    PDce,
    PEscape,
    PDeadFields,
    PassCount
  };
  uint64_t ModVersion = 1;
  uint64_t SeenVersion[PassCount] = {0};

  // Runs one pass, banking its wall time into the named OptStats field.
  auto Timed = [&](double OptStats::*Field, auto &&Pass) -> size_t {
    auto T0 = Clock::now();
    size_t Changed = Pass();
    Stats.*Field +=
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
    return Changed;
  };
  auto Run = [&](Pass P, double OptStats::*Field, const char *Name,
                 auto &&PassFn) -> size_t {
    if (SeenVersion[P] == ModVersion) {
      ++Stats.PassRunsSkipped;
      return 0;
    }
    size_t Changed = Timed(Field, PassFn);
    if (Changed) {
      SeenVersion[P] = ModVersion;
      ++ModVersion;
    } else {
      SeenVersion[P] = ModVersion;
    }
    if (Options.DumpAfter)
      Options.DumpAfter(Name);
    return Changed;
  };

  for (unsigned Round = 0; Round != Options.Rounds; ++Round) {
    size_t Changes = 0;
    if (Options.Devirtualize)
      Changes += Run(PDevirt, &OptStats::DevirtMs, "devirt",
                     [&] { return devirtualize(M, Stats, &DomA); });
    if (Options.Inline)
      Changes += Run(PInline, &OptStats::InlineMs, "inline", [&] {
        size_t N = inlineCalls(M, Options.InlineInstrLimit, Stats);
        if (N)
          DomA.invalidateAll(); // Splicing callee blocks reshapes CFGs.
        return N;
      });
    if (Options.Ssa)
      Changes += Run(PSsa, &OptStats::SsaMs, "ssa-out", [&] {
        // The sandwich's stages handle their own tree invalidation.
        ssa::SsaPassStats S;
        size_t N = ssa::runSsaPasses(M, DomA, S, Options.DumpAfter);
        Stats.PhisPlaced += S.PhisPlaced;
        Stats.SccpFolded += S.SccpFolded;
        Stats.BranchesFolded += S.BranchesFolded;
        Stats.CopiesPropagated += S.CopiesPropagated;
        Stats.LoadsEliminated += S.LoadsEliminated;
        Stats.StoresKilled += S.StoresKilled;
        Stats.NullChecksRemoved += S.NullChecksRemoved;
        Stats.InstrsRemoved += S.InstrsRemoved;
        return N;
      });
    if (Options.Dce)
      Changes += Run(PDce, &OptStats::DceMs, "dce", [&] {
        size_t N = eliminateDeadCode(M, Stats);
        if (N)
          DomA.invalidateAll(); // May delete unreachable blocks.
        return N;
      });
    // After SCCP and DCE so alias chains are short, and
    // before dead-field elimination so fields whose last loads were
    // scalarized away can be dropped in the same round.
    if (Options.Escape)
      Changes += Run(PEscape, &OptStats::EscapeMs, "escape", [&] {
        return scalarReplaceAllocations(M, Stats, &DomA);
      });
    if (Options.DeadFields)
      Changes += Run(PDeadFields, &OptStats::DeadFieldsMs, "deadfields",
                     [&] { return eliminateDeadFields(M, Stats); });
    if (Changes == 0)
      break;
  }
  return Stats;
}
