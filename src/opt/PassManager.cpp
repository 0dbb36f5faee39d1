//===- opt/PassManager.cpp ------------------------------------------------===//

#include "opt/PassManager.h"

#include "ir/PassScope.h"
#include "opt/Escape.h"
#include "ssa/Ssa.h"

#include <chrono>
#include <vector>

using namespace virgil;

OptStats virgil::optimizeModule(IrModule &M, const OptOptions &Options) {
  OptStats Stats;
  using Clock = std::chrono::steady_clock;
  // One memoized dominator analysis serves the whole invocation:
  // Escape, the CHA devirtualizer, and the SSA sandwich consume the
  // same per-function trees instead of re-deriving dominators per
  // pass. Each CFG-changing pass invalidates the trees of the functions
  // it reshaped; instruction-level rewrites don't disturb block-level
  // dominance.
  ssa::DominatorAnalysis DomA;

  // Per-function change tracking. Every (pass, function) visit has a
  // tick — its pass run's Base plus the function's position — so ticks
  // order visits the way a pass makes them. ChangedAt[i] is the tick of
  // the last visit that changed Functions[i]; Quiet[P][i] the tick of
  // pass P's last visit of it that changed nothing, or 0 when P changed
  // it there (one visit need not be a fixpoint) or never visited it.
  // P skips Functions[i] when that quiet visit is newer than every
  // change to the function and, for the inliner, to each direct callee
  // the visit saw: it would read the same input and do nothing again.
  enum Pass { PDevirt, PInline, PSsa, PDce, PEscape, PassCount };
  std::vector<uint64_t> ChangedAt, Quiet[PassCount];
  uint64_t Base = 1, LastChange = 0;
  // Dead-field elimination reads every function at once: its last
  // quiet run's tick, 0 when it has to run.
  uint64_t DeadFieldsQuiet = 0;
  PassScope Scope;

  auto mustVisit = [&](Pass P, size_t I) {
    uint64_t Q = Quiet[P][I];
    if (Q == 0 || ChangedAt[I] > Q)
      return true;
    if (P == PInline)
      for (const IrFunction *G : Scope.Callees[I]) {
        size_t J = G->id();
        if (J >= M.Functions.size() || M.Functions[J] != G ||
            ChangedAt[J] > Q)
          return true;
      }
    return false;
  };
  size_t NumBodies = 0; // Functions with blocks: the ones passes visit.
  for (const IrFunction *F : M.Functions)
    NumBodies += !F->Blocks.empty();

  // Runs one pass, banking its wall time into the named OptStats field.
  auto Timed = [&](double OptStats::*Field, auto &&Pass) -> size_t {
    auto T0 = Clock::now();
    size_t Changed = Pass();
    Stats.*Field +=
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
    return Changed;
  };
  // Runs a per-function pass over the functions it must visit; a run
  // with nothing to visit is skipped whole (no timing, no dump).
  // Returns whether it changed any function.
  auto Run = [&](Pass P, double OptStats::*Field, const char *Name,
                 auto &&PassFn) -> bool {
    size_t N = M.Functions.size();
    ChangedAt.resize(N, 0);
    Quiet[P].resize(N, 0);
    Scope.Visit.assign(N, 0);
    Scope.Changed.assign(N, 0);
    bool Any = false;
    for (size_t I = 0; I != N; ++I) {
      if (M.Functions[I]->Blocks.empty())
        continue;
      if (mustVisit(P, I)) {
        Scope.Visit[I] = 1;
        Any = true;
      } else {
        ++Stats.PassRunsSkipped;
      }
    }
    if (!Any)
      return false;
    Timed(Field, [&] { return PassFn(&Scope); });
    bool Changed = false;
    for (size_t I = 0; I != N; ++I) {
      if (!Scope.Visit[I])
        continue;
      if (Scope.Changed[I]) {
        ChangedAt[I] = LastChange = Base + I;
        Quiet[P][I] = 0;
        Changed = true;
      } else {
        Quiet[P][I] = Base + I;
      }
    }
    Base += N + 1;
    if (Options.DumpAfter)
      Options.DumpAfter(Name);
    return Changed;
  };

  for (unsigned Round = 0; Round != Options.Rounds; ++Round) {
    bool Changed = false;
    if (Options.Devirtualize)
      Changed |= Run(PDevirt, &OptStats::DevirtMs, "devirt",
                     [&](PassScope *S) {
                       return devirtualize(M, Stats, &DomA, S);
                     });
    if (Options.Inline)
      Changed |= Run(PInline, &OptStats::InlineMs, "inline",
                     [&](PassScope *S) {
                       return inlineCalls(M, Options.InlineInstrLimit,
                                          Stats, &DomA, S);
                     });
    if (Options.Ssa)
      Changed |= Run(PSsa, &OptStats::SsaMs, "ssa-out", [&](PassScope *S) {
        // The sandwich's stages handle their own tree invalidation.
        return ssa::runSsaPasses(M, DomA, Stats, Options.DumpAfter, S);
      });
    if (Options.Dce)
      Changed |= Run(PDce, &OptStats::DceMs, "dce", [&](PassScope *S) {
        return eliminateDeadCode(M, Stats, &DomA, S);
      });
    // After SCCP and DCE so alias chains are short, and
    // before dead-field elimination so fields whose last loads were
    // scalarized away can be dropped in the same round.
    if (Options.Escape)
      Changed |= Run(PEscape, &OptStats::EscapeMs, "escape",
                     [&](PassScope *S) {
                       return scalarReplaceAllocations(M, Stats, &DomA, S);
                     });
    if (Options.DeadFields) {
      if (DeadFieldsQuiet && LastChange < DeadFieldsQuiet) {
        Stats.PassRunsSkipped += NumBodies;
      } else {
        uint64_t Tick = Base++;
        if (Timed(&OptStats::DeadFieldsMs,
                  [&] { return eliminateDeadFields(M, Stats); })) {
          // Field indices moved in every function that touches one.
          ChangedAt.assign(M.Functions.size(), Tick);
          LastChange = Tick;
          DeadFieldsQuiet = 0;
          Changed = true;
        } else {
          DeadFieldsQuiet = Tick;
        }
        if (Options.DumpAfter)
          Options.DumpAfter("deadfields");
      }
    }
    // A round that changed no function leaves nothing to visit: every
    // pass's last visit of every function found nothing to do.
    if (!Changed)
      break;
  }
  return Stats;
}
