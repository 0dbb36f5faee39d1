//===- opt/PassManager.h - Optimization pipeline ----------------*- C++ -*-===//
///
/// \file
/// The classical optimizations the paper's claims rely on (§3.3: after
/// specialization "the type queries and casts in each version can be
/// decided statically, the chain of if statements will be folded away,
/// and only a call to the corresponding version remains, which the
/// compiler may then inline, resulting in code just as efficient as if
/// the caller had called the appropriate print* method directly"):
///
///  * constant, static cast/query, and branch folding plus copy
///    propagation: SCCP inside the SSA mid-tier (src/ssa); with Ssa off
///    nothing folds,
///  * dead code and unreachable block elimination,
///  * class-hierarchy-analysis devirtualization,
///  * function inlining,
///  * escape analysis + scalar replacement of non-escaping objects and
///    closures (post-normalization only; see opt/Escape.h).
///
/// Passes run in rounds until a fixpoint or the round limit. Each
/// round times every pass it runs; the per-pass milliseconds accumulate
/// in OptStats and surface through --stats, batch JSON, and STATS.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_OPT_PASSMANAGER_H
#define VIRGIL_OPT_PASSMANAGER_H

#include "core/FeatureAxis.h"
#include "ir/Ir.h"

#include <functional>

namespace virgil {

namespace ssa {
class DominatorAnalysis;
}

struct OptOptions {
  bool Dce = true;
  bool Inline = true;
  bool Devirtualize = true;
  bool DeadFields = true;
  /// Defaults from the escape row of FeatureAxes (core/FeatureAxis.h).
  bool Escape = axisDefault(Axis::Escape) != 0;
  /// Run optimization rounds through the SSA sandwich: SCCP and
  /// dominance-based load/store elimination over a shared dominator
  /// analysis that Escape and the devirtualizer also consume. Off runs
  /// no folding at all. Defaults from the ssa row of FeatureAxes.
  bool Ssa = axisDefault(Axis::Ssa) != 0;
  unsigned Rounds = 3;
  size_t InlineInstrLimit = 48;
  /// When set, invoked with a pass name (one of OptPassNames) after
  /// that pass runs — for --dump-ir=<pass>. The "ssa"/"sccp"/"loadelim"
  /// dumps fire while the module is still in SSA form (phis visible);
  /// "ssa-out" fires after phi elimination.
  std::function<void(const char *)> DumpAfter;
};

/// Every name OptOptions::DumpAfter reports.
inline constexpr const char *OptPassNames[] = {
    "devirt", "inline", "ssa",    "sccp",      "loadelim",
    "ssa-out", "dce",   "escape", "deadfields"};

struct OptStats {
  size_t BranchesFolded = 0;
  size_t CopiesPropagated = 0;
  size_t InstrsRemoved = 0;
  size_t BlocksRemoved = 0;
  size_t CallsInlined = 0;
  size_t CallsDevirtualized = 0;
  /// Devirtualized because CHA found a single implementer (as opposed
  /// to an exact-receiver proof); subset of CallsDevirtualized.
  size_t DevirtualizedByCha = 0;
  size_t FieldsRemoved = 0;
  /// Escape analysis: heap allocations deleted, field registers
  /// created for them, and closures turned into direct calls.
  size_t AllocsElided = 0;
  size_t FieldsScalarized = 0;
  size_t ClosuresFlattened = 0;
  /// SSA mid-tier: phis placed by construction, instructions folded by
  /// SCCP, loads reused / stores killed / null checks deleted by the
  /// dominance-based memory pass.
  size_t PhisPlaced = 0;
  size_t SccpFolded = 0;
  size_t LoadsEliminated = 0;
  size_t StoresKilled = 0;
  size_t NullChecksRemoved = 0;
  /// Pass invocations skipped because no pass had changed the module
  /// since their last run (the per-pass changed-bit scheduler).
  size_t PassRunsSkipped = 0;
  /// Wall-clock milliseconds per pass, summed over rounds.
  double DevirtMs = 0;
  double InlineMs = 0;
  double DceMs = 0;
  double EscapeMs = 0;
  double DeadFieldsMs = 0;
  double SsaMs = 0;

  OptStats &operator+=(const OptStats &O);
};

/// Individual passes; each returns the number of changes made. The
/// passes taking a DominatorAnalysis use the shared memoized dominator
/// trees when one is supplied (the pass manager threads one through a
/// whole optimizeModule invocation) and compute their own otherwise.
size_t eliminateDeadCode(IrModule &M, OptStats &Stats);
size_t inlineCalls(IrModule &M, size_t InstrLimit, OptStats &Stats);
size_t devirtualize(IrModule &M, OptStats &Stats,
                    ssa::DominatorAnalysis *DomA = nullptr);
size_t eliminateDeadFields(IrModule &M, OptStats &Stats);

/// Runs the configured pipeline.
OptStats optimizeModule(IrModule &M, const OptOptions &Options = {});

} // namespace virgil

#endif // VIRGIL_OPT_PASSMANAGER_H
