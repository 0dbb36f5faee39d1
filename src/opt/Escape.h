//===- opt/Escape.h - Escape analysis + scalar replacement ------*- C++ -*-===//
///
/// \file
/// Intraprocedural escape analysis over the post-normalization IR, plus
/// the scalar-replacement rewrite it enables:
///
///  * a `NewObject` whose value never leaves the function (no return,
///    global store, store into another object/array, call argument,
///    cast, comparison, or closure capture) is deleted and its fields
///    become plain registers — `field.get`/`field.set` turn into moves,
///    and the allocation plus its fused write barriers never reach
///    `BcPrepare`;
///  * a `MakeClosure` whose value is only ever called (`call.indirect`
///    callee position) is flattened — every call site becomes a direct
///    `call.func` of the (CHA-resolved) target with the bound receiver
///    prepended, and the closure allocation dies.
///
/// The analysis is deliberately conservative: a candidate must have a
/// single definition, every use (transitively through `Move` aliases)
/// must be on the whitelist above, every use must be dominated by the
/// definition, and no alias may survive a re-execution of the
/// allocation (loop back-edges) — see `Escape.cpp` for the exact path
/// condition. Anything else is treated as escaping.
///
/// `ClassHierarchy` is the precomputed class-hierarchy analysis both
/// this pass and the `Devirtualizer` consume: children lists and
/// per-(class, slot) implementer sets replace the per-call-site
/// O(classes) scans, and make single-implementer lookups O(1).
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_OPT_ESCAPE_H
#define VIRGIL_OPT_ESCAPE_H

#include "ir/Ir.h"

#include <map>
#include <vector>

namespace virgil {

struct OptStats;
struct PassScope;

namespace ssa {
class DominatorAnalysis;
}

/// Precomputed class-hierarchy analysis over a (post-mono) module.
class ClassHierarchy {
public:
  explicit ClassHierarchy(const IrModule &M);

  /// The IrClass a class type resolves to, or null.
  IrClass *resolve(Type *T) const;

  /// The unique non-null implementation of vtable slot \p Slot across
  /// the subtree rooted at \p Root, or null when the slot is abstract
  /// everywhere or has more than one distinct implementation.
  IrFunction *singleImpl(IrClass *Root, int Slot) const;

  /// True if \p Sub is \p Super or inherits from it.
  static bool inheritsFrom(const IrClass *Sub, const IrClass *Super);

private:
  std::map<const ClassDef *, IrClass *> ByDef;
  /// Subtree members per class (the class itself included), built once
  /// so singleImpl never rescans the module.
  std::map<const IrClass *, std::vector<IrClass *>> Subtree;
};

/// Scalar-replaces non-escaping `NewObject`/`MakeClosure` allocations.
/// Runs only on monomorphized, normalized, unshared modules (it needs
/// concrete layouts, scalar-only field types, and real — not
/// representative — callee metadata); returns the number of rewrites.
/// When \p DomA is supplied the pass reads the shared memoized
/// dominator trees instead of re-deriving per-function dominance (the
/// rewrites here never change the CFG, so the trees stay valid). With
/// \p Scope it visits and reports functions as ir/PassScope.h says.
size_t scalarReplaceAllocations(IrModule &M, OptStats &Stats,
                                ssa::DominatorAnalysis *DomA = nullptr,
                                PassScope *Scope = nullptr);

} // namespace virgil

#endif // VIRGIL_OPT_ESCAPE_H
