//===- mono/ShareSpecializations.h - Specialization sharing -----*- C++ -*-===//
///
/// \file
/// Bounds monomorphization code expansion (the paper's stated §4.3
/// tradeoff) by collapsing specializations whose normalized bodies are
/// observationally identical — the Kennedy/Syme-style sharing of
/// reference-typed instantiations, applied after tuple flattening so
/// calling conventions are already concrete.
///
/// The pass partitions functions by a canonical structural key of the
/// post-normalization body: opcode stream, register/return slot kinds
/// (exact, so GC stack maps of merged bodies agree), block structure,
/// field/slot/global/string indices, and every *baked static decision*
/// the bytecode emitter would take — allocation-site class identity
/// (NewObject), array element kinds, cast/query classification
/// (castRel/queryRel plus the nullability and subtype bits the emitter
/// branches on) with target-type identity. Direct call targets are keyed
/// modulo the equivalence being built: the initial partition ignores
/// CallFunc callees, then partition refinement splits classes by callee
/// classes until a fixpoint, so `id<A>` calling `get<A>` merges with
/// `id<B>` calling `get<B>` exactly when the callees merge too.
///
/// Functions whose *identity* is observable are never merged:
///
/// * every MakeClosure callee (closure equality compares function
///   identity; CastFunc/QueryFunc read the callee's source-level
///   function type), and
/// * every vtable entry at a slot some *bound* virtual MakeClosure
///   resolves through (the resolved implementation is stored in the
///   closure value, making its identity observable).
///
/// Unbound-virtual re-dispatch targets stay shareable: CallIndirect
/// looks the implementation up per call and never stores it in a value.
/// Class specializations are never merged at all — class identity is
/// runtime-distinguishable through casts/queries/`classify<T>`, which
/// is exactly why sharing bodies (not types) is sound.
///
/// Each equivalence class keeps its lowest-id member as the
/// representative; vtables, direct calls, main and $init are redirected,
/// the function table is compacted, and ids renumbered. The pass runs
/// last (after opt-norm, before emission), so the optimizer never sees
/// shared bodies and the emitter/VM/interpreter see a smaller but
/// semantically identical module.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_MONO_SHARESPECIALIZATIONS_H
#define VIRGIL_MONO_SHARESPECIALIZATIONS_H

#include "core/Counters.h"
#include "ir/Ir.h"

namespace virgil {

/// Merges observationally identical specializations of the normalized
/// module \p M in place, sets M.Shared, and returns the stats. Requires
/// a monomorphized, normalized module.
ShareStats shareSpecializations(IrModule &M);

} // namespace virgil

#endif // VIRGIL_MONO_SHARESPECIALIZATIONS_H
