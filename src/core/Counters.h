//===- core/Counters.h - One table for every counter ------------*- C++ -*-===//
///
/// \file
/// Every counter a stats surface reports is one X-macro row below: type,
/// field, key, unit, and aggregation (Sum, or Or for flags). Each of the
/// five counter structs gets its fields, operator+=, operator-= (per-run
/// JIT deltas) and forEachCounter generated from its rows, and one JSON
/// renderer (countersJson) and one text renderer (countersText) serve
/// every surface (DESIGN.md §18). A key "g.k" renders as member k of a
/// nested JSON object g; rows of one group are adjacent. Adding a
/// counter is one row plus its increment. Rows carry /* */ comments: a
/// // comment would swallow the macro's line splice.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_CORE_COUNTERS_H
#define VIRGIL_CORE_COUNTERS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace virgil {

enum class CounterUnit : uint8_t { Count, Ms, Ns, Bytes, Flag };

/// What a surface knows of one row besides its value.
struct CounterRow {
  const char *Key;
  CounterUnit Unit;
};

// X(Type, Field, Key, Unit, Agg); Agg names the counterAdd/counterSub
// helper below that aggregates the row.

/// Optimizer work, summed over rounds.
#define VIRGIL_OPT_STATS(X)                                                    \
  X(size_t, BranchesFolded, "branches_folded", Count, Sum)                     \
  X(size_t, CopiesPropagated, "copies_propagated", Count, Sum)                 \
  X(size_t, InstrsRemoved, "instrs_removed", Count, Sum)                       \
  X(size_t, BlocksRemoved, "blocks_removed", Count, Sum)                       \
  X(size_t, CallsInlined, "calls_inlined", Count, Sum)                         \
  X(size_t, CallsDevirtualized, "devirtualized", Count, Sum)                   \
  /* Devirtualized because CHA found a single implementer, not an exact */     \
  /* receiver: a subset of CallsDevirtualized. */                              \
  X(size_t, DevirtualizedByCha, "devirtualized_by_cha", Count, Sum)            \
  X(size_t, FieldsRemoved, "fields_removed", Count, Sum)                       \
  /* Escape analysis: allocations deleted, field registers created for */      \
  /* them, closures turned into direct calls. */                               \
  X(size_t, AllocsElided, "allocs_elided", Count, Sum)                         \
  X(size_t, FieldsScalarized, "fields_scalarized", Count, Sum)                 \
  X(size_t, ClosuresFlattened, "closures_flattened", Count, Sum)               \
  /* The SSA sandwich: phis placed, instructions SCCP folded, loads */         \
  /* reused, stores killed and null checks deleted by the memory pass, */      \
  /* and copies phi elimination placed on edges. */                            \
  X(size_t, PhisPlaced, "phis_placed", Count, Sum)                             \
  X(size_t, SccpFolded, "sccp_folded", Count, Sum)                             \
  X(size_t, LoadsEliminated, "loads_eliminated", Count, Sum)                   \
  X(size_t, StoresKilled, "stores_killed", Count, Sum)                         \
  X(size_t, NullChecksRemoved, "null_checks_removed", Count, Sum)              \
  X(size_t, EdgeCopies, "edge_copies", Count, Sum)                             \
  /* (pass, function) visits the per-function schedule skipped; a */           \
  /* skipped dead-field run counts one per function. */                        \
  X(size_t, PassRunsSkipped, "pass_runs_skipped", Count, Sum)                  \
  X(double, DevirtMs, "pass_ms.devirt", Ms, Sum)                               \
  X(double, InlineMs, "pass_ms.inline", Ms, Sum)                               \
  X(double, DceMs, "pass_ms.dce", Ms, Sum)                                     \
  X(double, EscapeMs, "pass_ms.escape", Ms, Sum)                               \
  X(double, DeadFieldsMs, "pass_ms.deadfields", Ms, Sum)                       \
  X(double, SsaMs, "pass_ms.ssa", Ms, Sum)

/// Specialization sharing: zero when the pass did not run.
#define VIRGIL_SHARE_STATS(X)                                                  \
  X(size_t, FunctionsBefore, "functions_before_share", Count, Sum)             \
  X(size_t, FunctionsAfter, "functions_after_share", Count, Sum)               \
  /* Bodies merged away: FunctionsBefore - FunctionsAfter. */                  \
  X(size_t, BodiesShared, "bodies_shared", Count, Sum)                         \
  X(size_t, InstrsBefore, "instrs_before_share", Count, Sum)                   \
  X(size_t, InstrsAfter, "instrs_after_share", Count, Sum)

/// Wall-clock milliseconds of each Compiler::compile phase.
#define VIRGIL_PHASE_TIMINGS(X)                                                \
  X(double, ParseMs, "parse_ms", Ms, Sum)                                      \
  X(double, SemaMs, "sema_ms", Ms, Sum)                                        \
  X(double, LowerMs, "lower_ms", Ms, Sum)                                      \
  X(double, MonoMs, "mono_ms", Ms, Sum)                                        \
  X(double, OptMonoMs, "opt_mono_ms", Ms, Sum)                                 \
  X(double, NormMs, "norm_ms", Ms, Sum)                                        \
  X(double, OptNormMs, "opt_norm_ms", Ms, Sum)                                 \
  X(double, ShareMs, "share_ms", Ms, Sum)                                      \
  X(double, EmitMs, "emit_ms", Ms, Sum)                                        \
  X(double, TotalMs, "total_ms", Ms, Sum)

/// One VM run's execution counters.
#define VIRGIL_VM_COUNTERS(X)                                                  \
  X(uint64_t, Instrs, "instrs", Count, Sum)                                    \
  X(uint64_t, Calls, "calls", Count, Sum)                                      \
  X(uint64_t, IndirectCalls, "indirect_calls", Count, Sum)                     \
  X(uint64_t, VirtualCalls, "virtual_calls", Count, Sum)                       \
  /* Explicit allocations only: C.new(...), Array<T>.new(n), and string */     \
  /* literals. Nothing else allocates (paper §4.3). */                         \
  X(uint64_t, HeapObjects, "heap_objects", Count, Sum)                         \
  X(uint64_t, HeapArrays, "heap_arrays", Count, Sum)                           \
  X(uint64_t, StringAllocs, "string_allocs", Count, Sum)                       \
  /* Inline-cache behaviour at CallV sites. */                                 \
  X(uint64_t, IcHits, "ic_hits", Count, Sum)                                   \
  X(uint64_t, IcMisses, "ic_misses", Count, Sum)                               \
  /* Superinstructions: pairs fused at load time, and fused dispatches */      \
  /* executed (each counts as 2 toward Instrs). */                             \
  X(uint64_t, FusedStatic, "fused_static", Count, Sum)                         \
  X(uint64_t, FusedExecuted, "fused_executed", Count, Sum)

/// JIT tier activity of one VM run (vm/Vm.h).
#define VIRGIL_VM_JIT_STATS(X)                                                 \
  /* The host can run generated code; false means interpreter-only. */         \
  X(bool, Available, "available", Flag, Or)                                    \
  /* The tier was constructed and live for the run. */                         \
  X(bool, Enabled, "enabled", Flag, Or)                                        \
  X(uint64_t, Compiles, "compiles", Count, Sum)                                \
  X(uint64_t, CompileFailures, "compile_failures", Count, Sum)                 \
  X(uint64_t, CompileNs, "compile_ns", Ns, Sum)                                \
  X(uint64_t, CodeBytes, "code_bytes", Bytes, Sum)                             \
  /* Driver transitions into native code; those at a non-zero pc. */           \
  X(uint64_t, Enters, "enters", Count, Sum)                                    \
  X(uint64_t, OsrEntries, "osr_entries", Count, Sum)                           \
  /* GC-invalidation exits to the interpreter. */                              \
  X(uint64_t, Deopts, "deopts", Count, Sum)                                    \
  X(uint64_t, IcPatches, "ic_patches", Count, Sum)                             \
  X(uint64_t, IcMegamorphic, "ic_megamorphic", Count, Sum)

template <class T> void counterAddSum(T &L, T R) { L += R; }
inline void counterAddOr(bool &L, bool R) { L = L || R; }
template <class T> void counterSubSum(T &L, T R) { L -= R; }
/// A flag's delta is the flag.
inline void counterSubOr(bool &, bool) {}

#define VIRGIL_COUNTER_FIELD(T, Field, Key, Unit, Agg) T Field = T();
#define VIRGIL_COUNTER_ADD(T, Field, Key, Unit, Agg)                           \
  counterAdd##Agg(Field, O.Field);
#define VIRGIL_COUNTER_SUB(T, Field, Key, Unit, Agg)                           \
  counterSub##Agg(Field, O.Field);
#define VIRGIL_COUNTER_VISIT(T, Field, Key, Unit, Agg)                         \
  Fn(CounterRow{Key, CounterUnit::Unit}, Field);

/// The members of a counter struct: its rows' fields, the row-wise
/// aggregations, and forEachCounter, which calls
/// Fn(const CounterRow &, value) for each row in order.
#define VIRGIL_COUNTER_MEMBERS(Name, ROWS)                                     \
  ROWS(VIRGIL_COUNTER_FIELD)                                                   \
  Name &operator+=(const Name &O) { ROWS(VIRGIL_COUNTER_ADD) return *this; }   \
  Name &operator-=(const Name &O) { ROWS(VIRGIL_COUNTER_SUB) return *this; }   \
  template <class F> void forEachCounter(F &&Fn) const {                       \
    ROWS(VIRGIL_COUNTER_VISIT)                                                 \
  }

struct OptStats {
  VIRGIL_COUNTER_MEMBERS(OptStats, VIRGIL_OPT_STATS)
};

struct ShareStats {
  VIRGIL_COUNTER_MEMBERS(ShareStats, VIRGIL_SHARE_STATS)

  /// How much smaller sharing made the function table (>= 1.0).
  double shareRatio() const {
    return FunctionsAfter ? (double)FunctionsBefore / FunctionsAfter : 1.0;
  }
};

struct PhaseTimings {
  VIRGIL_COUNTER_MEMBERS(PhaseTimings, VIRGIL_PHASE_TIMINGS)
};

struct VmCounters {
  VIRGIL_COUNTER_MEMBERS(VmCounters, VIRGIL_VM_COUNTERS)
};

struct VmJitStats {
  VIRGIL_COUNTER_MEMBERS(VmJitStats, VIRGIL_VM_JIT_STATS)
};

/// Renders rows one at a time; countersJson and countersText drive it.
class CounterWriter {
public:
  CounterWriter(bool Json, const char *Prefix) : Json(Json), Prefix(Prefix) {}
  void add(const CounterRow &Row, uint64_t V);
  void add(const CounterRow &Row, double V);
  /// The rendered rows; closes an open JSON group.
  std::string finish();

private:
  void key(const CounterRow &Row);

  bool Json;
  const char *Prefix;
  std::string Out;
  std::string Group; ///< The JSON group open for dotted keys, if any.
};

template <class S> std::string renderCounters(const S &Stats, bool Json,
                                              const char *Prefix) {
  CounterWriter W(Json, Prefix);
  Stats.forEachCounter([&W](const CounterRow &Row, auto V) {
    if constexpr (std::is_floating_point_v<decltype(V)>)
      W.add(Row, (double)V);
    else
      W.add(Row, (uint64_t)V);
  });
  return W.finish();
}

/// The rows of \p Stats as JSON object members, without braces:
/// `"<Prefix>key":value,...`, a key "g.k" as `"<Prefix>g":{"k":value}`.
/// Milliseconds print with 3 decimals, flags as true|false.
template <class S>
std::string countersJson(const S &Stats, const char *Prefix = "") {
  return renderCounters(Stats, true, Prefix);
}

/// The rows of \p Stats as text: "key value, key value, ...".
template <class S> std::string countersText(const S &Stats) {
  return renderCounters(Stats, false, "");
}

} // namespace virgil

#endif // VIRGIL_CORE_COUNTERS_H
