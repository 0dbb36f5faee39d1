//===- core/FeatureAxis.h - One table for every engine switch ---*- C++ -*-===//
///
/// \file
/// Each optional engine feature is one row of FeatureAxes: its name,
/// command-line flag and value grammar, environment variable, default,
/// the plain options field it sets, the key its value enters, the
/// differential-oracle legs it joins, and the tool modes that take its
/// flag. Generated from the table:
///
///   * the process-wide defaults (axisDefault: one environment reader,
///     read once per process);
///   * flag parsing and usage text in virgilc (single, batch, fuzz) and
///     virgild (parseAxisFlag, axisUsage);
///   * the option part of BytecodeCache::keyFor and
///     exec::Executor::poolKeyFor;
///   * the per-axis legs of fuzz::DifferentialOracle::check;
///   * the "<name>_enabled" flags of the stats surfaces (axisFlags).
///
/// A new axis is one row here plus its options field, and one entry in
/// the CI stress matrix.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_CORE_FEATUREAXIS_H
#define VIRGIL_CORE_FEATUREAXIS_H

#include <cstdint>
#include <string>

namespace virgil {

struct CompilerOptions;
struct VmOptions;

/// One per FeatureAxes row, in row order.
enum class Axis : uint8_t {
  Share,
  Escape,
  Ssa,
  Gc,
  NurseryBytes,
  Jit,
  JitThreshold,
  Pool,
};
constexpr unsigned AxisCount = 8;

/// A set of axes (the oracle's selected legs), one bit per Axis.
using AxisSet = uint32_t;
constexpr AxisSet axisBit(Axis A) { return AxisSet(1) << unsigned(A); }

/// How a value is spelled on the command line. The environment takes
/// the same words, plus 1|true and 0|false for on and off.
enum class AxisGrammar : uint8_t {
  OnOff,     ///< on|off -> 1|0
  OnOffAuto, ///< on|off|auto -> VmOptions::JitMode
  GenSemi,   ///< gen|generational -> 1, semi|semispace -> 0
  Number,    ///< a decimal integer in [Min, Max]
};

/// Which key the value enters, which also names the struct holding it.
enum class AxisKey : uint8_t {
  Cache, ///< a CompilerOptions field: BytecodeCache::keyFor
  Pool,  ///< a VmOptions field: exec::Executor::poolKeyFor
  None,  ///< exec::ExecutorConfig::UsePool, the pool switch itself
};

/// The differential-oracle legs that selecting the axis adds.
enum class AxisLeg : uint8_t {
  None,     ///< no legs; the VM legs run with the axis's value
  Compile,  ///< recompile with the axis on (every other leg forces it
            ///< off) and run the norm-interp and VM legs
  CompileNoOpt, ///< as Compile, for the no-opt pipeline too
  Vm,       ///< extra VM legs in every pipeline
};

/// The tool modes that take an axis's flag.
enum AxisMode : uint8_t {
  ModeSingle = 1, ///< virgilc file.v3
  ModeBatch = 2,  ///< virgilc batch
  /// virgilc fuzz: a bare switch that selects the axis's oracle legs,
  /// or, for an axis without legs, a value for the VM strategy.
  ModeFuzz = 4,
  ModeDaemon = 8, ///< virgild
};

struct FeatureAxis {
  Axis Id;
  const char *Name;
  const char *Flag;
  AxisGrammar Grammar;
  uint32_t Min, Max; ///< AxisGrammar::Number only.
  const char *Env;   ///< Null: no environment override.
  uint32_t Default;
  AxisKey Key;
  AxisLeg Leg;
  uint8_t Modes;
};

inline constexpr FeatureAxis FeatureAxes[AxisCount] = {
    // Specialization sharing (DESIGN §13): ShareSpecializations.
    {Axis::Share, "share", "--mono-share", AxisGrammar::OnOff, 0, 1,
     "VIRGIL_MONO_SHARE", 1, AxisKey::Cache, AxisLeg::CompileNoOpt,
     ModeSingle | ModeBatch | ModeFuzz | ModeDaemon},
    // Escape analysis + scalar replacement (§14): Opt.Escape.
    {Axis::Escape, "escape", "--opt-escape", AxisGrammar::OnOff, 0, 1,
     "VIRGIL_OPT_ESCAPE", 1, AxisKey::Cache, AxisLeg::Compile,
     ModeSingle | ModeBatch | ModeFuzz | ModeDaemon},
    // The SSA mid-tier (§16): Opt.Ssa. Off means no folding at all.
    {Axis::Ssa, "ssa", "--opt-ssa", AxisGrammar::OnOff, 0, 1,
     "VIRGIL_OPT_SSA", 1, AxisKey::Cache, AxisLeg::Compile,
     ModeSingle | ModeBatch | ModeFuzz | ModeDaemon},
    // Generational heap vs the semispace baseline (§11): Generational.
    {Axis::Gc, "gc", "--vm-gc", AxisGrammar::GenSemi, 0, 1,
     "VIRGIL_VM_GC", 1, AxisKey::Pool, AxisLeg::None,
     ModeSingle | ModeFuzz | ModeDaemon},
    // Nursery size: NurseryBytes. 64 KiB keeps the zero-filled per-Vm
    // heap at 128 KiB (see heapOptionsFor in vm/Vm.cpp).
    {Axis::NurseryBytes, "nursery-bytes", "--vm-nursery-bytes",
     AxisGrammar::Number, 128, 1u << 30, "VIRGIL_VM_NURSERY_BYTES",
     64 * 1024, AxisKey::Pool, AxisLeg::None,
     ModeSingle | ModeFuzz | ModeDaemon},
    // The baseline JIT tier (§15): Jit, default auto (0).
    {Axis::Jit, "jit", "--vm-jit", AxisGrammar::OnOffAuto, 0, 2,
     "VIRGIL_VM_JIT", 0, AxisKey::Pool, AxisLeg::Vm,
     ModeSingle | ModeFuzz | ModeDaemon},
    // Hotness gate: JitThreshold. 64 tiers a hot loop up within its
    // first few thousand instructions; one-shot code never compiles.
    {Axis::JitThreshold, "jit-threshold", "--jit-threshold",
     AxisGrammar::Number, 0, 0xFFFFFFFEu, "VIRGIL_VM_JIT_THRESHOLD", 64,
     AxisKey::Pool, AxisLeg::None, ModeSingle | ModeDaemon},
    // The warm-VM pool (§12): ExecutorConfig::UsePool.
    {Axis::Pool, "pool", "--vm-pool", AxisGrammar::OnOff, 0, 1, nullptr, 1,
     AxisKey::None, AxisLeg::Vm, ModeFuzz | ModeDaemon},
};

/// The process-wide default of \p A: its environment variable when that
/// holds a legal value, else the table default. The environment is read
/// once per process; an illegal value is reported on stderr, an empty
/// one counts as unset.
uint32_t axisDefault(Axis A);

/// Reads or writes the options field of a Cache-keyed or Pool-keyed axis.
uint32_t axisValue(Axis A, const CompilerOptions &O);
uint32_t axisValue(Axis A, const VmOptions &O);
void setAxisValue(Axis A, CompilerOptions &O, uint32_t V);
void setAxisValue(Axis A, VmOptions &O, uint32_t V);

/// Where one tool mode's axis flags land. A mode leaves null the
/// targets of axes it does not take.
struct AxisTargets {
  CompilerOptions *Compile = nullptr;
  VmOptions *Vm = nullptr;
  bool *Pool = nullptr;
  /// Fuzz mode: the legs its bare switches select.
  AxisSet *Legs = nullptr;
};

/// Parses the axis flag of \p Mode at Argv[I], if it is one. Returns 1
/// when consumed (I then indexes its last argument), 0 when Argv[I] is
/// not an axis flag of \p Mode, and -1 after reporting a missing or
/// illegal value on stderr as "<Tool>: ...".
int parseAxisFlag(AxisMode Mode, const char *Tool, int &I, int Argc,
                  char **Argv, const AxisTargets &T);

/// The usage text of \p Mode's axis flags, e.g.
/// "[--mono-share on|off] [--opt-escape on|off]".
std::string axisUsage(AxisMode Mode);

/// How \p O sets the Cache-keyed axes of \p Axes: as JSON members
/// `"share_enabled":true,"escape_enabled":false`, or as text
/// "share on, escape off". The optimizer's axes read off under --no-opt.
/// Stats surfaces report these flags from configuration, so they read
/// the same whether or not anything has compiled yet.
std::string axisFlags(const CompilerOptions &O, AxisSet Axes, bool Json);

} // namespace virgil

#endif // VIRGIL_CORE_FEATUREAXIS_H
