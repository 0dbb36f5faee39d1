//===- fuzz/Oracle.h - Four-strategy differential oracle --------*- C++ -*-===//
///
/// \file
/// Runs one program through all four execution strategies (the
/// polymorphic interpreter, the monomorphized interpreter, the
/// normalized interpreter, and the VM) and classifies the combined
/// outcome. The paper's claim that classes, functions, tuples, and
/// type parameters compose without corner cases makes every pipeline
/// stage a potential divergence point; this oracle is the automated
/// check that no stage silently changes semantics.
///
/// Outcome classes:
///   Agree            all strategies produced the same result, output,
///                    and trap state (identical traps count as
///                    agreement — a guarded program traps nowhere, an
///                    unguarded one must trap everywhere the same way)
///   CompileError     the program did not compile (generator bug or
///                    front-end divergence; always reported)
///   ValueDivergence  results or captured output differ
///   DiagDivergence   trap state or trap message differs
///   Timeout          a strategy exhausted its instruction budget
///   Crash            a strategy threw out of the execution engine
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_FUZZ_ORACLE_H
#define VIRGIL_FUZZ_ORACLE_H

#include "core/FeatureAxis.h"
#include "vm/Vm.h"

#include <cstdint>
#include <string>
#include <vector>

namespace virgil {
namespace fuzz {

enum class Outcome : uint8_t {
  Agree,
  CompileError,
  ValueDivergence,
  DiagDivergence,
  Timeout,
  Crash,
};

const char *outcomeName(Outcome Kind);

/// One strategy's observation.
struct StrategyRun {
  std::string Name;
  bool Trapped = false;
  bool TimedOut = false;
  bool Crashed = false;
  std::string TrapMessage;
  bool HasResult = false;
  int64_t Result = 0;
  std::string Output;
  /// VM legs only: executed-instruction count and the pipeline it ran
  /// under ("" optimized, "/no-opt", ...). VM legs of the same
  /// pipeline must agree exactly on Instrs — the JIT's accounting
  /// contract — while different pipelines legitimately differ.
  bool HasInstrs = false;
  uint64_t Instrs = 0;
  std::string Pipeline;

  /// One line, e.g. "vm: result 42" or "poly-interp: trap: ...".
  std::string toString() const;
};

struct OracleReport {
  Outcome Kind = Outcome::Agree;
  /// Human-readable description of what diverged (empty when Agree).
  std::string Detail;
  /// Rendered diagnostics when Kind == CompileError.
  std::string CompileError;
  /// Per-strategy observations; optimized runs first, then (when
  /// selected) each axis pipeline, then "/no-opt" and "/no-opt/share".
  std::vector<StrategyRun> Runs;

  bool diverged() const { return Kind != Outcome::Agree; }
};

struct OracleConfig {
  /// Instruction budget per strategy (0 = unlimited). Exhausting it
  /// classifies the run as Timeout.
  uint64_t MaxInstrs = 50'000'000;
  /// Also compile with the optimizer disabled and require agreement
  /// across the two pipelines.
  bool CompareNoOpt = true;
  /// Engine configuration for the VM strategy (GC mode, nursery size,
  /// dispatch, fusion). MaxInstrs above overrides Vm.MaxInstrs so the
  /// Timeout classification stays uniform across strategies. Lets the
  /// sweep run with e.g. a tiny nursery to stress minor collections
  /// while the interpreters remain the reference.
  VmOptions Vm;
  /// Feature axes whose differential legs run, one bit per Axis (the
  /// FeatureAxes rows with an oracle leg; core/FeatureAxis.h):
  ///
  ///   * a Compile axis (share, escape, ssa) recompiles the program with
  ///     the axis forced ON while every other leg forces it OFF, and runs
  ///     that pipeline's norm-interp and VM legs as "/<name>"; share also
  ///     does so for the no-opt pipeline ("/no-opt/share"). Two or more
  ///     selected Compile axes add one leg with all of them ON together
  ///     ("/share+escape+ssa"). Any divergence breaks that pass's
  ///     observational invisibility. Selecting ssa arms strict-SSA
  ///     verification for the oracle's compiles, so malformed SSA fails
  ///     at the pass boundary rather than as a downstream divergence.
  ///   * jit adds "vm+jit" legs to every pipeline: the same bytecode
  ///     re-run with the baseline JIT forced ON at hotness threshold 0
  ///     (everything compiles before its first instruction) and at a mid
  ///     threshold (functions tier up mid-run, exercising OSR and deopt),
  ///     while the plain vm leg forces the JIT OFF as the interpreter
  ///     reference. The tiers must agree on result, output, trap
  ///     diagnostics, *and* the executed-instruction count. On hosts
  ///     without JIT support the legs run interpreted.
  ///   * pool adds a "vm+pool" leg to every pipeline: the same VM run
  ///     twice through the warm-pool reuse protocol (snapshot, run,
  ///     resetForReuse, run), reporting the *second* run, which must
  ///     match the plain vm leg (src/exec/VmPool.h).
  AxisSet Axes = 0;
};

/// Mid hotness threshold used by the second vm+jit leg: small enough
/// that generated loops cross it, large enough that the interpreter
/// runs a warm-up window first (seeding inline caches and forcing
/// OSR entries at loop back-edges).
constexpr uint32_t kOracleJitMidThreshold = 16;

class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleConfig Config = OracleConfig())
      : Config(Config) {}

  /// Compiles and runs \p Source under every strategy.
  OracleReport check(const std::string &Source) const;

  const OracleConfig &config() const { return Config; }

private:
  OracleConfig Config;
};

} // namespace fuzz
} // namespace virgil

#endif // VIRGIL_FUZZ_ORACLE_H
