//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "core/Compiler.h"
#include "ssa/Ssa.h"

#include <sstream>

using namespace virgil;
using namespace virgil::fuzz;

const char *fuzz::outcomeName(Outcome Kind) {
  switch (Kind) {
  case Outcome::Agree:
    return "agree";
  case Outcome::CompileError:
    return "compile-error";
  case Outcome::ValueDivergence:
    return "value-divergence";
  case Outcome::DiagDivergence:
    return "diag-divergence";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::Crash:
    return "crash";
  }
  return "?";
}

std::string StrategyRun::toString() const {
  std::ostringstream OS;
  OS << Name << ": ";
  if (Crashed)
    OS << "crash: " << TrapMessage;
  else if (TimedOut)
    OS << "timeout";
  else if (Trapped)
    OS << "trap: " << TrapMessage;
  else if (HasResult)
    OS << "result " << Result;
  else
    OS << "void";
  if (!Output.empty())
    OS << " (output " << Output.size() << " bytes)";
  return OS.str();
}

namespace {

/// The fuel trap message shared by the interpreter and the VM.
const char *const BudgetMsg = "instruction budget exceeded";

StrategyRun fromInterp(const char *Name, const InterpResult &R) {
  StrategyRun S;
  S.Name = Name;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Output = R.Output;
  if (R.Trapped && R.TrapMessage.find(BudgetMsg) != std::string::npos) {
    S.TimedOut = true;
    S.Trapped = false;
  }
  if (!R.Trapped && R.Result.kind() == Value::Kind::Int) {
    S.HasResult = true;
    S.Result = R.Result.asInt();
  }
  return S;
}

StrategyRun fromVm(const char *Name, const VmResult &R) {
  StrategyRun S;
  S.Name = Name;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Output = R.Output;
  S.HasInstrs = true;
  S.Instrs = R.Counters.Instrs;
  if (R.Trapped && R.TrapMessage.find(BudgetMsg) != std::string::npos) {
    S.TimedOut = true;
    S.Trapped = false;
  }
  if (!R.Trapped && R.HasResult) {
    S.HasResult = true;
    S.Result = (int64_t)(int32_t)R.ResultBits;
  }
  return S;
}

StrategyRun crashed(const char *Name, const std::string &What) {
  StrategyRun S;
  S.Name = Name;
  S.Crashed = true;
  S.TrapMessage = What;
  return S;
}

/// Runs the strategies of one compiled program, appending to \p Runs.
/// \p Suffix distinguishes the no-opt and axis pipelines. With
/// \p NormAndVmOnly only the stages an axis pass can affect run (the
/// axis passes rewrite only post-mono IR, so re-running the poly and
/// mono legs would test nothing). \p Axes selects the jit and pool VM
/// legs.
void runStrategies(Program &P, uint64_t MaxInstrs,
                   const VmOptions &VmOpts, AxisSet Axes,
                   const std::string &Suffix,
                   std::vector<StrategyRun> &Runs,
                   bool NormAndVmOnly = false) {
  const bool VmJit = Axes & axisBit(Axis::Jit);
  auto interpOn = [&](IrModule &M, const std::string &Name) {
    try {
      Interpreter I(M);
      if (MaxInstrs)
        I.setMaxInstrs(MaxInstrs);
      Runs.push_back(fromInterp(Name.c_str(), I.run()));
    } catch (const std::exception &E) {
      Runs.push_back(crashed(Name.c_str(), E.what()));
    } catch (...) {
      Runs.push_back(crashed(Name.c_str(), "unknown exception"));
    }
  };
  if (!NormAndVmOnly) {
    interpOn(P.polyIr(), "poly-interp" + Suffix);
    interpOn(P.monoIr(), "mono-interp" + Suffix);
  }
  interpOn(P.normIr(), "norm-interp" + Suffix);
  auto vmOn = [&](const char *Leg, const VmOptions &Opts) {
    std::string Name = Leg + Suffix;
    try {
      Vm V(P.bytecode(), Opts);
      if (MaxInstrs)
        V.setMaxInstrs(MaxInstrs);
      Runs.push_back(fromVm(Name.c_str(), V.run()));
    } catch (const std::exception &E) {
      Runs.push_back(crashed(Name.c_str(), E.what()));
    } catch (...) {
      Runs.push_back(crashed(Name.c_str(), "unknown exception"));
    }
    Runs.back().Pipeline = Suffix;
  };
  // With the vm+jit strategy the plain leg pins the JIT off so it is
  // a true interpreter reference; otherwise it follows VmOpts (which
  // defaults to the process environment).
  VmOptions PlainOpts = VmOpts;
  if (VmJit)
    PlainOpts.Jit = VmOptions::JitMode::Off;
  vmOn("vm", PlainOpts);
  if (VmJit) {
    VmOptions JitOpts = VmOpts;
    JitOpts.Jit = VmOptions::JitMode::On;
    JitOpts.JitThreshold = 0;
    vmOn("vm+jit", JitOpts);
    JitOpts.JitThreshold = kOracleJitMidThreshold;
    vmOn("vm+jit-warm", JitOpts);
  }
  if (!(Axes & axisBit(Axis::Pool)))
    return;
  // The warm-pool reuse protocol: run once to dirty every piece of
  // state a request can touch, reset, run again, and report the
  // second run. It must be indistinguishable from the plain vm leg.
  std::string PoolName = "vm+pool" + Suffix;
  try {
    Vm V(P.bytecode(), PlainOpts);
    if (MaxInstrs)
      V.setMaxInstrs(MaxInstrs);
    V.snapshotForReuse();
    (void)V.run();
    V.resetForReuse();
    if (MaxInstrs)
      V.setMaxInstrs(MaxInstrs); // resetForReuse re-arms from VmOptions
    Runs.push_back(fromVm(PoolName.c_str(), V.run()));
  } catch (const std::exception &E) {
    Runs.push_back(crashed(PoolName.c_str(), E.what()));
  } catch (...) {
    Runs.push_back(crashed(PoolName.c_str(), "unknown exception"));
  }
  Runs.back().Pipeline = Suffix;
}

} // namespace

OracleReport DifferentialOracle::check(const std::string &Source) const {
  OracleReport Report;
  // The selected axes that recompile the program. Each is forced ON in
  // the legs of \p On below and OFF everywhere else (instead of
  // following the process default), so each axis leg is a true
  // on-vs-off differential.
  AxisSet CompileAxes = 0;
  for (const FeatureAxis &A : FeatureAxes)
    if (A.Leg == AxisLeg::Compile || A.Leg == AxisLeg::CompileNoOpt)
      CompileAxes |= Config.Axes & axisBit(A.Id);

  auto compileOne = [&](bool Optimize,
                        AxisSet On) -> std::unique_ptr<Program> {
    CompilerOptions Options;
    Options.Optimize = Optimize;
    for (const FeatureAxis &A : FeatureAxes)
      if (CompileAxes & axisBit(A.Id))
        setAxisValue(A.Id, Options, (On & axisBit(A.Id)) != 0);
    // Selecting ssa arms strict-SSA verification: a malformed phi or a
    // dominance violation fails loudly at the pass boundary, not later
    // as an unexplained value divergence.
    bool PrevVerify = ssa::ssaVerifyEnabled();
    if (Config.Axes & axisBit(Axis::Ssa))
      ssa::setSsaVerifyEnabled(true);
    Compiler C(Options);
    std::string Error;
    auto P = C.compile("fuzz", Source, &Error);
    ssa::setSsaVerifyEnabled(PrevVerify);
    if (!P && Report.CompileError.empty())
      Report.CompileError = Error;
    return P;
  };
  // Compiles and runs one axis pipeline; false (with the report filled
  // in) when it does not compile although the baseline did.
  auto runAxisLeg = [&](bool Optimize, AxisSet On,
                        const std::string &Suffix) {
    auto PLeg = compileOne(Optimize, On);
    if (!PLeg) {
      Report.Kind = Outcome::CompileError;
      Report.Detail = "compiles, but its " + Suffix + " pipeline does not";
      return false;
    }
    runStrategies(*PLeg, Config.MaxInstrs, Config.Vm, Config.Axes, Suffix,
                  Report.Runs, /*NormAndVmOnly=*/true);
    return true;
  };

  auto P = compileOne(/*Optimize=*/true, 0);
  if (!P) {
    Report.Kind = Outcome::CompileError;
    Report.Detail = "program failed to compile";
    return Report;
  }
  runStrategies(*P, Config.MaxInstrs, Config.Vm, Config.Axes, "",
                Report.Runs);
  // One leg per compile axis, then, with two or more, one with all of
  // them on ("/share+escape+ssa").
  std::string AllSuffix;
  for (const FeatureAxis &A : FeatureAxes) {
    if (!(CompileAxes & axisBit(A.Id)))
      continue;
    if (!runAxisLeg(/*Optimize=*/true, axisBit(A.Id),
                    std::string("/") + A.Name))
      return Report;
    AllSuffix += AllSuffix.empty() ? "/" : "+";
    AllSuffix += A.Name;
  }
  if ((CompileAxes & (CompileAxes - 1)) &&
      !runAxisLeg(/*Optimize=*/true, CompileAxes, AllSuffix))
    return Report;

  if (Config.CompareNoOpt) {
    auto PNoOpt = compileOne(/*Optimize=*/false, 0);
    if (!PNoOpt) {
      // Compiling the same source must not depend on the optimizer.
      Report.Kind = Outcome::CompileError;
      Report.Detail = "compiles optimized but not unoptimized";
      return Report;
    }
    runStrategies(*PNoOpt, Config.MaxInstrs, Config.Vm, Config.Axes,
                  "/no-opt", Report.Runs);
    for (const FeatureAxis &A : FeatureAxes)
      if ((CompileAxes & axisBit(A.Id)) && A.Leg == AxisLeg::CompileNoOpt &&
          !runAxisLeg(/*Optimize=*/false, axisBit(A.Id),
                      std::string("/no-opt/") + A.Name))
        return Report;
  }

  // Classify: crash > timeout > diag-divergence > value-divergence.
  const StrategyRun &Ref = Report.Runs[0];
  for (const StrategyRun &S : Report.Runs) {
    if (S.Crashed) {
      Report.Kind = Outcome::Crash;
      Report.Detail = S.toString();
      return Report;
    }
  }
  for (const StrategyRun &S : Report.Runs) {
    if (S.TimedOut) {
      Report.Kind = Outcome::Timeout;
      Report.Detail = S.toString();
      return Report;
    }
  }
  // Trap agreement compares the TrapKind prefix ("null deref",
  // "bounds", ...) rather than the full message: engines may attach
  // different detail text to the same trap, and that is not a
  // semantic divergence.
  auto trapKindOf = [](const StrategyRun &S) {
    return S.TrapMessage.substr(0, S.TrapMessage.find(':'));
  };
  for (const StrategyRun &S : Report.Runs) {
    if (S.Trapped != Ref.Trapped ||
        (S.Trapped && trapKindOf(S) != trapKindOf(Ref))) {
      Report.Kind = Outcome::DiagDivergence;
      Report.Detail = Ref.toString() + " vs " + S.toString();
      return Report;
    }
  }
  if (!Ref.Trapped) {
    for (const StrategyRun &S : Report.Runs) {
      if (S.HasResult != Ref.HasResult || S.Result != Ref.Result ||
          S.Output != Ref.Output) {
        Report.Kind = Outcome::ValueDivergence;
        Report.Detail = Ref.toString() + " vs " + S.toString();
        return Report;
      }
    }
  }
  // VM legs of the same pipeline must agree on the exact executed
  // instruction count: the JIT's accounting contract (fused ops count
  // as two, fuel burns at the same program points) and the pool's
  // invisibility contract both promise it. Different pipelines
  // legitimately execute different instruction streams.
  for (size_t I = 0; I != Report.Runs.size(); ++I) {
    const StrategyRun &A = Report.Runs[I];
    if (!A.HasInstrs)
      continue;
    for (size_t J = I + 1; J != Report.Runs.size(); ++J) {
      const StrategyRun &B = Report.Runs[J];
      if (!B.HasInstrs || B.Pipeline != A.Pipeline)
        continue;
      if (A.Instrs != B.Instrs) {
        Report.Kind = Outcome::ValueDivergence;
        Report.Detail = A.Name + ": " + std::to_string(A.Instrs) +
                        " instrs vs " + B.Name + ": " +
                        std::to_string(B.Instrs) + " instrs";
        return Report;
      }
    }
  }
  return Report;
}
