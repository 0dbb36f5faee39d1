//===- core/Compiler.cpp --------------------------------------------------===//

#include "core/Compiler.h"

#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"
#include "lower/Lower.h"
#include "parse/Parser.h"
#include "vm/BytecodeEmitter.h"

#include <chrono>
#include <cstdio>

using namespace virgil;

namespace {

/// Stopwatch for per-phase timings: each call to mark() banks the time
/// since the previous mark into one PhaseTimings field.
class PhaseClock {
public:
  explicit PhaseClock(PhaseTimings &T)
      : T(T), Start(Clock::now()), Last(Start) {}

  void mark(double PhaseTimings::*Field) {
    auto Now = Clock::now();
    T.*Field += std::chrono::duration<double, std::milli>(Now - Last).count();
    Last = Now;
  }
  void finish() {
    T.TotalMs =
        std::chrono::duration<double, std::milli>(Clock::now() - Start)
            .count();
  }

private:
  using Clock = std::chrono::steady_clock;
  PhaseTimings &T;
  Clock::time_point Start;
  Clock::time_point Last;
};

} // namespace

Program::Program() = default;
Program::~Program() = default;

InterpResult Program::interpret() {
  Interpreter I(*PolyIr);
  return I.run();
}

InterpResult Program::interpretMono() {
  assert(MonoIr && "pipeline stopped before monomorphization");
  Interpreter I(*MonoIr);
  return I.run();
}

InterpResult Program::interpretNorm() {
  assert(NormIr && "pipeline stopped before normalization");
  Interpreter I(*NormIr);
  return I.run();
}

VmResult Program::runVm(VmOptions Opts) {
  assert(Bytecode && "pipeline stopped before bytecode emission");
  Vm V(*Bytecode, Opts);
  return V.run();
}

std::unique_ptr<Program> Compiler::compile(const std::string &Name,
                                           const std::string &Source,
                                           std::string *ErrorOut) {
  auto P = std::make_unique<Program>();
  P->File = std::make_unique<SourceFile>(Name, Source);
  P->Diags.setFile(P->File.get());
  PhaseClock Timer(P->Stats.Timings);

  auto fail = [&]() -> std::unique_ptr<Program> {
    if (ErrorOut)
      *ErrorOut = P->Diags.render();
    return nullptr;
  };
  auto internalFail = [&](const std::vector<std::string> &Problems,
                          const char *Stage) -> std::unique_ptr<Program> {
    std::string Msg = std::string("internal error after ") + Stage + ":";
    for (const std::string &Pr : Problems)
      Msg += "\n  " + Pr;
    if (ErrorOut)
      *ErrorOut = Msg;
    return nullptr;
  };

  // Parse.
  Parser TheParser(*P->File, P->AstNodes, P->Idents, P->Diags);
  P->Ast = TheParser.parseModule();
  if (P->Diags.hasErrors())
    return fail();
  Timer.mark(&PhaseTimings::ParseMs);

  // Semantic analysis.
  P->TheSema = std::make_unique<Sema>(*P->Ast, P->Types, P->Idents,
                                      P->Diags, P->AstNodes);
  if (!P->TheSema->run())
    return fail();
  Timer.mark(&PhaseTimings::SemaMs);

  // Lower to polymorphic IR.
  P->PolyIr = std::make_unique<IrModule>(P->Types);
  Lowerer Lower(P->TheSema->resolver(), *P->PolyIr);
  if (!Lower.run()) {
    P->Diags.error(SourceLoc::invalid(), "lowering failed");
    return fail();
  }
  if (Options.Verify) {
    auto Problems = verifyModule(*P->PolyIr);
    if (!Problems.empty())
      return internalFail(Problems, "lowering");
  }
  P->Stats.Poly = computeStats(*P->PolyIr);
  Timer.mark(&PhaseTimings::LowerMs);
  if (Options.StopAfterLower) {
    Timer.finish();
    return P;
  }

  // Monomorphize (§4.3).
  Monomorphizer Mono(*P->PolyIr);
  P->MonoIr = Mono.run();
  if (!P->MonoIr) {
    P->Diags.error(SourceLoc::invalid(),
                   "monomorphization exceeded the instantiation cap "
                   "(undetected polymorphic recursion?)");
    return fail();
  }
  P->Stats.Mono = Mono.stats();
  if (Options.Verify) {
    auto Problems = verifyModule(*P->MonoIr);
    if (!Problems.empty())
      return internalFail(Problems, "monomorphization");
  }
  Timer.mark(&PhaseTimings::MonoMs);
  // --dump-ir=<pass>: wrap each optimizer invocation so the hook can
  // print the module it is rewriting (the "ssa"/"sccp"/"loadelim"
  // dumps fire while that module is still in SSA form, phis visible).
  auto OptWithDump = [&](IrModule &M, const char *Phase) {
    OptOptions OO = Options.Opt;
    if (!Options.DumpIrAfter.empty()) {
      OO.DumpAfter = [&M, Phase, this](const char *Name) {
        if (Options.DumpIrAfter != Name)
          return;
        std::printf("// after %s (%s)\n%s", Name, Phase,
                    printModule(M).c_str());
      };
    }
    return optimizeModule(M, OO);
  };
  if (Options.Optimize)
    P->Stats.OptAfterMono = OptWithDump(*P->MonoIr, "opt-mono");
  P->Stats.MonoIr = computeStats(*P->MonoIr);
  Timer.mark(&PhaseTimings::OptMonoMs);

  // Normalize tuples away (§4.2).
  Normalizer Norm(*P->MonoIr);
  P->NormIr = Norm.run();
  P->Stats.Norm = Norm.stats();
  if (Options.Verify) {
    auto Problems = verifyModule(*P->NormIr);
    if (!Problems.empty())
      return internalFail(Problems, "normalization");
  }
  Timer.mark(&PhaseTimings::NormMs);
  if (Options.Optimize)
    P->Stats.OptAfterNorm = OptWithDump(*P->NormIr, "opt-norm");
  Timer.mark(&PhaseTimings::OptNormMs);

  // Share identical specializations (bounds §4.3 code expansion). Runs
  // after every optimizer pass so the optimizer never sees merged
  // bodies; NormIr stats are computed afterwards so E5 expansion
  // numbers reflect what actually reaches the emitter.
  if (Options.ShareSpecializations) {
    P->Stats.Share = shareSpecializations(*P->NormIr);
    if (Options.Verify) {
      auto Problems = verifyModule(*P->NormIr);
      if (!Problems.empty())
        return internalFail(Problems, "specialization sharing");
    }
  }
  P->Stats.NormIr = computeStats(*P->NormIr);
  Timer.mark(&PhaseTimings::ShareMs);

  // Emit bytecode.
  P->Bytecode = emitBytecode(*P->NormIr);
  Timer.mark(&PhaseTimings::EmitMs);
  Timer.finish();
  return P;
}
