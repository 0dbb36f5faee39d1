//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
///
/// \file
/// Helpers shared by the test suite: one-call compilation, the
/// four-strategy differential runner (poly-interp, mono-interp,
/// norm-interp, VM must agree), and error-expectation utilities.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_TESTS_TESTUTIL_H
#define VIRGIL_TESTS_TESTUTIL_H

#include "core/Compiler.h"
#include "ir/IrBuilder.h"

#include <gtest/gtest.h>

#include <set>

namespace virgil {
namespace testing {

/// Compiles or fails the test with diagnostics.
inline std::unique_ptr<Program> compileOk(const std::string &Source,
                                          CompilerOptions Options = {}) {
  Compiler C(Options);
  std::string Error;
  auto P = C.compile("test", Source, &Error);
  EXPECT_NE(P, nullptr) << Error;
  return P;
}

/// Expects compilation to fail and returns the rendered diagnostics.
inline std::string compileErr(const std::string &Source) {
  Compiler C;
  std::string Error;
  auto P = C.compile("test", Source, &Error);
  EXPECT_EQ(P, nullptr) << "expected a compile error";
  return Error;
}

struct RunOutcome {
  bool Trapped = false;
  std::string TrapMessage;
  int Result = 0;
  bool IsInt = false;
  std::string Output;
};

inline RunOutcome fromInterp(const InterpResult &R) {
  RunOutcome O;
  O.Trapped = R.Trapped;
  O.TrapMessage = R.TrapMessage;
  O.Output = R.Output;
  if (!R.Trapped && R.Result.kind() == Value::Kind::Int) {
    O.IsInt = true;
    O.Result = R.Result.asInt();
  }
  return O;
}

inline RunOutcome fromVm(const VmResult &R) {
  RunOutcome O;
  O.Trapped = R.Trapped;
  O.TrapMessage = R.TrapMessage;
  O.Output = R.Output;
  if (!R.Trapped && R.HasResult) {
    O.IsInt = true;
    O.Result = (int)R.ResultBits;
  }
  return O;
}

/// Runs the program under all four strategies and checks they agree on
/// result, output, and trap-or-not; returns the VM outcome.
inline RunOutcome runAllStrategies(const std::string &Source,
                                   CompilerOptions Options = {}) {
  auto P = compileOk(Source, Options);
  if (!P) {
    RunOutcome Failed;
    Failed.Trapped = true;
    Failed.TrapMessage = "compile error";
    return Failed;
  }
  RunOutcome Poly = fromInterp(P->interpret());
  RunOutcome Mono = fromInterp(P->interpretMono());
  RunOutcome Norm = fromInterp(P->interpretNorm());
  RunOutcome Vm = fromVm(P->runVm());
  EXPECT_EQ(Poly.Trapped, Mono.Trapped) << "poly vs mono trap state";
  EXPECT_EQ(Poly.Trapped, Norm.Trapped) << "poly vs norm trap state";
  EXPECT_EQ(Poly.Trapped, Vm.Trapped)
      << "poly vs vm trap state (vm: " << Vm.TrapMessage
      << ", poly: " << Poly.TrapMessage << ")";
  if (!Poly.Trapped) {
    EXPECT_EQ(Poly.Result, Mono.Result) << "poly vs mono result";
    EXPECT_EQ(Poly.Result, Norm.Result) << "poly vs norm result";
    EXPECT_EQ(Poly.Result, Vm.Result) << "poly vs vm result";
    EXPECT_EQ(Poly.Output, Mono.Output) << "poly vs mono output";
    EXPECT_EQ(Poly.Output, Norm.Output) << "poly vs norm output";
    EXPECT_EQ(Poly.Output, Vm.Output) << "poly vs vm output";
  }
  return Vm;
}

/// Runs under all strategies and checks the int result.
inline void expectResult(const std::string &Source, int Expected) {
  RunOutcome O = runAllStrategies(Source);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_TRUE(O.IsInt) << "main did not return an int";
  EXPECT_EQ(O.Result, Expected);
}

/// Runs under all strategies and checks the captured System output.
inline void expectOutput(const std::string &Source,
                         const std::string &Expected) {
  RunOutcome O = runAllStrategies(Source);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Output, Expected);
}

/// Expects every strategy to trap (with a message containing \p Needle
/// if non-empty).
inline void expectTrap(const std::string &Source,
                       const std::string &Needle = "") {
  RunOutcome O = runAllStrategies(Source);
  EXPECT_TRUE(O.Trapped) << "expected a trap";
  if (!Needle.empty()) {
    EXPECT_NE(O.TrapMessage.find(Needle), std::string::npos)
        << "trap message: " << O.TrapMessage;
  }
}

/// Builds `Name(p: int)` whose body is a chain of \p Links pure
/// definitions nobody reads — c = 1, then each link adds the previous
/// value to itself — before `return p`.
inline IrFunction *buildDeadChain(IrModule &M, TypeStore &Types,
                                  const std::string &Name, size_t Links) {
  IrFunction *F = M.newFunction(Name);
  F->newReg(Types.intTy());
  F->NumParams = 1;
  F->RetTypes.push_back(Types.intTy());
  IrBuilder B(M, F);
  B.setBlock(B.newBlock());
  Reg Prev = B.constInt(1, Types.intTy());
  for (size_t I = 0; I != Links; ++I)
    Prev = B.binop(Opcode::IntAdd, Prev, Prev, Types.intTy());
  B.ret({0});
  return F;
}

/// The repeat-until-quiet sweep the use-count worklist DCEs replaced:
/// recount every use, delete each pure definition none of whose results
/// is read (and, with \p SelfMoves, each `x = move x`), and go again
/// until a sweep deletes nothing. Returns instructions removed.
inline size_t sweepDeadToFixpoint(IrFunction &F, bool SelfMoves) {
  size_t Removed = 0;
  for (;;) {
    std::set<Reg> Used;
    for (IrBlock *B : F.Blocks)
      for (IrInstr *I : B->Instrs)
        Used.insert(I->Args.begin(), I->Args.end());
    size_t Before = Removed;
    for (IrBlock *B : F.Blocks) {
      std::vector<IrInstr *> Kept;
      for (IrInstr *I : B->Instrs) {
        bool Dead = isPure(I->Op) && !I->Dsts.empty();
        for (Reg D : I->Dsts)
          Dead = Dead && !Used.count(D);
        Dead = Dead || (SelfMoves && I->Op == Opcode::Move &&
                        I->Args[0] == I->dst());
        if (Dead)
          ++Removed;
        else
          Kept.push_back(I);
      }
      B->Instrs = std::move(Kept);
    }
    if (Removed == Before)
      return Removed;
  }
}

} // namespace testing
} // namespace virgil

#endif // VIRGIL_TESTS_TESTUTIL_H
