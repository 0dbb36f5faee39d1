//===- tests/OptTest.cpp - Optimizer tests ---------------------------------===//
///
/// The §3.3 pipeline: after monomorphization, statically-decided casts
/// fold, dead branches disappear, small calls inline, and CHA
/// devirtualizes — with behaviour preserved throughout.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ir/IrStats.h"

using namespace virgil;
using namespace virgil::testing;

namespace {

/// Folding is SCCP's job, so the tests that assert it pin the SSA
/// mid-tier on instead of following VIRGIL_OPT_SSA.
CompilerOptions withSsa() {
  CompilerOptions O;
  O.Opt.Ssa = true;
  return O;
}

const char *Print1Program = R"(
var log = 0;
def printInt(a: int) { log = log * 10 + 1; }
def printBool(a: bool) { log = log * 10 + 2; }
def printByte(a: byte) { log = log * 10 + 3; }
def print1<T>(a: T) {
  if (int.?(a)) printInt(int.!(a));
  if (bool.?(a)) printBool(bool.!(a));
  if (byte.?(a)) printByte(byte.!(a));
}
def main() -> int {
  print1(5);
  print1(true);
  print1('x');
  return log;
}
)";

TEST(OptTest, AdhocChainFoldsCompletely) {
  // "The type queries and casts in each version can be decided
  // statically, the chain of if statements will be folded away."
  auto P = compileOk(Print1Program, withSsa());
  EXPECT_EQ(P->stats().MonoIr.NumCasts, 0u)
      << "all queries/casts decided statically after specialization";
  expectResult(Print1Program, 123);
}

TEST(OptTest, AdhocChainKeepsBehaviourWithoutOpt) {
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  RunOutcome O = runAllStrategies(Print1Program, NoOpt);
  EXPECT_EQ(O.Result, 123);
}

TEST(OptTest, ConstantsFold) {
  auto P = compileOk(R"(
def main() -> int { return 6 * 7 + (10 - 10); }
)",
                     withSsa());
  IrStats S = P->stats().MonoIr;
  EXPECT_EQ(S.PerOpcode.count(Opcode::IntMul), 0u);
  expectResult("def main() -> int { return 6 * 7 + (10 - 10); }", 42);
}

TEST(OptTest, BranchOnConstantFolds) {
  auto P = compileOk(R"(
def main() -> int {
  if (true) return 1;
  return 2;
}
)",
                     withSsa());
  IrStats S = P->stats().MonoIr;
  EXPECT_EQ(S.PerOpcode.count(Opcode::CondBr), 0u);
}

TEST(OptTest, SmallCallsInline) {
  auto P = compileOk(R"(
def add(a: int, b: int) -> int { return a + b; }
def main() -> int { return add(20, 22); }
)");
  EXPECT_GT(P->stats().OptAfterMono.CallsInlined, 0u);
  IrStats S = P->stats().MonoIr;
  // main's call to add disappeared (the $init call pattern stays).
  EXPECT_EQ(S.NumCalls, 0u);
}

TEST(OptTest, DevirtualizationOnFinalHierarchy) {
  auto P = compileOk(R"(
class A { def m() -> int { return 42; } }
def main() -> int {
  var a = A.new();
  return a.m();
}
)");
  EXPECT_GT(P->stats().OptAfterMono.CallsDevirtualized, 0u);
  EXPECT_EQ(P->stats().MonoIr.NumVirtualCalls, 0u);
}

TEST(OptTest, NoDevirtualizationWithOverride) {
  CompilerOptions OnlyDevirt;
  OnlyDevirt.Opt.Dce = false;
  OnlyDevirt.Opt.Inline = false;
  auto P = compileOk(R"(
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def pick(z: bool) -> A {
  if (z) return A.new();
  return B.new();
}
def main() -> int {
  return pick(true).m() + pick(false).m();
}
)",
                     OnlyDevirt);
  EXPECT_GT(P->stats().MonoIr.NumVirtualCalls, 0u)
      << "two implementations reachable: must stay virtual";
  expectResult(R"(
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
def pick(z: bool) -> A {
  if (z) return A.new();
  return B.new();
}
def main() -> int {
  return pick(true).m() + pick(false).m();
}
)",
               3);
}

TEST(OptTest, CopyPropAndDceShrinkNormalizedCode) {
  // Normalization introduces moves; the cleanup pass removes them.
  const char *Source = R"(
def pass(t: (int, int, int, int)) -> (int, int, int, int) { return t; }
def main() -> int {
  var t = pass(pass((1, 2, 3, 4)));
  return t.3;
}
)";
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P1 = compileOk(Source, NoOpt);
  auto P2 = compileOk(Source);
  IrStats S1 = computeStats(P1->normIr());
  IrStats S2 = P2->stats().NormIr;
  EXPECT_LT(S2.NumInstrs, S1.NumInstrs)
      << "optimized normalized code must be smaller";
}

TEST(OptTest, UnreachableBlocksRemoved) {
  auto P = compileOk(R"(
def main() -> int {
  if (false) {
    var x = 1;
    while (x > 0) x = x - 1;
    return x;
  }
  return 9;
}
)",
                     withSsa());
  EXPECT_GT(P->stats().OptAfterMono.BlocksRemoved +
                P->stats().OptAfterMono.BranchesFolded,
            0u);
  expectResult(R"(
def main() -> int {
  if (false) { return 1; }
  return 9;
}
)",
               9);
}

TEST(OptTest, OptimizerPreservesTraps) {
  // Folding must not erase a reachable trap.
  expectTrap(R"(
def main() -> int {
  var z = 0;
  return 1 / z;
}
)",
             "division");
}

TEST(OptTest, OptimizerPreservesSideEffectOrder) {
  expectOutput(R"(
def emit(c: byte) -> int { System.putc(c); return 0; }
def main() -> int {
  var a = emit('a') + emit('b') * emit('c');
  return a;
}
)",
               "abc");
}

} // namespace

//===----------------------------------------------------------------------===//
// Dead-field (dead data) elimination (paper §5).
//===----------------------------------------------------------------------===//

namespace {

TEST(OptTest, DeadFieldsRemovedFromLayouts) {
  // SSA load forwarding lets even `used` be removed (the read is
  // satisfied from the constructor store); pin it off so this test
  // exercises dead-field elimination in isolation.
  virgil::CompilerOptions NoSsa;
  NoSsa.Opt.Ssa = false;
  auto P = virgil::testing::compileOk(R"(
class K {
  var used: int;
  var deadA: int;
  var deadB: (int, int);
  new(used, deadA) { deadB = (1, 2); }
}
def main() -> int {
  var k = K.new(40, 99);
  k.deadA = 7;          // Store to a never-read field.
  return k.used + 2;
}
)",
                                     NoSsa);
  EXPECT_GT(P->stats().OptAfterMono.FieldsRemoved, 0u);
  // The surviving layout holds only `used`.
  virgil::IrClass *K = nullptr;
  for (virgil::IrClass *C : P->monoIr().Classes)
    if (C->Name == "K")
      K = C;
  ASSERT_NE(K, nullptr);
  ASSERT_EQ(K->Fields.size(), 1u);
  EXPECT_EQ(K->Fields[0].Name, "used");
  virgil::testing::expectResult(R"(
class K {
  var used: int;
  var deadA: int;
  var deadB: (int, int);
  new(used, deadA) { deadB = (1, 2); }
}
def main() -> int {
  var k = K.new(40, 99);
  k.deadA = 7;
  return k.used + 2;
}
)",
                                42);
}

TEST(OptTest, DeadFieldStoreKeepsNullCheck) {
  // Writing a dead field through null must still trap.
  virgil::testing::expectTrap(R"(
class K { var dead: int; }
def main() -> int {
  var k: K = null;
  k.dead = 5;
  return 0;
}
)",
                              "null");
}

TEST(OptTest, InheritedFieldSharedSlotSurvivesIfAnySubclassReads) {
  virgil::testing::expectResult(R"(
class A { var x: int; new(x) { } }
class B extends A {
  var y: int;
  new(x, y) super(x) { }
  def peek() -> int { return x + y; }   // Reads the inherited slot.
}
def main() -> int {
  var b = B.new(40, 2);
  return b.peek();
}
)",
                                42);
}

} // namespace
