//===- tests/EscapeTest.cpp - Escape analysis + scalar replacement --------===//
//
// The escape pass's acceptance tests: non-escaping allocations vanish
// from the VM's allocation counters, escaping ones survive untouched,
// CHA devirtualization keeps the virtual call's null trap, and the
// whole rewrite is invisible to the differential oracle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Generators.h"
#include "fuzz/Oracle.h"

#include <gtest/gtest.h>

namespace {

using namespace virgil;
using virgil::testing::expectTrap;
using virgil::testing::runAllStrategies;

/// Compiles with escape analysis forced on or off (everything else at
/// defaults) and returns the VM run.
VmResult runWithEscape(const std::string &Source, bool Escape,
                       OptStats *OptOut = nullptr) {
  CompilerOptions Options;
  Options.Opt.Escape = Escape;
  Compiler C(Options);
  std::string Error;
  auto P = C.compile("escape-test", Source, &Error);
  EXPECT_NE(P, nullptr) << Error;
  if (!P)
    return VmResult();
  if (OptOut) {
    *OptOut = P->stats().OptAfterMono;
    *OptOut += P->stats().OptAfterNorm;
  }
  return P->runVm();
}

// A loop-local object consumed through a devirtualizable method call:
// the allocation, its field traffic, and the call all fuse away. The
// `keep` list escapes through a global and must stay allocated, which
// also pins the counter baseline.
TEST(EscapeTest, ScalarizesNonEscapingObject) {
  const char *Src = R"(
class P {
  var x: int;
  var y: int;
  new(x, y) { }
  def sum() -> int { return x + y; }
}
var sink: int;
def main() -> int {
  var acc = 0;
  for (i = 0; i < 50; i = i + 1) {
    var p = P.new(i, i * 2);
    acc = acc + p.sum();
  }
  sink = acc;
  return acc % 256;
}
)";
  OptStats On;
  VmResult ROn = runWithEscape(Src, true, &On);
  VmResult ROff = runWithEscape(Src, false);
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  ASSERT_FALSE(ROff.Trapped) << ROff.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ(ROff.Counters.HeapObjects, 50u);
  EXPECT_EQ(ROn.Counters.HeapObjects, 0u);
  EXPECT_GE(On.AllocsElided, 1u);
  EXPECT_GE(On.FieldsScalarized, 2u);
}

// A bound-method closure over a loop-local object: round 1 flattens
// the closure into a direct call, round 2 inlines it, round 3
// scalarizes the object — both the closure's indirect calls and the
// allocation disappear.
TEST(EscapeTest, ScalarizesClosureEnvironment) {
  const char *Src = R"(
class P {
  var x: int;
  var y: int;
  new(x, y) { }
  def sum() -> int { return x + y; }
}
def main() -> int {
  var acc = 0;
  for (i = 0; i < 50; i = i + 1) {
    var p = P.new(i, i + 1);
    var f = p.sum;
    acc = acc + f();
  }
  return acc % 256;
}
)";
  OptStats On;
  VmResult ROn = runWithEscape(Src, true, &On);
  VmResult ROff = runWithEscape(Src, false);
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  ASSERT_FALSE(ROff.Trapped) << ROff.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ(ROn.Counters.HeapObjects, 0u);
  EXPECT_EQ(ROn.Counters.IndirectCalls, 0u);
  EXPECT_GE(On.ClosuresFlattened, 1u);
  EXPECT_GE(On.AllocsElided, 1u);
}

// Negative: an object stored into an escaping container's field flows
// out of the function, so every allocation must survive untouched.
TEST(EscapeTest, FieldStoreEscapeKeepsAllocation) {
  const char *Src = R"(
class Node {
  var value: int;
  var next: Node;
  new(value, next) { }
}
var head: Node;
def main() -> int {
  for (i = 0; i < 20; i = i + 1) {
    var n = Node.new(i, head);
    head = n;
  }
  var s = 0;
  for (n = head; n != null; n = n.next) s = s + n.value;
  return s % 256;
}
)";
  VmResult ROn = runWithEscape(Src, true);
  VmResult ROff = runWithEscape(Src, false);
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ(ROn.Counters.HeapObjects, ROff.Counters.HeapObjects);
  EXPECT_EQ(ROn.Counters.HeapObjects, 20u);
}

// Negative: a receiver of a virtual call with multiple implementers
// cannot be devirtualized from its static type alone; when the object
// reaches such a call through an opaque helper the allocation must
// survive. (The helper takes the *base* type so the exact-receiver
// proof cannot apply either.)
TEST(EscapeTest, VirtualCallEscapeKeepsAllocation) {
  const char *Src = R"(
class A {
  def m() -> int { return 1; }
}
class B extends A {
  def m() -> int { return 2; }
}
var flip: bool;
def consume(a: A) -> int { return a.m(); }
def main() -> int {
  var acc = 0;
  for (i = 0; i < 10; i = i + 1) {
    var b: A = B.new();
    if (flip) b = A.new();
    acc = acc + consume(b);
  }
  return acc % 256;
}
)";
  VmResult ROn = runWithEscape(Src, true);
  VmResult ROff = runWithEscape(Src, false);
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ(ROn.Counters.HeapObjects, ROff.Counters.HeapObjects);
}

// CHA: a slot with exactly one implementation across the hierarchy
// becomes a direct call even for opaque receivers — and the inserted
// null check preserves the virtual call's trap on a null receiver.
TEST(EscapeTest, ChaDevirtualizesSingleImplementer) {
  const char *Src = R"(
class A {
  var k: int;
  new(k) { }
  def m() -> int { return k * 3; }
}
class B extends A {
  new(k) super(k) { }
}
var keep: A;
def pick(i: int) -> A {
  if (i % 2 == 0) return A.new(i);
  return B.new(i);
}
def main() -> int {
  var acc = 0;
  for (i = 0; i < 10; i = i + 1) {
    var a = pick(i);
    keep = a;
    acc = acc + a.m();
  }
  return acc % 256;
}
)";
  OptStats On;
  VmResult ROn = runWithEscape(Src, true, &On);
  VmResult ROff = runWithEscape(Src, false);
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_GE(On.DevirtualizedByCha, 1u);
  EXPECT_EQ(ROn.Counters.VirtualCalls, 0u);

  // The devirtualized call still traps on a null receiver, under every
  // strategy.
  expectTrap(R"(
class A {
  def m() -> int { return 3; }
}
def main() -> int {
  var a: A;
  return a.m();
}
)",
             "null");
}

// The pass must be observationally invisible: the four-strategy oracle
// with the "/escape" legs enabled must classify the churn workload —
// and a register-pressure-heavy corpus program — as agreement.
TEST(EscapeTest, OracleInvisibilityOnChurnWorkload) {
  fuzz::OracleConfig Config;
  Config.Axes = axisBit(Axis::Escape);
  fuzz::DifferentialOracle Oracle(Config);

  fuzz::OracleReport R =
      Oracle.check(corpus::genEscapeChurn(20, 4, 16));
  EXPECT_FALSE(R.diverged()) << R.Detail;

  fuzz::OracleReport R2 = Oracle.check(R"(
class P {
  var x: int;
  var y: int;
  new(x, y) { }
  def sum() -> int { return x + y; }
}
def apply(f: (int, int) -> int, a: int, b: int) -> int { return f(a, b); }
def add(a: int, b: int) -> int { return a + b; }
def main() -> int {
  var acc = 0;
  for (i = 0; i < 30; i = i + 1) {
    var p = P.new(i, acc);
    var g = p.sum;
    acc = (acc + g() + apply(add, i, 2)) % 1000;
  }
  return acc;
}
)");
  EXPECT_FALSE(R2.diverged()) << R2.Detail;
}

} // namespace
