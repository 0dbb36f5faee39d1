//===- tests/SsaTest.cpp - SSA mid-tier tests ------------------------------===//
//
// The SSA sandwich's acceptance tests: dominator-tree shape on a
// diamond, pruned-SSA round-trips through diamonds and loops without
// changing behaviour, SCCP decides the paper's §3.3 classify<T> cast
// chain statically, the memory pass forwards loads across dominating
// accesses but never across an intervening call, the whole rewrite is
// invisible to the differential oracle, and ssa-on/ssa-off artifacts
// can never collide in the bytecode cache.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fuzz/Oracle.h"
#include "service/BytecodeCache.h"
#include "ssa/Ssa.h"

#include <gtest/gtest.h>

namespace {

using namespace virgil;
using virgil::testing::compileOk;
using virgil::testing::runAllStrategies;

/// Compiles with the SSA mid-tier forced on or off (everything else at
/// defaults) and returns the program; optionally sums the two opt
/// phases' stats into \p OptOut.
std::unique_ptr<Program> compileWithSsa(const std::string &Source,
                                        bool Ssa,
                                        OptStats *OptOut = nullptr) {
  CompilerOptions Options;
  Options.Opt.Ssa = Ssa;
  auto P = compileOk(Source, Options);
  if (P && OptOut) {
    *OptOut = P->stats().OptAfterMono;
    *OptOut += P->stats().OptAfterNorm;
  }
  return P;
}

IrFunction *findFunc(IrModule &M, const std::string &Name) {
  for (IrFunction *F : M.Functions)
    if (F->Name == Name)
      return F;
  return nullptr;
}

size_t countOpcode(const IrFunction &F, Opcode Op) {
  size_t N = 0;
  for (const IrBlock *B : F.Blocks)
    for (const IrInstr *I : B->Instrs)
      N += I->Op == Op ? 1 : 0;
  return N;
}

// An opaque diamond (the branch condition reaches main as a parameter
// of an outlined function, so nothing folds): both arms assign the
// same variable, which pruned-SSA must merge with a phi at the join.
const char *DiamondSrc = R"(
def pick(c: bool) -> int {
  var r = 0;
  if (c) r = 10;
  else r = 20;
  return r + 1;
}
var seed: int = 3;
def main() -> int {
  return pick(seed > 2) * 100 + pick(seed < 2);
}
)";

TEST(SsaTest, DominatorTreeOnDiamond) {
  // Pin SSA off so the diamond survives to normIr un-rewritten, then
  // compute a tree directly and check the textbook shape: the branch
  // block dominates both arms and the join, neither arm dominates the
  // join, and both arms' dominance frontier is the join.
  auto P = compileWithSsa(DiamondSrc, /*Ssa=*/false);
  ASSERT_NE(P, nullptr);
  IrFunction *F = findFunc(P->normIr(), "pick");
  ASSERT_NE(F, nullptr);

  ssa::DomTree DT;
  DT.compute(*F);
  // Find the first two-successor block (the diamond head) and its join.
  int Head = -1;
  for (size_t I = 0; I != F->Blocks.size() && Head < 0; ++I)
    if (F->Blocks[I]->Succ0 && F->Blocks[I]->Succ1)
      Head = (int)I;
  ASSERT_GE(Head, 0) << "expected a conditional branch in pick()";
  IrBlock *HeadB = F->Blocks[(size_t)Head];
  int Then = DT.indexOf(HeadB->Succ0);
  int Else = DT.indexOf(HeadB->Succ1);
  ASSERT_GE(Then, 0);
  ASSERT_GE(Else, 0);
  EXPECT_TRUE(DT.dominates(Head, Then));
  EXPECT_TRUE(DT.dominates(Head, Else));
  EXPECT_FALSE(DT.dominates(Then, Else));
  EXPECT_FALSE(DT.dominates(Else, Then));
  EXPECT_EQ(DT.idom(Then), Head);
  EXPECT_EQ(DT.idom(Else), Head);
  // Both arms must agree on a single frontier block: the join, which
  // the head dominates but neither arm does.
  ASSERT_EQ(DT.frontier(Then).size(), 1u);
  ASSERT_EQ(DT.frontier(Else).size(), 1u);
  int Join = DT.frontier(Then)[0];
  EXPECT_EQ(DT.frontier(Else)[0], Join);
  EXPECT_TRUE(DT.dominates(Head, Join));
  EXPECT_FALSE(DT.dominates(Then, Join));
}

TEST(SsaTest, DiamondRoundTripPlacesPhisAndPreservesBehaviour) {
  OptStats On, Off;
  auto POn = compileWithSsa(DiamondSrc, /*Ssa=*/true, &On);
  auto POff = compileWithSsa(DiamondSrc, /*Ssa=*/false, &Off);
  ASSERT_NE(POn, nullptr);
  ASSERT_NE(POff, nullptr);
  EXPECT_GT(On.PhisPlaced, 0u) << "the diamond join needs a phi";
  // No phi may survive the sandwich: the interpreters and the emitter
  // never see SSA form.
  for (IrFunction *F : POn->normIr().Functions)
    EXPECT_EQ(countOpcode(*F, Opcode::Phi), 0u) << F->Name;
  VmResult ROn = POn->runVm();
  VmResult ROff = POff->runVm();
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  ASSERT_FALSE(ROff.Trapped) << ROff.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ((int)ROn.ResultBits, 1121); // pick(true)*100 + pick(false)
}

TEST(SsaTest, LoopRoundTripPreservesBehaviour) {
  // Loop-carried accumulators exercise header phis and back-edge
  // copies; the four-strategy runner cross-checks SSA-on output.
  const char *Src = R"(
def main() -> int {
  var sum = 0;
  var i = 0;
  while (i < 10) {
    var j = 0;
    while (j < i) {
      sum = sum + j;
      j = j + 1;
    }
    i = i + 1;
  }
  return sum;
}
)";
  OptStats On;
  CompilerOptions Options;
  Options.Opt.Ssa = true;
  virgil::testing::RunOutcome O = runAllStrategies(Src, Options);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Result, 120);
  auto P = compileWithSsa(Src, /*Ssa=*/true, &On);
  ASSERT_NE(P, nullptr);
  EXPECT_GT(On.PhisPlaced, 0u) << "loop headers need phis";
}

TEST(SsaTest, SccpDecidesClassifyCastChain) {
  // Paper §3.3: after specialization "the type queries and casts in
  // each version can be decided statically, the chain of if statements
  // will be folded away". SCCP does that folding: each
  // classify<T> specialization must lose every cast, query, and
  // conditional branch.
  const char *Src = R"(
def classify<T>(x: T) -> int {
  if (int.?(x)) return int.!(x);
  if (bool.?(x)) { if (bool.!(x)) return 1; else return 0; }
  if (byte.?(x)) return 100;
  return -1;
}
def main() -> int {
  return classify(40) + classify(true) + classify('x') / 100;
}
)";
  OptStats On;
  auto P = compileWithSsa(Src, /*Ssa=*/true, &On);
  ASSERT_NE(P, nullptr);
  EXPECT_GT(On.SccpFolded + On.BranchesFolded, 0u);
  EXPECT_EQ(P->stats().MonoIr.NumCasts, 0u)
      << "all queries/casts decided statically by SCCP";
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ((int)R.ResultBits, 42);
}

TEST(SsaTest, LoadElimAcrossDominatingFieldGet) {
  // Both arms of the diamond re-read fields a dominating block already
  // loaded; the dominance-scoped availability map must satisfy the
  // re-reads (and the diamond keeps straight-line CSE from being the
  // thing that removes them).
  const char *Src = R"(
class P {
  var x: int;
  var y: int;
  new(x, y) { }
}
var g: int = 1;
def main() -> int {
  var p = P.new(g + 20, g + 21);
  var a = p.x + p.y;
  var b = 0;
  if (g > 0) b = p.x;
  else b = p.y;
  return a + b;
}
)";
  OptStats On, Off;
  auto POn = compileWithSsa(Src, /*Ssa=*/true, &On);
  auto POff = compileWithSsa(Src, /*Ssa=*/false, &Off);
  ASSERT_NE(POn, nullptr);
  ASSERT_NE(POff, nullptr);
  EXPECT_GT(On.LoadsEliminated, 0u);
  VmResult ROn = POn->runVm();
  VmResult ROff = POff->runVm();
  ASSERT_FALSE(ROn.Trapped) << ROn.TrapMessage;
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ((int)ROn.ResultBits, 64); // 21 + 22 + 21
}

TEST(SsaTest, StoreSurvivesWhenCallIntervenes) {
  // Negative test for dead-store kill: the first store to sink.x is
  // NOT dead — observe() reads it through the global before the second
  // store. An intervening call must clobber the pending-store map.
  const char *Src = R"(
class Box {
  var x: int;
  new(x) { }
}
var sink: Box;
var seen: int = 0;
def observe() { seen = seen * 100 + sink.x; }
def main() -> int {
  sink = Box.new(0);
  sink.x = 7;
  observe();
  sink.x = 9;
  observe();
  return seen;
}
)";
  OptStats On;
  CompilerOptions Options;
  Options.Opt.Ssa = true;
  virgil::testing::RunOutcome O = runAllStrategies(Src, Options);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Result, 709);
  auto P = compileWithSsa(Src, /*Ssa=*/true, &On);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(On.StoresKilled, 0u)
      << "a store observed through a call must not be killed";
}

TEST(SsaTest, DeadStoreInSameBlockIsKilled) {
  // Positive counterpart: back-to-back stores with no intervening
  // read, call, or branch — the first is provably dead.
  const char *Src = R"(
class Box {
  var x: int;
  new(x) { }
}
var keep: Box;
def main() -> int {
  var b = Box.new(0);
  keep = b;
  b.x = 7;
  b.x = 9;
  return keep.x;
}
)";
  OptStats On;
  CompilerOptions Options;
  Options.Opt.Ssa = true;
  virgil::testing::RunOutcome O = runAllStrategies(Src, Options);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Result, 9);
  auto P = compileWithSsa(Src, /*Ssa=*/true, &On);
  ASSERT_NE(P, nullptr);
  EXPECT_GT(On.StoresKilled, 0u);
}

TEST(SsaTest, OracleInvisibility) {
  // The sandwich must be observationally invisible: the differential
  // oracle recompiles with SSA forced on (baseline legs force it off,
  // strict-SSA verification armed) and every leg must agree. The
  // workload mixes the shapes the pass rewrites: closures over a
  // diamond (the miscompile shape the visit-order proof guards),
  // loop-carried field traffic, and virtual dispatch.
  fuzz::OracleConfig Config;
  Config.Axes = axisBit(Axis::Ssa);
  fuzz::DifferentialOracle Oracle(Config);

  fuzz::OracleReport R = Oracle.check(R"(
class Buf {
  var data: Array<byte>;
  var len: int;
  new() { data = Array<byte>.new(64); }
  def putc(c: byte) { data[len] = c; len = len + 1; }
  def puti(v: int) {
    if (v == 0) { putc('0'); return; }
    var digits = 0;
    var t = v;
    while (t > 0) { digits = digits + 1; t = t / 10; }
    var i = digits - 1;
    var w = v;
    while (i >= 0) {
      var p = 1;
      var k = 0;
      while (k < i) { p = p * 10; k = k + 1; }
      putc(byte.!((w / p) % 10 + 48));
      i = i - 1;
      w = w % p;
    }
  }
}
class Point {
  var x: int;
  var y: int;
  new(x, y) { }
  def render(b: Buf) { b.putc('('); b.puti(x); b.putc(','); b.puti(y); b.putc(')'); }
}
def emit(f: Buf -> void, b: Buf) { f(b); }
def main() -> int {
  var b = Buf.new();
  var p = Point.new(3, 41);
  emit(p.render, b);
  var sum = 0;
  for (i = 0; i < b.len; i = i + 1) sum = sum + int.!(b.data[i]);
  return sum % 251;
}
)");
  EXPECT_FALSE(R.diverged()) << R.Detail;
}

TEST(SsaTest, CacheKeyDistinguishesSsa) {
  // The ssa axis enters the cache key: ssa-on and ssa-off artifacts
  // must never collide in the bytecode cache (or the warm-VM pool,
  // whose key embeds this one).
  const std::string Src = "def main() -> int { return 1; }\n";
  CompilerOptions A, B;
  A.Opt.Ssa = true;
  B.Opt.Ssa = false;
  EXPECT_NE(BytecodeCache::keyFor(Src, A, 1),
            BytecodeCache::keyFor(Src, B, 1));
  CompilerOptions A2 = A;
  EXPECT_EQ(BytecodeCache::keyFor(Src, A, 1),
            BytecodeCache::keyFor(Src, A2, 1));
}

TEST(SsaTest, PassSkipSchedulerReportsSkips) {
  // The changed-bit scheduler: once the module quiesces, later rounds
  // skip passes whose inputs did not change, and the skips surface in
  // OptStats. (A straight-line body quiesces after one round; loopy
  // functions keep regenerating edge copies for destruction, so they
  // legitimately re-run the sandwich each round.)
  const char *Src = R"(
class P {
  var x: int;
  new(x) { }
}
def main() -> int {
  var p = P.new(5);
  return p.x;
}
)";
  OptStats On;
  auto P = compileWithSsa(Src, /*Ssa=*/true, &On);
  ASSERT_NE(P, nullptr);
  EXPECT_GT(On.PassRunsSkipped, 0u);
}

} // namespace
