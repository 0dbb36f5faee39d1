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
#include "ir/IrPrinter.h"
#include "service/BytecodeCache.h"
#include "ssa/Ssa.h"

#include <gtest/gtest.h>

namespace {

using namespace virgil;
using virgil::testing::buildDeadChain;
using virgil::testing::compileOk;
using virgil::testing::runAllStrategies;
using virgil::testing::sweepDeadToFixpoint;

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

TEST(SsaTest, SccpFoldsCastsThatCannotFail) {
  // byte -> int always succeeds, and int -> byte does for a constant in
  // [0, 255]: once inlining makes the operand constant, SCCP folds the
  // cast into a constant of the destination type.
  const char *Widen = R"(
def f(b: byte) -> int { return int.!(b); }
def main() -> int { return f('a'); }
)";
  const char *Narrow = R"(
def g(i: int) -> byte { return byte.!(i); }
def main() -> int { return int.!(g(200)); }
)";
  for (auto [Src, Want] : {std::pair{Widen, 97}, std::pair{Narrow, 200}}) {
    auto P = compileWithSsa(Src, /*Ssa=*/true);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(countOpcode(*findFunc(P->normIr(), "main"), Opcode::TypeCast),
              0u)
        << Src;
    virgil::testing::RunOutcome O = runAllStrategies(Src);
    EXPECT_FALSE(O.Trapped) << O.TrapMessage;
    EXPECT_EQ(O.Result, Want) << Src;
  }
}

TEST(SsaTest, SccpKeepsOutOfRangeByteCast) {
  // int -> byte of a constant outside [0, 255] must still trap, in
  // every strategy.
  for (int V : {300, -1}) {
    std::string Src = "def g(i: int) -> byte { return byte.!(i); }\n"
                      "def main() -> int { return int.!(g(" +
                      std::to_string(V) + ")); }\n";
    auto P = compileWithSsa(Src, /*Ssa=*/true);
    ASSERT_NE(P, nullptr);
    EXPECT_GT(countOpcode(*findFunc(P->normIr(), "main"), Opcode::TypeCast),
              0u);
    virgil::testing::expectTrap(Src);
  }
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
  // The per-function schedule: a pass skips a function whose input has
  // not changed since its last visit there found nothing to do, and
  // the skipped (pass, function) visits surface in OptStats. (A
  // straight-line body quiesces after one round; loopy functions keep
  // regenerating edge copies for destruction, so they legitimately
  // re-run the sandwich each round.)
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

//===----------------------------------------------------------------------===//
// SSA-DCE's use-count worklist
//===----------------------------------------------------------------------===//

TEST(SsaTest, SsaDceRemovesDeadChainInOneCall) {
  TypeStore Types;
  IrModule M(Types), Ref(Types);
  IrFunction *F = buildDeadChain(M, Types, "chain", 64);
  IrFunction *R = buildDeadChain(Ref, Types, "chain", 64);
  size_t Expected = sweepDeadToFixpoint(*R, /*SelfMoves=*/false);
  EXPECT_EQ(Expected, 65u) << "the constant and 64 links";
  ssa::SsaInfo Info;
  EXPECT_EQ(ssa::runSsaDce(*F, Info), Expected);
  EXPECT_EQ(printFunction(*F), printFunction(*R));
}

/// `Name(c: bool) -> int`: a loop whose phi and increment only feed
/// each other — dead, but each keeps the other's use count above zero.
IrFunction *buildDeadPhiCycle(IrModule &M, TypeStore &Types) {
  IrFunction *F = M.newFunction("cycle");
  F->newReg(Types.boolTy());
  F->NumParams = 1;
  F->RetTypes.push_back(Types.intTy());
  IrBuilder B(M, F);
  IrBlock *Entry = B.newBlock(), *Head = B.newBlock(), *Body = B.newBlock(),
          *Exit = B.newBlock();
  B.setBlock(Entry);
  Reg Zero = B.constInt(0, Types.intTy());
  B.br(Head);
  B.setBlock(Head);
  Reg Acc = F->newReg(Types.intTy()), Next = F->newReg(Types.intTy());
  B.emit(Opcode::Phi, {Acc}, {Zero, Next}, Types.intTy());
  B.condBr(0, Body, Exit);
  B.setBlock(Body);
  B.emit(Opcode::IntAdd, {Next}, {Acc, Zero}, Types.intTy());
  B.br(Head);
  B.setBlock(Exit);
  B.ret({Zero});
  return F;
}

TEST(SsaTest, SsaDceKeepsDeadPhiCycle) {
  // Use counts cannot see that a cycle is dead as a whole; the sweep
  // has always left such cycles alone, and so does the worklist.
  TypeStore Types;
  IrModule M(Types);
  IrFunction *F = buildDeadPhiCycle(M, Types);
  ssa::SsaInfo Info;
  EXPECT_EQ(ssa::runSsaDce(*F, Info), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Phi), 1u);
  EXPECT_EQ(countOpcode(*F, Opcode::IntAdd), 1u);
}

TEST(SsaTest, SsaDceKeepsImpureDefinitionsWithUnusedResults) {
  TypeStore Types;
  IrModule M(Types);
  IrFunction *F = buildDeadChain(M, Types, "impure", 3);
  IrBuilder B(M, F);
  B.setBlock(F->Blocks[0]);
  // Divide by the last link just before the return: a division can
  // trap, so it and the chain feeding it stay.
  IrInstr *Ret = F->Blocks[0]->Instrs.back();
  F->Blocks[0]->Instrs.pop_back();
  Reg Last = F->Blocks[0]->Instrs.back()->dst();
  B.binop(Opcode::IntDiv, 0, Last, Types.intTy());
  F->Blocks[0]->Instrs.push_back(Ret);
  ssa::SsaInfo Info;
  EXPECT_EQ(ssa::runSsaDce(*F, Info), 0u);
  EXPECT_EQ(F->Blocks[0]->Instrs.size(), 6u);
}

//===----------------------------------------------------------------------===//
// Dominator-tree cache
//===----------------------------------------------------------------------===//

TEST(SsaTest, StaleDominatorTreeAbortsUnderVerification) {
  // With strict-SSA verification on, a cached tree is recomputed on
  // every hit: a pass that reshapes a CFG without invalidating its
  // tree aborts, naming the function, instead of handing stale
  // dominance to the next consumer.
  TypeStore Types;
  IrModule M(Types);
  IrFunction *F = buildDeadPhiCycle(M, Types);
  ssa::DominatorAnalysis DA;
  IrBlock *Exit = F->Blocks[3];
  EXPECT_EQ(DA.get(F).idom(3), 1);
  // Send the entry straight to the exit: the loop becomes unreachable
  // and the exit's idom becomes the entry.
  F->Blocks[0]->Succ0 = Exit;
  EXPECT_DEATH(
      {
        ssa::setSsaVerifyEnabled(true);
        DA.get(F);
      },
      "stale dominator tree for 'cycle'");
  bool Was = ssa::ssaVerifyEnabled();
  ssa::setSsaVerifyEnabled(true);
  DA.invalidate(F);
  EXPECT_EQ(DA.get(F).idom(3), 0);
  EXPECT_EQ(DA.get(F).idom(3), 0) << "a valid cached tree passes the check";
  ssa::setSsaVerifyEnabled(Was);
}

} // namespace
