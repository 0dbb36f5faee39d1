//===- tests/MonoTest.cpp - Monomorphization tests (§4.3) ------------------===//

#include "TestUtil.h"
#include "ir/IrVerifier.h"

using namespace virgil;
using namespace virgil::testing;

namespace {

IrFunction *findFunc(IrModule &M, const std::string &Name) {
  for (IrFunction *F : M.Functions)
    if (F->Name == Name)
      return F;
  return nullptr;
}

IrClass *findClass(IrModule &M, const std::string &Name) {
  for (IrClass *C : M.Classes)
    if (C->Name == Name)
      return C;
  return nullptr;
}

TEST(MonoTest, NoTypeParamsRemain) {
  auto P = compileOk(R"(
def id<T>(x: T) -> T { return x; }
def main() -> int { return id(1) + id((2, 3)).0; }
)");
  IrModule &M = P->monoIr();
  EXPECT_TRUE(M.Monomorphized);
  EXPECT_TRUE(verifyModule(M).empty());
  for (IrFunction *F : M.Functions) {
    EXPECT_TRUE(F->TypeParams.empty()) << F->Name;
    for (Type *T : F->RegTypes)
      EXPECT_FALSE(T->isPoly()) << F->Name;
  }
}

TEST(MonoTest, DistinctInstantiationsDistinctFunctions) {
  // §4.3: id<int> has a distinct representation from id<byte>.
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(R"(
def id<T>(x: T) -> T { return x; }
def main() -> int { return id(1) + int.!(id('x')); }
)",
                     NoOpt);
  IrModule &M = P->monoIr();
  EXPECT_NE(findFunc(M, "id<int>"), nullptr);
  EXPECT_NE(findFunc(M, "id<byte>"), nullptr);
}

TEST(MonoTest, SharedInstantiationsShareCode) {
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(R"(
def id<T>(x: T) -> T { return x; }
def main() -> int { return id(1) + id(2) + id(3); }
)",
                     NoOpt);
  const MonoStats &S = P->stats().Mono;
  auto It = S.SpecsPerFunction.find("id");
  ASSERT_NE(It, S.SpecsPerFunction.end());
  EXPECT_EQ(It->second, 1u) << "one specialization for three uses";
}

TEST(MonoTest, ClassesSpecializedWithDistinctLayouts) {
  // §4.3: List<(int, int)> has a different representation than
  // List<byte>.
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(R"(
class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }
def main() -> int {
  var a = List.new('x', null);
  var b = List.new((1, 2), null);
  return int.!(a.head) + b.head.0;
}
)",
                     NoOpt);
  IrModule &M = P->monoIr();
  IrClass *LB = findClass(M, "List<byte>");
  IrClass *LT = findClass(M, "List<(int, int)>");
  ASSERT_NE(LB, nullptr);
  ASSERT_NE(LT, nullptr);
  EXPECT_EQ(LB->Fields[0].Ty->toString(), "byte");
  EXPECT_EQ(LT->Fields[0].Ty->toString(), "(int, int)");
}

TEST(MonoTest, ReachabilityDriven) {
  // Unused generic code is never specialized — it costs nothing.
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(R"(
def unused<T>(x: T) -> T { return x; }
class Unused<T> { var x: T; new(x) { } }
def main() -> int { return 7; }
)",
                     NoOpt);
  IrModule &M = P->monoIr();
  for (IrFunction *F : M.Functions)
    EXPECT_EQ(F->Name.find("unused"), std::string::npos) << F->Name;
  EXPECT_EQ(M.Classes.size(), 0u);
}

TEST(MonoTest, SpecializedHierarchyPreservesSubtyping) {
  // Casts on specialized class types still work: the specialized defs
  // carry a parallel extends chain.
  expectResult(R"(
class Instr { def tag() -> int { return 0; } }
class InstrOf<T> extends Instr {
  var val: T;
  new(val) { }
  def tag() -> int { return 1; }
}
def main() -> int {
  var i: Instr = InstrOf.new((1, 2));
  var r = 0;
  if (InstrOf<(int, int)>.?(i)) r = r + 1;
  if (InstrOf<int>.?(i)) r = r + 10;
  if (Instr.?(i)) r = r + 100;
  return r * 1000 + InstrOf<(int, int)>.!(i).val.1;
}
)",
               101002);
}

TEST(MonoTest, RuntimeCastsDecidedStatically) {
  // After mono, print1<int>'s chain folds: only one branch remains
  // (§3.3). Statically verified via cast counts. Folding is SCCP's
  // job, so the SSA mid-tier is pinned on.
  CompilerOptions Opt;
  Opt.Opt.Ssa = true;
  auto P = compileOk(R"(
def pInt(a: int) -> int { return 1; }
def pBool(a: bool) -> int { return 2; }
def print1<T>(a: T) -> int {
  if (int.?(a)) return pInt(int.!(a));
  if (bool.?(a)) return pBool(bool.!(a));
  return 0;
}
def main() -> int { return print1(5) * 10 + print1(true); }
)",
                     Opt);
  expectResult(R"(
def pInt(a: int) -> int { return 1; }
def pBool(a: bool) -> int { return 2; }
def print1<T>(a: T) -> int {
  if (int.?(a)) return pInt(int.!(a));
  if (bool.?(a)) return pBool(bool.!(a));
  return 0;
}
def main() -> int { return print1(5) * 10 + print1(true); }
)",
               12);
  // With the optimizer on, no dynamic casts/queries survive.
  EXPECT_EQ(P->stats().MonoIr.NumCasts, 0u)
      << "the compiler decided every query statically";
}

TEST(MonoTest, ExpansionStatsTrackDuplication) {
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(R"(
def id<T>(x: T) -> T { return x; }
def main() -> int {
  return id(1) + int.!(id('c')) + id((1, 2)).0;
}
)",
                     NoOpt);
  const MonoStats &S = P->stats().Mono;
  EXPECT_EQ(S.SpecsPerFunction.at("id"), 3u);
  EXPECT_GT(S.OutputFunctions, 0u);
}

TEST(MonoTest, PolymorphicEqualityOnTypeParams) {
  // T.== specializes per instantiation and keeps value semantics.
  expectResult(R"(
def same<T>(a: T, b: T) -> bool { return T.==(a, b); }
def main() -> int {
  var r = 0;
  if (same(1, 1)) r = r + 1;
  if (!same((1, 2), (1, 3))) r = r + 10;
  if (same("", "") == false) r = r + 100;
  return r;
}
)",
               111);
}

TEST(MonoTest, DynamicTypeDistinguishesInstantiations) {
  // (d13)-(d14): runtime types of polymorphic classes stay distinct.
  expectResult(R"(
class Box<T> { var v: T; new(v) { } }
def classify<T>(x: T) -> int {
  if (Box<int>.?(x)) return 1;
  if (Box<bool>.?(x)) return 2;
  if (Box<(int, int)>.?(x)) return 3;
  return 0;
}
def main() -> int {
  return classify(Box.new(1)) * 100 + classify(Box.new(true)) * 10 +
         classify(Box.new((1, 2)));
}
)",
               123);
}

} // namespace
