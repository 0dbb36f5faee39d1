//===- tests/MonoShareTest.cpp - Specialization sharing ---------*- C++ -*-===//
///
/// \file
/// The sharing pass (src/mono/ShareSpecializations.h) collapses
/// specializations whose normalized bodies are observationally
/// identical. These tests pin down both halves of its contract: it
/// *does* merge ref-typed instantiations of the same generic (the
/// expansion win), and it *never* changes an observable — cast and
/// query results, `classify<T>`-style dispatch, serialized round
/// trips, and warm-pool VM reuse all behave bit-identically with
/// sharing on and off.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Generators.h"
#include "vm/BytecodeSerializer.h"

using namespace virgil;
using namespace virgil::testing;

namespace {

CompilerOptions shareOn(bool Optimize = true) {
  CompilerOptions O;
  O.Optimize = Optimize;
  O.ShareSpecializations = true;
  return O;
}

CompilerOptions shareOff(bool Optimize = true) {
  CompilerOptions O;
  O.Optimize = Optimize;
  O.ShareSpecializations = false;
  return O;
}

/// Compiles \p Source with sharing on and off and checks the two
/// pipelines agree on the VM result, output, and trap state; returns
/// the share-on program for stat assertions.
std::unique_ptr<Program> expectShareInvisible(const std::string &Source) {
  auto POn = compileOk(Source, shareOn());
  auto POff = compileOk(Source, shareOff());
  if (!POn || !POff)
    return nullptr;
  VmResult ROn = POn->runVm();
  VmResult ROff = POff->runVm();
  EXPECT_EQ(ROn.Trapped, ROff.Trapped);
  EXPECT_EQ(ROn.HasResult, ROff.HasResult);
  EXPECT_EQ(ROn.ResultBits, ROff.ResultBits);
  EXPECT_EQ(ROn.Output, ROff.Output);
  // The norm interpreter executes the shared IR directly (pre-emit),
  // so it must agree too.
  RunOutcome NOn = fromInterp(POn->interpretNorm());
  EXPECT_EQ(NOn.Trapped, ROff.Trapped);
  if (!NOn.Trapped && ROff.HasResult)
    EXPECT_EQ((uint64_t)(int64_t)NOn.Result, ROff.ResultBits);
  return POn;
}

/// Three ref instantiations of one list traverser: their normalized
/// bodies are identical, so sharing collapses them to one.
const char *kRefWalkers = R"(
class List<T> { var head: T; var tail: List<T>; new(head, tail) { } }
class A { } class B { } class C { }
def len<T>(l: List<T>) -> int {
  var c = 0;
  for (k = l; k != null; k = k.tail) c = c + 1;
  return c;
}
def main() -> int {
  var la = List.new(A.new(), List.new(A.new(), null));
  var lb = List.new(B.new(), null);
  var lc = List.new(C.new(), null);
  return len<A>(la) * 100 + len<B>(lb) * 10 + len<C>(lc);
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// The expansion win: identical bodies collapse
//===----------------------------------------------------------------------===//

TEST(MonoShare, RefInstantiationsCollapseToOneBody) {
  auto P = expectShareInvisible(kRefWalkers);
  ASSERT_NE(P, nullptr);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ(R.ResultBits, 211u);

  const ShareStats &S = P->stats().Share;
  EXPECT_GT(S.FunctionsBefore, 0u) << "the sharing pass did not run";
  // len<A>, len<B>, len<C> merge into one representative (at least two
  // bodies gone); the module shrinks by the same amount.
  EXPECT_GE(S.BodiesShared, 2u);
  EXPECT_EQ(S.FunctionsBefore - S.FunctionsAfter, S.BodiesShared);
  EXPECT_LT(S.InstrsAfter, S.InstrsBefore);
  EXPECT_GT(S.shareRatio(), 1.0);
}

TEST(MonoShare, GeneratedShareWorkloadCollapses) {
  std::string Src = corpus::genShareWorkload(3, 5);
  auto P = expectShareInvisible(Src);
  ASSERT_NE(P, nullptr);
  // 3 traversers x 5 class instantiations -> 3 representatives: at
  // least 12 specializations merge away.
  EXPECT_GE(P->stats().Share.BodiesShared, 12u);
}

//===----------------------------------------------------------------------===//
// The precision half: differing bodies never collapse
//===----------------------------------------------------------------------===//

TEST(MonoShare, DifferingBodiesDoNotCollapse) {
  // Four functions, no two alike: distinct constants, and id<int> vs
  // id<A> differ in register slot kind (scalar vs ref) even though
  // their source is one generic. No-opt keeps the bodies as written.
  const char *Source = R"(
class A { }
def f<T>(x: T, n: int) -> int { return n + 1; }
def g<T>(x: T, n: int) -> int { return n + 7; }
def id<T>(x: T) -> T { return x; }
def main() -> int {
  var a = id<A>(A.new());
  var i = id<int>(40);
  if (a != null) { return f<int>(0, i) + g<int>(0, 1); }
  return 0;
}
)";
  auto P = compileOk(Source, shareOn(/*Optimize=*/false));
  ASSERT_NE(P, nullptr);
  const ShareStats &S = P->stats().Share;
  EXPECT_GT(S.FunctionsBefore, 0u) << "the sharing pass did not run";
  EXPECT_EQ(S.BodiesShared, 0u);
  EXPECT_EQ(S.FunctionsBefore, S.FunctionsAfter);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ(R.ResultBits, 49u);
}

TEST(MonoShare, AllocatingGenericsKeepClassIdentity) {
  // mk<A> and mk<B> allocate Box<A> vs Box<B>: the allocation site
  // pins class identity (a query can tell the results apart), so the
  // two bodies must not merge — and the queries must stay exact.
  const char *Source = R"(
class Box<T> { var v: T; new(v) { } }
class A { } class B { }
def mk<T>(x: T) -> Box<T> { return Box.new(x); }
def main() -> int {
  var ba = mk<A>(A.new());
  var bb = mk<B>(B.new());
  var r = 0;
  if (Box<A>.?(ba)) r = r + 1;
  if (Box<B>.?(bb)) r = r + 10;
  return r;
}
)";
  auto P = expectShareInvisible(Source);
  ASSERT_NE(P, nullptr);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ(R.ResultBits, 11u);
}

//===----------------------------------------------------------------------===//
// Cast / query / classify<T> exactness through shared bodies
//===----------------------------------------------------------------------===//

TEST(MonoShare, CastsStayExactThroughSharedBodies) {
  // id<Bat> and id<Cat> share one body; the values flowing through it
  // must keep their exact class identity for downstream queries,
  // casts, and virtual dispatch.
  const char *Source = R"(
class Animal { def noise() -> int { return 0; } }
class Bat extends Animal { def noise() -> int { return 1; } }
class Cat extends Animal { def noise() -> int { return 2; } }
def id<T>(x: T) -> T { return x; }
def classifyA(a: Animal) -> int {
  if (Bat.?(a)) return 1;
  if (Cat.?(a)) return 2;
  return 0;
}
def main() -> int {
  var b = id<Bat>(Bat.new());
  var c = id<Cat>(Cat.new());
  var viaQuery = classifyA(b) * 10 + classifyA(c);
  var viaCast = Animal.!(b).noise() * 10 + Animal.!(c).noise();
  return viaQuery + viaCast * 100;
}
)";
  auto P = expectShareInvisible(Source);
  ASSERT_NE(P, nullptr);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  // viaQuery = 12, viaCast = 12.
  EXPECT_EQ(R.ResultBits, 1212u);
  EXPECT_GE(P->stats().Share.BodiesShared, 1u);
}

TEST(MonoShare, QueryOutcomeDifferencesPreventSharing) {
  // isBat<Bat> statically answers true, isBat<Cat> false: the baked
  // query decision is part of the body key, so the two must not merge
  // even though their instruction shapes match.
  const char *Source = R"(
class Animal { }
class Bat extends Animal { }
class Cat extends Animal { }
def isBat<T>(x: T) -> bool { if (Bat.?(x)) return true; return false; }
def main() -> int {
  var r = 0;
  if (isBat<Bat>(Bat.new())) r = r + 1;
  if (isBat<Cat>(Cat.new())) r = r + 10;
  if (isBat<Animal>(Bat.new())) r = r + 100;
  if (isBat<Animal>(Cat.new())) r = r + 1000;
  return r;
}
)";
  auto P = expectShareInvisible(Source);
  ASSERT_NE(P, nullptr);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  // Bat yes, Cat no, dynamic Animal query: Bat yes, Cat no.
  EXPECT_EQ(R.ResultBits, 101u);
}

//===----------------------------------------------------------------------===//
// Serializer round trip of deduped bodies
//===----------------------------------------------------------------------===//

TEST(MonoShare, SerializerDedupsIdenticalBodies) {
  // With IR sharing off, the identical len<T> bodies survive to the
  // emitter — the v2 serializer must back-reference them on disk and
  // the round trip must reproduce the module exactly.
  auto P = compileOk(kRefWalkers, shareOff());
  ASSERT_NE(P, nullptr);
  SerializeStats SS;
  std::string Bytes = serializeModule(P->bytecode(), kBcFormatVersion, &SS);
  EXPECT_GE(SS.SharedBodies, 2u);
  EXPECT_GT(SS.BytesSaved, 0u);

  std::string Error;
  auto L = deserializeModule(Bytes, kBcFormatVersion, &Error);
  ASSERT_NE(L, nullptr) << Error;
  // Deserialize -> reserialize is byte-stable (dedup is deterministic:
  // first occurrence wins).
  EXPECT_EQ(serializeModule(L->module()), Bytes);

  Vm V(L->module());
  VmResult R = V.run();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ(R.ResultBits, 211u);
}

TEST(MonoShare, SharedModuleRoundTripsThroughSerializer) {
  auto P = compileOk(kRefWalkers, shareOn());
  ASSERT_NE(P, nullptr);
  std::string Bytes = serializeModule(P->bytecode());
  std::string Error;
  auto L = deserializeModule(Bytes, kBcFormatVersion, &Error);
  ASSERT_NE(L, nullptr) << Error;
  Vm V(L->module());
  VmResult R = V.run();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  EXPECT_EQ(R.ResultBits, 211u);
}

//===----------------------------------------------------------------------===//
// Warm-pool reuse of a shared-body VM
//===----------------------------------------------------------------------===//

TEST(MonoShare, PoolReuseProtocolWorksOnSharedBodies) {
  // The warm-VM pool's snapshot/reset protocol must be as invisible on
  // a shared-body module as on any other: run, reset, run again, and
  // both runs must match the fresh-VM result exactly.
  auto P = compileOk(kRefWalkers, shareOn());
  ASSERT_NE(P, nullptr);
  VmResult Fresh = Vm(P->bytecode()).run();
  ASSERT_FALSE(Fresh.Trapped) << Fresh.TrapMessage;

  Vm V(P->bytecode());
  V.snapshotForReuse();
  VmResult First = V.run();
  V.resetForReuse();
  VmResult Second = V.run();
  for (const VmResult *R : {&First, &Second}) {
    EXPECT_FALSE(R->Trapped) << R->TrapMessage;
    EXPECT_EQ(R->HasResult, Fresh.HasResult);
    EXPECT_EQ(R->ResultBits, Fresh.ResultBits);
    EXPECT_EQ(R->Output, Fresh.Output);
  }
}
