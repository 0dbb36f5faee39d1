//===- tests/ExecTest.cpp - Warm-VM pool + executor tests -----------------===//
///
/// \file
/// The exec subsystem's contract is *observational invisibility*: a
/// request served on a pooled, snapshot-reset VM must be byte-for-byte
/// indistinguishable from one served on a freshly constructed VM —
/// same outcome, trap diagnostic, result bits, output, executed
/// instruction count, GC activity, and inline-cache behavior. Three
/// layers enforce it here:
///
///   * Vm::snapshotForReuse/resetForReuse against targeted programs
///     that dirty each piece of per-run state (heap + collections,
///     globals, output, traps, the program-visible tick counter,
///     inline caches).
///   * VmPool mechanics: hit/miss accounting, LRU eviction at
///     capacity, same-key replacement.
///   * Executor end-to-end: repeat requests hit the pool and produce
///     identical wire responses, plus a 220-seed random-program
///     differential sweep (fresh VM vs reused VM) over every
///     observable.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "corpus/Generators.h"
#include "exec/Executor.h"
#include "exec/VmPool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace virgil;
using namespace virgil::exec;

namespace {

std::unique_ptr<Program> compileOk(const std::string &Source) {
  Compiler C;
  std::string Error;
  auto P = C.compile("exec-test", Source, &Error);
  EXPECT_NE(P, nullptr) << Error;
  return P;
}

/// Every observable a request can see, plus the engine counters the
/// invisibility contract covers.
void expectSameRun(const VmResult &A, const VmResult &B,
                   const std::string &Label) {
  EXPECT_EQ(A.Trapped, B.Trapped) << Label;
  EXPECT_EQ(A.TrapMessage, B.TrapMessage) << Label;
  EXPECT_EQ((int)A.Cause, (int)B.Cause) << Label;
  EXPECT_EQ(A.HasResult, B.HasResult) << Label;
  EXPECT_EQ(A.ResultBits, B.ResultBits) << Label;
  EXPECT_EQ(A.Output, B.Output) << Label;
  EXPECT_EQ(A.Counters.Instrs, B.Counters.Instrs) << Label;
  EXPECT_EQ(A.Counters.Calls, B.Counters.Calls) << Label;
  EXPECT_EQ(A.Counters.HeapObjects, B.Counters.HeapObjects) << Label;
  EXPECT_EQ(A.Counters.HeapArrays, B.Counters.HeapArrays) << Label;
  // Inline-cache hit/miss totals are tier-heuristic stats, not program
  // behavior: a reused VM keeps its compiled code and patched native
  // sites warm, so a fresh VM (which interprets until hot) counts the
  // same dispatches differently. Compare them only when neither run
  // entered the JIT; the hit+miss sum stays tier-invariant per site
  // shape and is covered by the virtual-call counter equality above.
  if (A.Jit.Enters == 0 && B.Jit.Enters == 0) {
    EXPECT_EQ(A.Counters.IcHits, B.Counters.IcHits) << Label;
    EXPECT_EQ(A.Counters.IcMisses, B.Counters.IcMisses) << Label;
  }
  EXPECT_EQ(A.Counters.FusedStatic, B.Counters.FusedStatic) << Label;
  EXPECT_EQ(A.Counters.FusedExecuted, B.Counters.FusedExecuted) << Label;
  EXPECT_EQ(A.Heap.ObjectsAllocated, B.Heap.ObjectsAllocated) << Label;
  EXPECT_EQ(A.Heap.SlotsAllocated, B.Heap.SlotsAllocated) << Label;
  EXPECT_EQ(A.Heap.MinorCollections, B.Heap.MinorCollections) << Label;
  EXPECT_EQ(A.Heap.MajorCollections, B.Heap.MajorCollections) << Label;
  EXPECT_EQ(A.Heap.SlotsPromoted, B.Heap.SlotsPromoted) << Label;
  EXPECT_EQ(A.Heap.BarrierHits, B.Heap.BarrierHits) << Label;
}

/// Fresh reference run vs a VM pushed through the reuse protocol
/// twice: both reused runs must match the reference.
void checkResetInvisible(const std::string &Source, VmOptions Opts,
                         const std::string &Label) {
  auto P = compileOk(Source);
  ASSERT_NE(P, nullptr);
  Vm Fresh(P->bytecode(), Opts);
  VmResult Ref = Fresh.run();

  Vm Reused(P->bytecode(), Opts);
  Reused.snapshotForReuse();
  VmResult First = Reused.run();
  expectSameRun(Ref, First, Label + "/first");
  for (int Round = 0; Round != 2; ++Round) {
    ASSERT_TRUE(Reused.resetForReuse()) << Label;
    VmResult Again = Reused.run();
    expectSameRun(Ref, Again, Label + "/reuse" + std::to_string(Round));
  }
}

//===----------------------------------------------------------------------===//
// Vm reset invisibility on targeted programs
//===----------------------------------------------------------------------===//

// Dirty the heap hard enough to force minor and major collections,
// plus old→young barrier traffic; reuse must replay the exact same GC
// schedule (the heap rewind restores geometry, not just emptiness).
const char *kGcChurn = R"(
class Node { var v: int; var next: Node; new(v, next) { } }
def main() -> int {
  var keep = Node.new(0, null);
  var acc = 0;
  for (i = 1; i < 4000; i = i + 1) {
    var n = Node.new(i, keep);
    if (i % 7 == 0) { keep = n; }
    acc = acc + n.v;
    var junk = Array<int>.new(16);
    junk[0] = i;
    acc = acc + junk[0] % 3;
  }
  return acc % 100000;
}
)";

// Globals are per-run state: $init writes them, main mutates them.
const char *kGlobals = R"(
var counter: int = 10;
var table = Array<int>.new(8);
def bump() -> int { counter = counter + 1; return counter; }
def main() -> int {
  for (i = 0; i < 8; i = i + 1) table[i] = bump();
  return counter * 1000 + table[7];
}
)";

// Output accumulates across a run; a stale buffer would leak bytes
// into the next request.
const char *kOutput = R"(
def main() -> int {
  for (i = 0; i < 5; i = i + 1) { System.puti(i); System.putc(',');  }
  System.puts("done"); System.ln();
  return 7;
}
)";

// The tick counter is program-visible (System.ticks() is a
// deterministic virtual clock); reuse must rewind it.
const char *kTicks = R"(
def main() -> int {
  var a = System.ticks();
  var b = System.ticks();
  var c = System.ticks();
  return a * 100 + b * 10 + c;
}
)";

// Traps mid-run leave the VM in its most contaminated state: frames
// on the stack, partial output, trap cause set. Reuse after a trap
// must still be pristine.
const char *kTrap = R"(
def boom(n: int) -> int {
  var a = Array<int>.new(4);
  return a[n];
}
def main() -> int {
  System.puts("before");
  return boom(9);
}
)";

// Virtual-dispatch megamorphic churn: dirties inline caches in both
// directions, so a stale (or over-reset) IC changes IcHits/IcMisses.
const char *kPolymorphic = R"(
class A { def f() -> int { return 1; } }
class B extends A { def f() -> int { return 2; } }
class C extends A { def f() -> int { return 3; } }
def main() -> int {
  var objs = Array<A>.new(3);
  objs[0] = A.new(); objs[1] = B.new(); objs[2] = C.new();
  var acc = 0;
  for (i = 0; i < 300; i = i + 1) acc = acc + objs[i % 3].f();
  return acc;
}
)";

struct NamedProgram {
  const char *Name;
  const char *Source;
};

const NamedProgram kPrograms[] = {
    {"gc-churn", kGcChurn}, {"globals", kGlobals},
    {"output", kOutput},    {"ticks", kTicks},
    {"trap", kTrap},        {"polymorphic", kPolymorphic},
};

TEST(VmReuseTest, ResetIsInvisibleGenerational) {
  for (const NamedProgram &P : kPrograms) {
    VmOptions Opts;
    Opts.Generational = true;
    Opts.NurseryBytes = 4096; // tiny: force collections mid-run
    checkResetInvisible(P.Source, Opts, std::string("gen/") + P.Name);
  }
}

TEST(VmReuseTest, ResetIsInvisibleSemispace) {
  for (const NamedProgram &P : kPrograms) {
    VmOptions Opts;
    Opts.Generational = false;
    checkResetInvisible(P.Source, Opts, std::string("semi/") + P.Name);
  }
}

TEST(VmReuseTest, ResetIsInvisibleUnderQuotaTraps) {
  // Fuel and deadline quotas are re-armed per run; a fuel trap on a
  // reused VM must report the identical instruction count.
  auto P = compileOk(R"(
def main() -> int {
  var acc = 0;
  for (i = 0; i < 1000000; i = i + 1) acc = acc + i;
  return acc;
}
)");
  ASSERT_NE(P, nullptr);
  VmOptions Opts;
  Opts.MaxInstrs = 5000;
  Vm Fresh(P->bytecode(), Opts);
  VmResult Ref = Fresh.run();
  EXPECT_TRUE(Ref.Trapped);
  EXPECT_EQ((int)Ref.Cause, (int)VmTrapCause::Fuel);

  Vm Reused(P->bytecode(), Opts);
  Reused.snapshotForReuse();
  (void)Reused.run();
  ASSERT_TRUE(Reused.resetForReuse());
  expectSameRun(Ref, Reused.run(), "fuel-trap");
}

TEST(VmReuseTest, SetRunQuotasVariesBetweenReuses) {
  // The same pooled VM can serve requests with different fuel
  // budgets: tight fuel traps, generous fuel completes.
  auto P = compileOk(R"(
def main() -> int {
  var acc = 0;
  for (i = 0; i < 2000; i = i + 1) acc = acc + i;
  return acc % 1000;
}
)");
  ASSERT_NE(P, nullptr);
  Vm V(P->bytecode(), VmOptions());
  V.snapshotForReuse();
  VmResult Ok1 = V.run();
  EXPECT_FALSE(Ok1.Trapped);

  ASSERT_TRUE(V.resetForReuse());
  V.setRunQuotas(/*Fuel=*/100, /*DeadlineMs=*/0);
  VmResult Starved = V.run();
  EXPECT_TRUE(Starved.Trapped);
  EXPECT_EQ((int)Starved.Cause, (int)VmTrapCause::Fuel);

  ASSERT_TRUE(V.resetForReuse());
  V.setRunQuotas(/*Fuel=*/0, /*DeadlineMs=*/0);
  VmResult Ok2 = V.run();
  EXPECT_FALSE(Ok2.Trapped);
  EXPECT_EQ(Ok2.ResultBits, Ok1.ResultBits);
  EXPECT_EQ(Ok2.Counters.Instrs, Ok1.Counters.Instrs);
}

TEST(VmReuseTest, ResetWithoutSnapshotRefuses) {
  auto P = compileOk("def main() -> int { return 1; }");
  ASSERT_NE(P, nullptr);
  Vm V(P->bytecode(), VmOptions());
  EXPECT_FALSE(V.resetForReuse()) << "no snapshot taken";
  V.snapshotForReuse();
  EXPECT_TRUE(V.resetForReuse());
}

//===----------------------------------------------------------------------===//
// Random-program differential sweep (fresh vs reused)
//===----------------------------------------------------------------------===//

TEST(VmReuseTest, RandomProgramSweepFreshVsReused) {
  // 220 generator seeds; every program that compiles runs on a fresh
  // VM and as the second run of a reused VM, compared on every
  // observable. This is the acceptance bar for pooling in virgild.
  int Compiled = 0;
  for (uint32_t Seed = 1; Seed <= 220; ++Seed) {
    Compiler C;
    std::string Error;
    auto P = C.compile("exec-fuzz", corpus::genRandomProgram(Seed), &Error);
    if (!P)
      continue; // compile errors are the fuzz oracle's concern
    ++Compiled;
    VmOptions Opts;
    Opts.NurseryBytes = 8192; // small enough to collect under churn
    Vm Fresh(P->bytecode(), Opts);
    Fresh.setMaxInstrs(2000000); // random programs may loop forever
    VmResult Ref = Fresh.run();

    Vm Reused(P->bytecode(), Opts);
    Reused.setMaxInstrs(2000000);
    Reused.snapshotForReuse();
    (void)Reused.run();
    ASSERT_TRUE(Reused.resetForReuse()) << "seed " << Seed;
    Reused.setMaxInstrs(2000000); // reset re-arms from VmOptions
    expectSameRun(Ref, Reused.run(), "seed " + std::to_string(Seed));
  }
  EXPECT_GT(Compiled, 100) << "generator produced too few programs";
}

//===----------------------------------------------------------------------===//
// VmPool mechanics
//===----------------------------------------------------------------------===//

struct PooledProgram {
  std::unique_ptr<Program> P;
  std::unique_ptr<Vm> V;
};

/// Builds a snapshotted, once-run VM for \p Source — the state in
/// which Executor donates VMs to the pool.
std::unique_ptr<Vm> makeWarmVm(Program &P) {
  auto V = std::make_unique<Vm>(P.bytecode(), VmOptions());
  V->snapshotForReuse();
  (void)V->run();
  return V;
}

TEST(VmPoolTest, MissThenHit) {
  VmPool Pool(4);
  EXPECT_EQ(Pool.acquire(42), nullptr);
  EXPECT_EQ(Pool.stats().Misses.load(), 1u);

  auto P = compileOk("def main() -> int { return 5; }");
  ASSERT_NE(P, nullptr);
  Pool.adopt(42, nullptr, makeWarmVm(*P));
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Pool.stats().Resident.load(), 1u);

  Vm *V = Pool.acquire(42);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(Pool.stats().Hits.load(), 1u);
  VmResult R = V->run();
  EXPECT_EQ(R.ResultBits, 5);

  EXPECT_EQ(Pool.acquire(99), nullptr) << "different key must miss";
}

TEST(VmPoolTest, LruEvictionAtCapacity) {
  VmPool Pool(2);
  auto P = compileOk("def main() -> int { return 1; }");
  ASSERT_NE(P, nullptr);
  Pool.adopt(1, nullptr, makeWarmVm(*P));
  Pool.adopt(2, nullptr, makeWarmVm(*P));
  // Touch key 1 so key 2 becomes the LRU.
  ASSERT_NE(Pool.acquire(1), nullptr);
  Pool.adopt(3, nullptr, makeWarmVm(*P));
  EXPECT_EQ(Pool.size(), 2u);
  EXPECT_EQ(Pool.stats().Evictions.load(), 1u);
  EXPECT_NE(Pool.acquire(1), nullptr) << "recently used entry kept";
  EXPECT_NE(Pool.acquire(3), nullptr) << "new entry kept";
  EXPECT_EQ(Pool.acquire(2), nullptr) << "LRU entry evicted";
}

TEST(VmPoolTest, SameKeyAdoptReplaces) {
  VmPool Pool(2);
  auto P = compileOk("def main() -> int { return 1; }");
  ASSERT_NE(P, nullptr);
  Pool.adopt(7, nullptr, makeWarmVm(*P));
  Pool.adopt(7, nullptr, makeWarmVm(*P));
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Pool.stats().Evictions.load(), 0u);
}

TEST(VmPoolTest, UnsnapshottedEntryIsDropped) {
  VmPool Pool(2);
  auto P = compileOk("def main() -> int { return 1; }");
  ASSERT_NE(P, nullptr);
  // Adopt a VM that never took a snapshot (a misuse the pool defends
  // against rather than serving a contaminated run).
  Pool.adopt(5, nullptr, std::make_unique<Vm>(P->bytecode(), VmOptions()));
  EXPECT_EQ(Pool.acquire(5), nullptr);
  EXPECT_EQ(Pool.stats().Drops.load(), 1u);
  EXPECT_EQ(Pool.size(), 0u);
  EXPECT_EQ(Pool.stats().Resident.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Executor end to end
//===----------------------------------------------------------------------===//

struct ExecFixture {
  CompileService Service;
  Executor Ex;
  explicit ExecFixture(ExecutorConfig EC = ExecutorConfig())
      : Service(ServiceOptions()), Ex(EC, Service) {}

  server::ExecuteResponse run(const std::string &Source,
                              uint64_t Fuel = 0) {
    server::ExecuteRequest Req;
    Req.Name = "req";
    Req.Source = Source;
    Req.Fuel = Fuel;
    double CompileMs = 0, ExecuteMs = 0;
    return Ex.run(Req, /*ExecuteVm=*/true, &CompileMs, &ExecuteMs);
  }
};

TEST(ExecutorTest, RepeatRequestHitsPoolWithIdenticalResponse) {
  ExecFixture F;
  const char *Src = kGcChurn;
  server::ExecuteResponse Cold = F.run(Src);
  EXPECT_EQ((int)Cold.O, (int)server::Outcome::Ok);
  EXPECT_EQ(F.Ex.poolSize(), 1u);

  server::ExecuteResponse Warm = F.run(Src);
  EXPECT_EQ(F.Ex.poolStats().Hits.load(), 1u);
  EXPECT_TRUE(Warm.CacheHit) << "pool hits are reported as cache hits";

  EXPECT_EQ((int)Warm.O, (int)Cold.O);
  EXPECT_EQ(Warm.Message, Cold.Message);
  EXPECT_EQ(Warm.HasResult, Cold.HasResult);
  EXPECT_EQ(Warm.ResultBits, Cold.ResultBits);
  EXPECT_EQ(Warm.Output, Cold.Output);
  EXPECT_EQ(Warm.Instrs, Cold.Instrs);
  EXPECT_EQ(Warm.GcMinor, Cold.GcMinor);
  EXPECT_EQ(Warm.GcMajor, Cold.GcMajor);
}

TEST(ExecutorTest, TrapsAreIdenticalOnPoolHits) {
  ExecFixture F;
  server::ExecuteResponse Cold = F.run(kTrap);
  EXPECT_EQ((int)Cold.O, (int)server::Outcome::Trap);
  server::ExecuteResponse Warm = F.run(kTrap);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ((int)Warm.O, (int)Cold.O);
  EXPECT_EQ(Warm.Message, Cold.Message);
  EXPECT_EQ(Warm.Output, Cold.Output) << "partial pre-trap output";
  EXPECT_EQ(Warm.Instrs, Cold.Instrs);
}

TEST(ExecutorTest, QuotaChangesDoNotSplitPoolEntries) {
  // Fuel is a per-run quota, not part of the key: the same warm VM
  // serves both, trapping under the tight budget.
  ExecFixture F;
  const char *Src = R"(
def main() -> int {
  var acc = 0;
  for (i = 0; i < 100000; i = i + 1) acc = acc + i;
  return acc % 97;
}
)";
  server::ExecuteResponse Ok = F.run(Src);
  EXPECT_EQ((int)Ok.O, (int)server::Outcome::Ok);
  server::ExecuteResponse Starved = F.run(Src, /*Fuel=*/200);
  EXPECT_TRUE(Starved.CacheHit);
  EXPECT_EQ((int)Starved.O, (int)server::Outcome::Fuel);
  EXPECT_EQ(F.Ex.poolSize(), 1u) << "one entry serves both budgets";
}

TEST(ExecutorTest, DefaultVmSettingsFollowTheAxisTable) {
  // The request VM's engine settings default exactly like a plain
  // VmOptions: from their FeatureAxes rows and environment variables
  // (the CI stress matrix overrides those), never hard-coded.
  ExecutorConfig EC;
  VmOptions Plain;
  for (const FeatureAxis &A : FeatureAxes) {
    if (A.Key == AxisKey::Pool) {
      EXPECT_EQ(axisValue(A.Id, EC.Vm), axisValue(A.Id, Plain)) << A.Name;
    }
  }
  EXPECT_EQ(EC.UsePool, axisDefault(Axis::Pool) != 0);
}

TEST(ExecutorTest, PoolOffNeverRetainsVms) {
  ExecutorConfig EC;
  EC.UsePool = false;
  ExecFixture F(EC);
  server::ExecuteResponse A = F.run(kOutput);
  server::ExecuteResponse B = F.run(kOutput);
  EXPECT_EQ(F.Ex.poolSize(), 0u);
  EXPECT_EQ(F.Ex.poolStats().Hits.load(), 0u);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Instrs, B.Instrs);
}

TEST(ExecutorTest, PooledVsUnpooledAgreeOnRandomPrograms) {
  // Executor-level differential: the same 40 random programs served
  // twice by a pooling executor and twice by a non-pooling one; all
  // four responses must agree on every wire observable.
  ExecutorConfig Pooled;
  ExecutorConfig Unpooled;
  Unpooled.UsePool = false;
  ExecFixture FP(Pooled), FU(Unpooled);
  int Compiled = 0;
  for (uint32_t Seed = 500; Seed != 540; ++Seed) {
    std::string Src = corpus::genRandomProgram(Seed);
    server::ExecuteResponse U1 = FU.run(Src);
    if ((int)U1.O == (int)server::Outcome::CompileError)
      continue;
    ++Compiled;
    server::ExecuteResponse U2 = FU.run(Src);
    server::ExecuteResponse P1 = FP.run(Src);
    server::ExecuteResponse P2 = FP.run(Src); // the pool-hit run
    for (const server::ExecuteResponse *R : {&U2, &P1, &P2}) {
      EXPECT_EQ((int)R->O, (int)U1.O) << "seed " << Seed;
      EXPECT_EQ(R->Message, U1.Message) << "seed " << Seed;
      EXPECT_EQ(R->ResultBits, U1.ResultBits) << "seed " << Seed;
      EXPECT_EQ(R->Output, U1.Output) << "seed " << Seed;
      EXPECT_EQ(R->Instrs, U1.Instrs) << "seed " << Seed;
      EXPECT_EQ(R->GcMinor, U1.GcMinor) << "seed " << Seed;
      EXPECT_EQ(R->GcMajor, U1.GcMajor) << "seed " << Seed;
    }
  }
  EXPECT_GT(Compiled, 10);
}

TEST(ExecutorTest, CompileOnlyRequestsSkipTheVmAndPool) {
  ExecFixture F;
  server::ExecuteRequest Req;
  Req.Name = "compile-only";
  Req.Source = "def main() -> int { return 3; }";
  double CompileMs = 0, ExecuteMs = 0;
  server::ExecuteResponse R =
      F.Ex.run(Req, /*ExecuteVm=*/false, &CompileMs, &ExecuteMs);
  EXPECT_EQ((int)R.O, (int)server::Outcome::Ok);
  EXPECT_EQ(R.Instrs, 0u);
  EXPECT_EQ(F.Ex.poolSize(), 0u);
  EXPECT_EQ(ExecuteMs, 0.0);
}

} // namespace
