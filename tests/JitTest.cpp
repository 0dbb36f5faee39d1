//===- tests/JitTest.cpp - Baseline JIT tier tests -------------------------===//
///
/// \file
/// The JIT's contract is *tier invisibility*: a program run with the
/// template JIT enabled must be observationally identical to the
/// interpreter — same result bits, output, trap diagnostics, and
/// executed-instruction count (fused superinstructions count as their
/// two constituent ops in both tiers). These tests pin down:
///
///   * hotness tiering: functions compile only after crossing the
///     configured threshold (calls + backward branches), including
///     OSR entry at a loop back-edge,
///   * deopt: IC misses, program traps, fuel exhaustion, and
///     GC-during-allocation all hand control back to the interpreter
///     with bit-identical observables,
///   * inline-cache patching and the megamorphic cap,
///   * the interpreter-only fallback on hosts that cannot map
///     executable memory (simulated via environment).
///
/// Every test skips its JIT-specific assertions when the host probe
/// reports no JIT support, so the suite passes on any architecture.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <cstdlib>

using namespace virgil;
using namespace virgil::testing;

namespace {

VmOptions jitOn(uint32_t Threshold) {
  VmOptions O;
  O.Jit = VmOptions::JitMode::On;
  O.JitThreshold = Threshold;
  return O;
}

VmOptions jitOff() {
  VmOptions O;
  O.Jit = VmOptions::JitMode::Off;
  return O;
}

/// Everything a program can observe must be tier-invariant. IC
/// hit/miss counters are deliberately absent: they are tier-heuristic
/// stats (the native sites cap repatching and go megamorphic).
void expectTierInvisible(const VmResult &Interp, const VmResult &Jit,
                         const std::string &Label) {
  EXPECT_EQ(Interp.Trapped, Jit.Trapped) << Label;
  EXPECT_EQ(Interp.TrapMessage, Jit.TrapMessage) << Label;
  EXPECT_EQ((int)Interp.Cause, (int)Jit.Cause) << Label;
  EXPECT_EQ(Interp.HasResult, Jit.HasResult) << Label;
  EXPECT_EQ(Interp.ResultBits, Jit.ResultBits) << Label;
  EXPECT_EQ(Interp.Output, Jit.Output) << Label;
  EXPECT_EQ(Interp.Counters.Instrs, Jit.Counters.Instrs) << Label;
  EXPECT_EQ(Interp.Counters.Calls, Jit.Counters.Calls) << Label;
  EXPECT_EQ(Interp.Counters.VirtualCalls, Jit.Counters.VirtualCalls)
      << Label;
  EXPECT_EQ(Interp.Counters.IndirectCalls, Jit.Counters.IndirectCalls)
      << Label;
  EXPECT_EQ(Interp.Counters.FusedExecuted, Jit.Counters.FusedExecuted)
      << Label;
  EXPECT_EQ(Interp.Counters.HeapObjects, Jit.Counters.HeapObjects)
      << Label;
  EXPECT_EQ(Interp.Counters.HeapArrays, Jit.Counters.HeapArrays) << Label;
  EXPECT_EQ(Interp.Heap.MinorCollections, Jit.Heap.MinorCollections)
      << Label;
  EXPECT_EQ(Interp.Heap.MajorCollections, Jit.Heap.MajorCollections)
      << Label;
}

/// Runs \p Source under both tiers and checks invisibility; returns
/// the JIT-tier result for follow-up stat assertions.
VmResult differential(const std::string &Source, VmOptions JitOpts,
                      const std::string &Label, uint64_t MaxInstrs = 0,
                      CompilerOptions CO = CompilerOptions()) {
  auto P = compileOk(Source, CO);
  EXPECT_NE(P, nullptr);
  if (!P)
    return VmResult();
  VmOptions Off = jitOff();
  Off.NurseryBytes = JitOpts.NurseryBytes;
  Off.Generational = JitOpts.Generational;
  Vm VI(P->bytecode(), Off);
  if (MaxInstrs)
    VI.setMaxInstrs(MaxInstrs);
  VmResult RI = VI.run();
  Vm VJ(P->bytecode(), JitOpts);
  if (MaxInstrs)
    VJ.setMaxInstrs(MaxInstrs);
  VmResult RJ = VJ.run();
  expectTierInvisible(RI, RJ, Label);
  EXPECT_FALSE(RI.Jit.Enabled) << Label;
  return RJ;
}

//===----------------------------------------------------------------------===//
// Hotness tiering
//===----------------------------------------------------------------------===//

const char *kHotLoop = R"(
def work(n: int) -> int {
  var s = 0;
  for (i = 0; i < n; i = i + 1) s = s + i * 3 - (s / 7);
  return s;
}
def main() -> int {
  var acc = 0;
  for (r = 0; r < 200; r = r + 1) acc = acc + work(50);
  return acc % 100000;
}
)";

TEST(JitTest, TierUpAtThreshold) {
  // Optimizer off so `work` stays an out-of-line function instead of
  // inlining into main — the test wants two distinct hot functions.
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  VmResult R = differential(kHotLoop, jitOn(4), "threshold4", 0, NoOpt);
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  ASSERT_TRUE(R.Jit.Enabled);
  // `work` is called 200 times and `main` runs 200 back-edges: both
  // cross a threshold of 4 and must be compiled exactly once.
  EXPECT_EQ(R.Jit.Compiles, 2u);
  EXPECT_EQ(R.Jit.CompileFailures, 0u);
  EXPECT_GE(R.Jit.Enters, 1u);
  EXPECT_GT(R.Jit.CodeBytes, 0u);
}

TEST(JitTest, ColdFunctionsNeverCompile) {
  // A threshold higher than any counter this program can reach: the
  // tier is live but nothing ever gets hot.
  VmResult R = differential(kHotLoop, jitOn(1u << 30), "cold");
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  ASSERT_TRUE(R.Jit.Enabled);
  EXPECT_EQ(R.Jit.Compiles, 0u);
  EXPECT_EQ(R.Jit.Enters, 0u);
}

TEST(JitTest, OsrEntersAtLoopBackEdge) {
  // All the heat is one loop inside main: the only way into native
  // code is an on-stack-replacement entry at the back-edge (there is
  // no second call to main to catch).
  const char *Source = R"(
def main() -> int {
  var s = 0;
  for (i = 0; i < 10000; i = i + 1) s = s + i % 13;
  return s % 1000;
}
)";
  VmResult R = differential(Source, jitOn(16), "osr");
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_GE(R.Jit.Compiles, 1u);
  EXPECT_GE(R.Jit.OsrEntries, 1u);
}

TEST(JitTest, ThresholdZeroCompilesOnFirstExecution) {
  VmResult R = differential(kHotLoop, jitOn(0), "threshold0");
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_GE(R.Jit.Compiles, 1u);
  EXPECT_GE(R.Jit.Enters, 1u);
}

//===----------------------------------------------------------------------===//
// Deopt: traps, fuel, and GC inside compiled frames
//===----------------------------------------------------------------------===//

TEST(JitTest, TrapsInsideCompiledCodeMatchInterpreter) {
  // Each program faults only after its loop is hot, so the trap fires
  // from inside native code; diagnostics and the exact instruction
  // count must match the interpreter.
  const char *Faults[] = {
      // null dereference
      R"(
class C { var v: int; new(v) { } }
def main() -> int {
  var c = C.new(1);
  var s = 0;
  for (i = 0; i < 500; i = i + 1) {
    if (i == 400) c = null;
    s = s + c.v;
  }
  return s;
}
)",
      // array bounds
      R"(
def main() -> int {
  var a = Array<int>.new(10);
  var s = 0;
  for (i = 0; i < 500; i = i + 1) {
    var k = i % 10;
    if (i >= 400) k = 99;
    s = s + a[k];
  }
  return s;
}
)",
      // division by zero
      R"(
def main() -> int {
  var s = 1;
  for (i = 0; i < 500; i = i + 1) s = s + i / (400 - i);
  return s;
}
)",
      // failed downcast
      R"(
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 2; } }
class C extends A { def m() -> int { return 3; } }
def main() -> int {
  var s = 0;
  for (i = 0; i < 500; i = i + 1) {
    var x: A = B.new();
    if (i >= 400) x = C.new();
    s = s + B.!(x).m();
  }
  return s;
}
)",
  };
  int Idx = 0;
  for (const char *Source : Faults) {
    VmResult R = differential(Source, jitOn(8),
                              "fault" + std::to_string(Idx));
    if (!R.Jit.Available)
      GTEST_SKIP() << "host cannot map executable code";
    EXPECT_TRUE(R.Trapped) << Idx;
    EXPECT_GE(R.Jit.Compiles, 1u) << Idx;
    ++Idx;
  }
}

TEST(JitTest, FuelExhaustionIsExactAcrossTiers) {
  // The budget runs out deep inside compiled code; the fuel check is
  // amortized to calls and back-edges but the count it checks is
  // exact, so both tiers report the same Instrs and the same trap.
  VmResult R = differential(kHotLoop, jitOn(0), "fuel", /*MaxInstrs=*/20000);
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_TRUE(R.Trapped);
  EXPECT_EQ((int)R.Cause, (int)VmTrapCause::Fuel);
  EXPECT_NE(R.TrapMessage.find("instruction budget"), std::string::npos);
}

TEST(JitTest, GcInsideCompiledFramesDeopts) {
  // A 4 KiB nursery forces collections from allocations issued by
  // native code; every GC that moves the heap deopts the compiled
  // frame, and the GC schedule itself must stay tier-invariant.
  const char *Source = R"(
class Node { var v: int; var next: Node; new(v, next) { } }
def main() -> int {
  var keep = Node.new(0, null);
  var acc = 0;
  for (i = 1; i < 3000; i = i + 1) {
    var n = Node.new(i, keep);
    if (i % 11 == 0) keep = n;
    var junk = Array<int>.new(8);
    junk[0] = i;
    acc = acc + n.v + junk[0] % 5;
  }
  return acc % 100000;
}
)";
  VmOptions O = jitOn(0);
  O.Generational = true; // Not the process default under VIRGIL_VM_GC.
  O.NurseryBytes = 4 * 1024;
  VmResult R = differential(Source, O, "gc-deopt");
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_GT(R.Heap.MinorCollections, 0u);
  EXPECT_GE(R.Jit.Deopts, 1u)
      << "a moving GC under a compiled frame must deopt";
}

//===----------------------------------------------------------------------===//
// Inline caches
//===----------------------------------------------------------------------===//

TEST(JitTest, AlternatingReceiversRepatchInlineCache) {
  const char *Source = R"(
class A { def m() -> int { return 1; } }
class B extends A { def m() -> int { return 10; } }
def call(a: A) -> int { return a.m(); }
def main() -> int {
  var x: A = A.new();
  var y: A = B.new();
  var s = 0;
  for (i = 0; i < 200; i = i + 1) { s = s + call(x); s = s + call(y); }
  return s;
}
)";
  // Optimizer off so `call` is not inlined into two monomorphic
  // sites: the test needs one shared virtual site that alternates.
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  VmResult R = differential(Source, jitOn(8), "ic-repatch", 0, NoOpt);
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_EQ(R.ResultBits, 2200);
  // The site flips class on every dispatch: it repatches until the
  // cap and then goes megamorphic rather than patching forever.
  EXPECT_GE(R.Jit.IcPatches, 1u);
  EXPECT_GE(R.Jit.IcMegamorphic, 1u);
}

TEST(JitTest, MegamorphicSiteStaysCorrect) {
  // Nine receiver classes rotate through one call site — far past the
  // patch cap. The site must fall back to the vtable and still
  // produce interpreter-identical results.
  const char *Source = R"(
class A0 { def m() -> int { return 0; } }
class A1 extends A0 { def m() -> int { return 1; } }
class A2 extends A0 { def m() -> int { return 2; } }
class A3 extends A0 { def m() -> int { return 3; } }
class A4 extends A0 { def m() -> int { return 4; } }
class A5 extends A0 { def m() -> int { return 5; } }
class A6 extends A0 { def m() -> int { return 6; } }
class A7 extends A0 { def m() -> int { return 7; } }
class A8 extends A0 { def m() -> int { return 8; } }
def pick(i: int) -> A0 {
  var k = i % 9;
  if (k == 0) return A0.new();
  if (k == 1) return A1.new();
  if (k == 2) return A2.new();
  if (k == 3) return A3.new();
  if (k == 4) return A4.new();
  if (k == 5) return A5.new();
  if (k == 6) return A6.new();
  if (k == 7) return A7.new();
  return A8.new();
}
def main() -> int {
  var s = 0;
  for (i = 0; i < 450; i = i + 1) s = s + pick(i).m();
  return s;
}
)";
  VmResult R = differential(Source, jitOn(8), "megamorphic");
  if (!R.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";
  EXPECT_EQ(R.ResultBits, 1800);
  EXPECT_GE(R.Jit.IcMegamorphic, 1u);
}

//===----------------------------------------------------------------------===//
// Host fallback
//===----------------------------------------------------------------------===//

TEST(JitTest, SimulatedUnsupportedHostRunsInterpreted) {
  ::setenv("VIRGIL_VM_JIT_SIMULATE_UNSUPPORTED", "1", 1);
  auto P = compileOk(kHotLoop);
  ASSERT_NE(P, nullptr);
  Vm V(P->bytecode(), jitOn(0));
  VmResult R = V.run();
  ::unsetenv("VIRGIL_VM_JIT_SIMULATE_UNSUPPORTED");
  EXPECT_FALSE(R.Jit.Available);
  EXPECT_FALSE(R.Jit.Enabled);
  EXPECT_EQ(R.Jit.Compiles, 0u);
  EXPECT_EQ(R.Jit.Enters, 0u);
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  // ... and the interpreted run still agrees with an explicit
  // JIT-off run.
  Vm VOff(P->bytecode(), jitOff());
  VmResult ROff = VOff.run();
  expectTierInvisible(ROff, R, "simulated-unsupported");
}

//===----------------------------------------------------------------------===//
// Warm reuse: compiled code survives the pool-reset protocol
//===----------------------------------------------------------------------===//

TEST(JitTest, CompiledCodeSurvivesResetAndStaysInvisible) {
  auto P = compileOk(kHotLoop);
  ASSERT_NE(P, nullptr);
  Vm Fresh(P->bytecode(), jitOn(8));
  VmResult Ref = Fresh.run();
  if (!Ref.Jit.Available)
    GTEST_SKIP() << "host cannot map executable code";

  Vm Reused(P->bytecode(), jitOn(8));
  Reused.snapshotForReuse();
  VmResult First = Reused.run();
  expectTierInvisible(Ref, First, "jit-reuse/first");
  EXPECT_EQ(First.Jit.Compiles, Ref.Jit.Compiles);
  ASSERT_TRUE(Reused.resetForReuse());
  VmResult Again = Reused.run();
  expectTierInvisible(Ref, Again, "jit-reuse/again");
  // Per-run deltas: the warm run recompiles nothing, it only enters.
  EXPECT_EQ(Again.Jit.Compiles, 0u);
  EXPECT_EQ(Again.Jit.CodeBytes, 0u);
  EXPECT_GE(Again.Jit.Enters, 1u);
}

} // namespace
