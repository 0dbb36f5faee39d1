//===- tests/FuzzerTest.cpp - Differential fuzzing subsystem tests --------===//
///
/// \file
/// Covers the three fuzzing layers: the random-program grammar and its
/// GenConfig feature gates, the four-strategy DifferentialOracle's
/// outcome classification, and the delta-debugging Reducer (including
/// a fixture-checked minimal form for a known-interesting program).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "corpus/Generators.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"

#include <gtest/gtest.h>

using namespace virgil;
using namespace virgil::fuzz;

namespace {

//===----------------------------------------------------------------------===//
// Generator: determinism and feature gates
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, DeterministicPerSeedAndConfig) {
  corpus::GenConfig Config;
  EXPECT_EQ(corpus::genRandomProgram(7, Config),
            corpus::genRandomProgram(7, Config));
  EXPECT_NE(corpus::genRandomProgram(7, Config),
            corpus::genRandomProgram(8, Config));
  // The single-argument overload is the default config.
  EXPECT_EQ(corpus::genRandomProgram(7), corpus::genRandomProgram(7, Config));
}

/// Each GenConfig flag gates a named construct: present across a seed
/// sweep when enabled, absent from every program when disabled.
struct FeatureGate {
  const char *Name;
  bool corpus::GenConfig::*Flag;
  const char *Marker;
};

// Names the gate in test listings; gtest's default byte dump would put
// the pointer fields, which vary from run to run, into each test's ID.
void PrintTo(const FeatureGate &G, std::ostream *OS) { *OS << G.Name; }

class FuzzGeneratorGates : public ::testing::TestWithParam<FeatureGate> {};

TEST_P(FuzzGeneratorGates, MarkerFollowsFlag) {
  const FeatureGate &Gate = GetParam();
  corpus::GenConfig On;
  corpus::GenConfig Off;
  Off.*(Gate.Flag) = false;

  bool SeenOn = false;
  for (uint32_t Seed = 1; Seed <= 10; ++Seed) {
    std::string WithFeature = corpus::genRandomProgram(Seed, On);
    std::string Without = corpus::genRandomProgram(Seed, Off);
    SeenOn |= WithFeature.find(Gate.Marker) != std::string::npos;
    EXPECT_EQ(Without.find(Gate.Marker), std::string::npos)
        << Gate.Name << " disabled but '" << Gate.Marker
        << "' still emitted at seed " << Seed;
  }
  EXPECT_TRUE(SeenOn) << Gate.Name << " enabled but '" << Gate.Marker
                      << "' never emitted in 10 seeds";
}

INSTANTIATE_TEST_SUITE_P(
    AllFlags, FuzzGeneratorGates,
    ::testing::Values(
        FeatureGate{"virtual-dispatch", &corpus::GenConfig::VirtualDispatch,
                    "WeightedCell"},
        FeatureGate{"nested-tuples", &corpus::GenConfig::NestedTuples,
                    "class Grid"},
        FeatureGate{"higher-order", &corpus::GenConfig::HigherOrder,
                    "def hof"},
        FeatureGate{"deep-generics", &corpus::GenConfig::DeepGenerics,
                    "Box<Box<Box<int>>>"},
        FeatureGate{"operator-values", &corpus::GenConfig::OperatorValues,
                    "int.=="},
        FeatureGate{"cast-chains", &corpus::GenConfig::CastChains,
                    "def classify"},
        FeatureGate{"loops", &corpus::GenConfig::Loops, "for ("}),
    [](const ::testing::TestParamInfo<FeatureGate> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(FuzzGenerator, SummaryListsEnabledFlags) {
  corpus::GenConfig Config;
  EXPECT_NE(Config.summary().find("nested-tuples"), std::string::npos);
  Config.NestedTuples = false;
  EXPECT_EQ(Config.summary().find("nested-tuples"), std::string::npos);
  EXPECT_NE(Config.summary().find("cast-chains"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Oracle: outcome classification
//===----------------------------------------------------------------------===//

TEST(FuzzOracle, AgreesAcrossSeedRange) {
  DifferentialOracle Oracle;
  for (uint32_t Seed = 1; Seed <= 20; ++Seed) {
    OracleReport Report = Oracle.check(corpus::genRandomProgram(Seed));
    EXPECT_EQ(Report.Kind, Outcome::Agree)
        << "seed " << Seed << ": " << Report.Detail << Report.CompileError;
    // Four strategies, each optimized and unoptimized.
    EXPECT_EQ(Report.Runs.size(), 8u);
  }
}

TEST(FuzzOracle, AgreesWithReducedFeatureConfigs) {
  DifferentialOracle Oracle;
  corpus::GenConfig Minimal;
  Minimal.VirtualDispatch = Minimal.NestedTuples = Minimal.HigherOrder =
      Minimal.DeepGenerics = Minimal.OperatorValues = Minimal.CastChains =
          false;
  for (uint32_t Seed = 1; Seed <= 10; ++Seed) {
    OracleReport Report = Oracle.check(corpus::genRandomProgram(Seed, Minimal));
    EXPECT_EQ(Report.Kind, Outcome::Agree) << "seed " << Seed;
  }
}

TEST(FuzzOracle, ClassifiesCompileError) {
  DifferentialOracle Oracle;
  OracleReport Report =
      Oracle.check("def main() -> int { return undefined_name; }");
  EXPECT_EQ(Report.Kind, Outcome::CompileError);
  EXPECT_FALSE(Report.CompileError.empty());
  EXPECT_TRUE(Report.Runs.empty());
}

TEST(FuzzOracle, ClassifiesTimeout) {
  OracleConfig Config;
  Config.MaxInstrs = 10'000;
  DifferentialOracle Oracle(Config);
  OracleReport Report = Oracle.check(
      "def main() -> int { var i = 0; while (true) { i = i + 1; } "
      "return i; }");
  EXPECT_EQ(Report.Kind, Outcome::Timeout);
}

TEST(FuzzOracle, SharedTrapIsAgreement) {
  DifferentialOracle Oracle;
  OracleReport Report = Oracle.check(
      "def main() -> int { var z = 0; return 1 / z; }");
  EXPECT_EQ(Report.Kind, Outcome::Agree) << Report.Detail;
  ASSERT_FALSE(Report.Runs.empty());
  for (const StrategyRun &Run : Report.Runs) {
    EXPECT_TRUE(Run.Trapped) << Run.Name;
    EXPECT_EQ(Run.TrapMessage.substr(0, 16), "division by zero") << Run.Name;
  }
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

/// Predicate used by the fixture test: the program compiles and every
/// strategy traps with division by zero. This stands in for a real
/// divergence predicate (which needs a live compiler bug) while
/// exercising the same machinery — Reducer::sameOutcome is just
/// another Predicate over oracle reports.
Reducer::Predicate divByZeroEverywhere() {
  static DifferentialOracle Oracle;
  return [](const std::string &Source) {
    OracleReport Report = Oracle.check(Source);
    if (Report.Kind != Outcome::Agree || Report.Runs.empty())
      return false;
    for (const StrategyRun &Run : Report.Runs)
      if (!Run.Trapped ||
          Run.TrapMessage.substr(0, 16) != "division by zero")
        return false;
    return true;
  };
}

/// A deliberately noisy program whose only interesting part is the
/// division by zero buried in helper2.
const char *NoisyDivByZero = R"(
class Counter {
  var count: int;
  new(count) {}
  def bump(n: int) -> int {
    count = count + n;
    return count;
  }
}
def helper1(a: int, b: int) -> int {
  var t = (a, b);
  return t.0 * t.1 + a;
}
def helper2(x: int) -> int {
  var z = x - x;
  return 100 / z;
}
def helper3(x: int) -> int {
  var c = Counter.new(x);
  var i = 0;
  for (i = 0; i < 4; i = i + 1) c.bump(i);
  return c.count;
}
def main() -> int {
  var acc = 0;
  acc = acc + helper1(3, 4);
  acc = acc + helper3(2);
  acc = acc + helper2(7);
  return acc;
}
)";

TEST(FuzzReducer, ShrinksToFixtureMinimalForm) {
  Reducer R(divByZeroEverywhere());
  ReduceStats Stats;
  std::string Reduced = R.reduce(NoisyDivByZero, &Stats);

  // The minimal form keeps exactly the trap and the call that reaches
  // it; everything else (Counter, the other helpers, the accumulator)
  // is gone and all remaining operands are literal zeros.
  EXPECT_EQ(Reduced,
            "\n"
            "def helper2(x: int) -> int\n"
            "  {\n"
            "    return (0 / 0);\n"
            "  }\n"
            "def main() -> int\n"
            "  {\n"
            "    helper2(0);\n"
            "    return 0;\n"
            "  }");
  EXPECT_GT(Stats.Rounds, 0u);
  EXPECT_GT(Stats.Accepted, 0u);
  EXPECT_LT(Reduced.size(), std::string(NoisyDivByZero).size() / 3);
}

TEST(FuzzReducer, DeterministicAcrossRuns) {
  Reducer R(divByZeroEverywhere());
  EXPECT_EQ(R.reduce(NoisyDivByZero), R.reduce(NoisyDivByZero));
}

TEST(FuzzReducer, ReturnsInputWhenPredicateFailsOnIt) {
  Reducer R([](const std::string &) { return false; });
  ReduceStats Stats;
  std::string Input = "def main() -> int { return 1; }";
  EXPECT_EQ(R.reduce(Input, &Stats), Input);
  EXPECT_EQ(Stats.Accepted, 0u);
}

TEST(FuzzReducer, PreservesOutcomeClassViaSameOutcome) {
  // sameOutcome(oracle, Agree) accepts any still-agreeing shrink, so
  // reduction of a healthy program must yield another healthy one.
  DifferentialOracle Oracle;
  Reducer R(Reducer::sameOutcome(Oracle, Outcome::Agree));
  std::string Reduced = R.reduce(corpus::genRandomProgram(3));
  EXPECT_EQ(Oracle.check(Reduced).Kind, Outcome::Agree);
  EXPECT_LT(Reduced.size(), corpus::genRandomProgram(3).size());
}

//===----------------------------------------------------------------------===//
// Fuzzer driver
//===----------------------------------------------------------------------===//

TEST(FuzzDriver, CleanSweepProducesCleanSummary) {
  FuzzOptions Options;
  Options.Seeds = 25;
  FuzzSummary Summary = Fuzzer(Options).run();
  EXPECT_TRUE(Summary.clean());
  EXPECT_EQ(Summary.SeedsRun, 25u);
  EXPECT_EQ(Summary.Agreements, 25u);
  EXPECT_NE(Summary.toJson().find("\"divergences\":0"), std::string::npos);
}

TEST(FuzzDriver, StartSeedOffsetsTheSweep) {
  FuzzOptions Options;
  Options.Seeds = 5;
  Options.StartSeed = 1000;
  FuzzSummary Summary = Fuzzer(Options).run();
  EXPECT_TRUE(Summary.clean());
  EXPECT_EQ(Summary.SeedsRun, 5u);
}

//===----------------------------------------------------------------------===//
// Execution engine under fuzzing: the prepared VM (fusion + inline
// caches + threaded dispatch) must be invisible to the oracle.
//===----------------------------------------------------------------------===//

// The VM leg of every oracle run executes prepared code, so a clean
// wide sweep is the engine's end-to-end differential check against
// the three interpreter strategies.
TEST(FuzzDriver, PreparedVmSweepIsClean) {
  FuzzOptions Options;
  Options.Seeds = 200;
  Options.Reduce = false; // Reduction never fires on a clean sweep.
  FuzzSummary Summary = Fuzzer(Options).run();
  EXPECT_TRUE(Summary.clean()) << Summary.toJson();
  EXPECT_EQ(Summary.SeedsRun, 200u);
}

// GC-stress sweep: same 200 seeds, but the VM strategy runs with a
// 4 KiB nursery so nearly every allocation-bearing program performs
// minor collections mid-run. The interpreters remain the reference,
// so any barrier or promotion bug shows up as a divergence.
TEST(FuzzDriver, TinyNurserySweepIsClean) {
  FuzzOptions Options;
  Options.Seeds = 200;
  Options.Reduce = false;
  Options.Oracle.Vm.Generational = true;
  Options.Oracle.Vm.NurseryBytes = 4096;
  FuzzSummary Summary = Fuzzer(Options).run();
  EXPECT_TRUE(Summary.clean()) << Summary.toJson();
  EXPECT_EQ(Summary.SeedsRun, 200u);
}

// Axis sweeps: 200 seeds with the oracle legs of one FeatureAxes row
// selected (core/FeatureAxis.h), then of every compile axis together,
// then of every axis with legs together. A divergence in value, output,
// trap diagnostic, or a VM leg's instruction count breaks that axis's
// invisibility contract: share (src/mono/ShareSpecializations.h),
// escape (src/opt/Escape.h), ssa (src/ssa/Ssa.h, strict-SSA
// verification armed), jit (DESIGN.md §15; on hosts without the JIT
// the legs run interpreted and still check cleanly), pool
// (src/exec/VmPool.h). These are the fuzz-strength backstops behind
// each axis flag and its CI stress-matrix entry.
struct AxisSweep {
  std::string Name;
  AxisSet Axes;
};

void PrintTo(const AxisSweep &S, std::ostream *OS) { *OS << S.Name; }

std::vector<AxisSweep> axisSweeps() {
  std::vector<AxisSweep> Sweeps;
  AxisSet Compile = 0, All = 0;
  for (const FeatureAxis &A : FeatureAxes) {
    if (A.Leg == AxisLeg::None)
      continue;
    Sweeps.push_back({A.Name, axisBit(A.Id)});
    if (A.Leg != AxisLeg::Vm)
      Compile |= axisBit(A.Id);
    All |= axisBit(A.Id);
  }
  Sweeps.push_back({"compile_axes", Compile});
  Sweeps.push_back({"all_axes", All});
  return Sweeps;
}

class FuzzAxisSweep : public ::testing::TestWithParam<AxisSweep> {};

TEST_P(FuzzAxisSweep, IsClean) {
  FuzzOptions Options;
  Options.Seeds = 200;
  Options.Reduce = false;
  Options.Oracle.Axes = GetParam().Axes;
  FuzzSummary Summary = Fuzzer(Options).run();
  EXPECT_TRUE(Summary.clean()) << Summary.toJson();
  EXPECT_EQ(Summary.SeedsRun, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    Axes, FuzzAxisSweep, ::testing::ValuesIn(axisSweeps()),
    [](const ::testing::TestParamInfo<AxisSweep> &Info) {
      return Info.param.Name;
    });

// Engine-config differential: the same random programs under switch
// dispatch, threaded dispatch, and the plain (unfused, uncached)
// stream must agree on every observable including the executed
// instruction count.
TEST(FuzzDriver, EngineConfigsAgreeOnRandomPrograms) {
  VmOptions Configs[5];
  Configs[1].Mode = VmOptions::Dispatch::Switch;
  Configs[2].Fuse = false;
  Configs[2].InlineCache = false;
  // GC configurations: the collector must be observationally
  // invisible, so a single-space heap and a tiny 4 KiB nursery (many
  // minor collections per program) must match the reference exactly,
  // including the instruction count.
  Configs[3].Generational = false;
  Configs[4].Generational = true;
  Configs[4].NurseryBytes = 4096;

  int Compiled = 0;
  for (uint32_t Seed = 1; Seed <= 60; ++Seed) {
    Compiler C;
    std::string Error;
    auto P = C.compile("fuzz", corpus::genRandomProgram(Seed), &Error);
    if (!P)
      continue; // The oracle tests classify compile errors.
    ++Compiled;
    VmResult Ref;
    for (int K = 0; K != 5; ++K) {
      Vm V(P->bytecode(), Configs[K]);
      V.setMaxInstrs(2000000); // Random programs may loop forever.
      VmResult R = V.run();
      if (K == 0) {
        Ref = R;
        continue;
      }
      EXPECT_EQ(R.Trapped, Ref.Trapped) << "seed " << Seed;
      EXPECT_EQ(R.TrapMessage, Ref.TrapMessage) << "seed " << Seed;
      EXPECT_EQ(R.ResultBits, Ref.ResultBits) << "seed " << Seed;
      EXPECT_EQ(R.Output, Ref.Output) << "seed " << Seed;
      EXPECT_EQ(R.Counters.Instrs, Ref.Counters.Instrs)
          << "seed " << Seed;
    }
  }
  EXPECT_GT(Compiled, 0);
}

} // namespace
