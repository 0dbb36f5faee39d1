//===- tests/PropertyTest.cpp - Parameterized invariant sweeps -------------===//
///
/// Property-style tests (TEST_P sweeps): pipeline invariants hold for
/// families of generated programs, and normalization/monomorphization
/// preserve semantics by construction.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Generators.h"
#include "ir/IrStats.h"
#include "ir/IrVerifier.h"

using namespace virgil;
using namespace virgil::testing;

namespace {

//===----------------------------------------------------------------------===//
// Tuple widths: flattening preserves behaviour for any width.
//===----------------------------------------------------------------------===//

class TupleWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(TupleWidthTest, SemanticsPreservedAcrossPipeline) {
  int Width = GetParam();
  std::string Source = corpus::genTupleWorkload(Width, 25);
  RunOutcome O = runAllStrategies(Source);
  EXPECT_FALSE(O.Trapped) << O.TrapMessage;
  // And the normalized module contains no tuple operations at all.
  auto P = compileOk(Source);
  EXPECT_EQ(computeStats(P->normIr()).NumTupleOps, 0u);
  EXPECT_TRUE(verifyModule(P->normIr()).empty());
}

INSTANTIATE_TEST_SUITE_P(Widths, TupleWidthTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

//===----------------------------------------------------------------------===//
// Ad-hoc dispatch: for any case count, the specialized chain matches
// the direct call and folds completely.
//===----------------------------------------------------------------------===//

class AdhocCasesTest : public ::testing::TestWithParam<int> {};

TEST_P(AdhocCasesTest, ChainEqualsDirectAndFolds) {
  int Cases = GetParam();
  RunOutcome Chain =
      runAllStrategies(corpus::genAdhocWorkload(Cases, 50, false));
  RunOutcome Direct =
      runAllStrategies(corpus::genAdhocWorkload(Cases, 50, true));
  ASSERT_FALSE(Chain.Trapped);
  EXPECT_EQ(Chain.Result, Direct.Result);
  CompilerOptions Ssa; // Folding is SCCP's job.
  Ssa.Opt.Ssa = true;
  auto P = compileOk(corpus::genAdhocWorkload(Cases, 50, false), Ssa);
  EXPECT_EQ(P->stats().MonoIr.NumCasts, 0u)
      << "every query folds after specialization (§3.3)";
}

INSTANTIATE_TEST_SUITE_P(Cases, AdhocCasesTest,
                         ::testing::Values(1, 2, 3, 5, 8));

//===----------------------------------------------------------------------===//
// Matcher handlers: dispatch succeeds for any handler count.
//===----------------------------------------------------------------------===//

class MatcherTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherTest, DispatchFindsHandlers) {
  RunOutcome O = runAllStrategies(
      corpus::genMatcherWorkload(GetParam(), /*Iters=*/10));
  ASSERT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_GT(O.Result, 0) << "handlers must have fired";
}

INSTANTIATE_TEST_SUITE_P(Handlers, MatcherTest,
                         ::testing::Values(1, 2, 4, 6));

//===----------------------------------------------------------------------===//
// Expansion scaling: specializations scale with distinct
// instantiations, and dead generics never specialize.
//===----------------------------------------------------------------------===//

class ExpansionTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ExpansionTest, SpecializationCountsScale) {
  auto [Generics, Insts] = GetParam();
  std::string Source = corpus::genExpansionWorkload(Generics, Insts);
  CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  auto P = compileOk(Source, NoOpt);
  ASSERT_NE(P, nullptr);
  const MonoStats &S = P->stats().Mono;
  for (int G = 0; G != Generics; ++G) {
    auto It = S.SpecsPerFunction.find("gen" + std::to_string(G));
    ASSERT_NE(It, S.SpecsPerFunction.end());
    EXPECT_GE(It->second, 1u);
    EXPECT_LE(It->second, (size_t)Insts);
  }
  RunOutcome O = runAllStrategies(Source, NoOpt);
  EXPECT_FALSE(O.Trapped);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExpansionTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 6),
                      std::make_pair(3, 4), std::make_pair(5, 2)));

//===----------------------------------------------------------------------===//
// GC rounds: the collector preserves semantics under any churn level.
//===----------------------------------------------------------------------===//

class GcRoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(GcRoundsTest, ChurnPreservesResults) {
  std::string Source = corpus::genGcWorkload(GetParam(), 50);
  auto P = compileOk(Source);
  VmResult R = P->runVm();
  ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  // The interpreter (no GC at all) must agree on the result.
  InterpResult I = P->interpret();
  EXPECT_EQ((int)R.ResultBits, I.Result.asInt());
}

INSTANTIATE_TEST_SUITE_P(Rounds, GcRoundsTest,
                         ::testing::Values(1, 8, 64, 256));

//===----------------------------------------------------------------------===//
// Throughput programs: compile+verify across program sizes.
//===----------------------------------------------------------------------===//

class ProgramSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ProgramSizeTest, LargeProgramsCompileAndVerify) {
  auto P = compileOk(corpus::genThroughputProgram(GetParam()));
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(verifyModule(P->polyIr()).empty());
  EXPECT_TRUE(verifyModule(P->monoIr()).empty());
  EXPECT_TRUE(verifyModule(P->normIr()).empty());
  VmResult R = P->runVm();
  EXPECT_FALSE(R.Trapped);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProgramSizeTest,
                         ::testing::Values(1, 8, 32, 64));

//===----------------------------------------------------------------------===//
// Equality laws hold for a family of value shapes across all engines.
//===----------------------------------------------------------------------===//

class EqualityLawTest : public ::testing::TestWithParam<const char *> {};

TEST_P(EqualityLawTest, ReflexiveAndSymmetric) {
  // For each value expression E: E == E, and (E == E2) == (E2 == E).
  std::string Expr = GetParam();
  // Build: var a = <expr>; var b = <expr>; check the laws.
  std::string Program = R"(
class K { var v: int; new(v) { } }
def main() -> int {
  var a = )" + Expr + R"(;
  var b = )" + Expr + R"(;
  var r = 0;
  if (a == a) r = r + 1;
  if ((a == b) == (b == a)) r = r + 10;
  return r;
}
)";
  RunOutcome O = runAllStrategies(Program);
  ASSERT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Result, 11) << Expr;
}

INSTANTIATE_TEST_SUITE_P(
    Values, EqualityLawTest,
    ::testing::Values("42", "'z'", "true", "(1, 2)", "((1, 'a'), false)",
                      "K.new(1)", "Array<int>.new(2)", "K.new", "()",
                      "(K.new(1), (2, 3))"));

} // namespace

//===----------------------------------------------------------------------===//
// Differential fuzzing: random type-correct programs must behave
// identically under all four strategies (the strongest preservation
// property for §4.2/§4.3).
//===----------------------------------------------------------------------===//

namespace {

class FuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzTest, AllStrategiesAgreeOnRandomProgram) {
  std::string Source = virgil::corpus::genRandomProgram(GetParam());
  virgil::testing::RunOutcome O =
      virgil::testing::runAllStrategies(Source);
  EXPECT_FALSE(O.Trapped) << "seed " << GetParam() << " trapped: "
                          << O.TrapMessage << "\n"
                          << Source;
  // The optimizer must not change behaviour either.
  virgil::CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  virgil::testing::RunOutcome O2 =
      virgil::testing::runAllStrategies(Source, NoOpt);
  EXPECT_EQ(O.Result, O2.Result) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(1u, 81u));

} // namespace
