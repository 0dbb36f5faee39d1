//===- tests/CorpusTest.cpp - Differential tests over the corpus ----------===//
///
/// Every paper-example program must produce its expected result and
/// output under all four execution strategies.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"

using namespace virgil;
using namespace virgil::testing;

namespace virgil {
namespace corpus {
// Names the program in test listings; gtest's default byte dump would
// put the pointer fields, which vary from run to run, into each test's ID.
void PrintTo(const CorpusProgram &P, std::ostream *OS) { *OS << P.Name; }
} // namespace corpus
} // namespace virgil

namespace {

class CorpusTest : public ::testing::TestWithParam<corpus::CorpusProgram> {};

TEST_P(CorpusTest, AllStrategiesAgree) {
  const corpus::CorpusProgram &P = GetParam();
  RunOutcome O = runAllStrategies(P.Source);
  ASSERT_FALSE(O.Trapped) << P.Name << ": " << O.TrapMessage;
  EXPECT_EQ(O.Result, P.ExpectedResult) << P.Name;
  EXPECT_EQ(O.Output, P.ExpectedOutput) << P.Name;
}

TEST_P(CorpusTest, UnoptimizedPipelineAgrees) {
  const corpus::CorpusProgram &P = GetParam();
  CompilerOptions Options;
  Options.Optimize = false;
  RunOutcome O = runAllStrategies(P.Source, Options);
  ASSERT_FALSE(O.Trapped) << P.Name << ": " << O.TrapMessage;
  EXPECT_EQ(O.Result, P.ExpectedResult) << P.Name;
  EXPECT_EQ(O.Output, P.ExpectedOutput) << P.Name;
}

std::string corpusName(
    const ::testing::TestParamInfo<corpus::CorpusProgram> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Paper, CorpusTest,
                         ::testing::ValuesIn(corpus::allPrograms()),
                         corpusName);

} // namespace
