//===- tests/CorpusTest.cpp - Differential tests over the corpus ----------===//
///
/// Every paper-example program must produce its expected result and
/// output under all four execution strategies.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "corpus/Generators.h"
#include "vm/BytecodeSerializer.h"

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

/// The serialized bytecode of one compile of \p Source.
std::string compiledBytes(const std::string &Name, const std::string &Source) {
  Compiler C;
  std::string Error;
  auto P = C.compile(Name, Source, &Error);
  EXPECT_NE(P, nullptr) << Name << ": " << Error;
  return P ? serializeModule(P->bytecode()) : std::string();
}

TEST_P(CorpusTest, CompilesToTheSameBytesTwice) {
  // Scratch containers keyed by pointer or hash must never leak their
  // iteration order into the output: two compiles in one process (with
  // different heap addresses) give the same bytes.
  const corpus::CorpusProgram &P = GetParam();
  EXPECT_EQ(compiledBytes(P.Name, P.Source), compiledBytes(P.Name, P.Source));
}

TEST(CompileDeterminism, GeneratedWorkloadsCompileToTheSameBytesTwice) {
  const std::pair<const char *, std::string> Workloads[] = {
      {"throughput34", corpus::genThroughputProgram(34)},
      {"ssa4x60", corpus::genSsaWorkload(4, 60)},
      {"share4x7", corpus::genShareWorkload(4, 7)},
      {"expansion4x7", corpus::genExpansionWorkload(4, 7)},
  };
  for (const auto &[Name, Source] : Workloads)
    EXPECT_EQ(compiledBytes(Name, Source), compiledBytes(Name, Source))
        << Name;
}

std::string corpusName(
    const ::testing::TestParamInfo<corpus::CorpusProgram> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Paper, CorpusTest,
                         ::testing::ValuesIn(corpus::allPrograms()),
                         corpusName);

} // namespace
