//===- bench/bench_e9_throughput.cpp - E9: compiler throughput (§5) --------===//
///
/// Paper claim (§5): "Despite its small size (just 25,000 lines of
/// code), the Virgil compiler generates decent quality machine code
/// and compiles very fast."
///
/// This harness measures whole-pipeline throughput (parse -> sema ->
/// lower -> mono -> opt -> normalize -> opt -> bytecode) on generated
/// programs of increasing size and reports lines/second plus the
/// per-stage instruction inventory. Expected shape: throughput is
/// roughly flat across program sizes (near-linear compilation).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Generators.h"

#include <chrono>
#include <cstdio>

using namespace virgil;
using namespace virgil::bench;

static size_t countLines(const std::string &S) {
  size_t N = 1;
  for (char C : S)
    N += C == '\n';
  return N;
}

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E9: compiler throughput (paper §5)",
         "Whole-pipeline compilation speed on programs of increasing "
         "size; near-linear scaling expected.");

  std::printf("%-10s %10s %10s %12s %12s %12s\n", "classes", "lines",
              "runs", "ms/compile", "lines/sec", "norm-instrs");
  double LinesPerSec256 = 0;
  for (int Classes : {4, 16, 64, 128, 256}) {
    std::string Source = corpus::genThroughputProgram(Classes);
    size_t Lines = countLines(Source);
    // Warm up once (also validates the program).
    {
      Compiler C(tableOptions());
      std::string Error;
      auto P = C.compile("warmup", Source, &Error);
      if (!P) {
        std::printf("compile error at %d classes:\n%s\n", Classes,
                    Error.c_str());
        return 1;
      }
    }
    int Runs = Classes <= 64 ? 10 : 4;
    auto Start = std::chrono::steady_clock::now();
    size_t NormInstrs = 0;
    for (int R = 0; R != Runs; ++R) {
      Compiler C(tableOptions());
      std::string Error;
      auto P = C.compile("bench", Source, &Error);
      if (!P)
        return 1;
      NormInstrs = P->stats().NormIr.NumInstrs;
    }
    auto End = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count() /
        Runs;
    std::printf("%-10d %10zu %10d %12.2f %12.0f %12zu\n", Classes, Lines,
                Runs, Ms, Lines / (Ms / 1000.0), NormInstrs);
    if (Classes == 256)
      LinesPerSec256 = Lines / (Ms / 1000.0);
  }

  std::printf("\n-- per-stage breakdown at 64 classes --\n");
  {
    std::string Source = corpus::genThroughputProgram(64);
    using Clock = std::chrono::steady_clock;
    // Stage timings are approximated by toggling pipeline options.
    auto timeIt = [&](CompilerOptions Options) {
      auto Start = Clock::now();
      for (int R = 0; R != 5; ++R) {
        Compiler C(Options);
        std::string Error;
        auto P = C.compile("stage", Source, &Error);
        if (!P)
          std::exit(1);
      }
      return std::chrono::duration<double, std::milli>(Clock::now() -
                                                       Start)
                 .count() /
             5;
    };
    CompilerOptions FrontOnly = tableOptions();
    FrontOnly.StopAfterLower = true;
    double Front = timeIt(FrontOnly);
    CompilerOptions NoOpt = tableOptions();
    NoOpt.Optimize = false;
    double NoOptMs = timeIt(NoOpt);
    double Full = timeIt(tableOptions());
    std::printf("front-end (parse+sema+lower): %8.2f ms\n", Front);
    std::printf("+ mono + normalize + emit:    %8.2f ms\n",
                NoOptMs - Front);
    std::printf("+ optimizer:                  %8.2f ms\n",
                Full - NoOptMs);
    std::printf("= full pipeline:              %8.2f ms\n", Full);
  }
  if (!Opts.JsonPath.empty()) {
    JsonReport J("e9_throughput");
    J.metric("lines_per_sec_256", LinesPerSec256);
    J.write(Opts.JsonPath);
  }
  return 0;
}
