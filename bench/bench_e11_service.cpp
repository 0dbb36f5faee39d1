//===- bench/bench_e11_service.cpp - E11: compile service throughput -------===//
///
/// Beyond the paper: the compile service's value proposition. A
/// monomorphizing whole-program compiler pays its cost on every
/// recompilation, so batch throughput scales two ways: worker threads
/// (cold compiles are independent) and the content-addressed bytecode
/// cache (warm compiles skip the entire pipeline and deserialize).
///
/// This harness batch-compiles a mixed corpus (throughput programs,
/// tuple/matcher workloads, random programs) cold (empty cache) and
/// warm (fully populated) at increasing --jobs levels, reports
/// wall-clock, hit rate, and speedup, and emits one JSON line per
/// configuration (the shape scripts and CI consume). Expected shape:
/// cold scales with jobs up to core count; warm is an order of
/// magnitude faster at 100% hit rate regardless of jobs.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/Corpus.h"
#include "corpus/Generators.h"
#include "service/CompileService.h"

#include <cstdio>
#include <filesystem>
#include <unistd.h>

namespace fs = std::filesystem;
using namespace virgil;
using namespace virgil::bench;

static std::vector<CompileJob> buildCorpus() {
  std::vector<CompileJob> Jobs;
  for (int Classes : {4, 8, 16, 32})
    Jobs.push_back({"throughput-" + std::to_string(Classes),
                    corpus::genThroughputProgram(Classes)});
  Jobs.push_back({"tuples-w4", corpus::genTupleWorkload(4, 100)});
  Jobs.push_back({"tuples-w8", corpus::genTupleWorkload(8, 100)});
  Jobs.push_back({"matcher", corpus::genMatcherWorkload(4, 100)});
  Jobs.push_back({"adhoc", corpus::genAdhocWorkload(4, 100, false)});
  Jobs.push_back({"expansion", corpus::genExpansionWorkload(4, 8)});
  for (uint32_t Seed = 1; Seed <= 7; ++Seed)
    Jobs.push_back({"random-" + std::to_string(Seed),
                    corpus::genRandomProgram(Seed)});
  return Jobs;
}

int main(int argc, char **argv) {
  BenchOpts Opts = parseBenchOpts(argc, argv);
  banner("E11: compile service batch throughput (cold vs warm cache)",
         "Parallel batch compilation with a content-addressed bytecode "
         "cache: cold batches scale with worker count, warm batches "
         "skip the whole front-end.");

  std::vector<CompileJob> Jobs = buildCorpus();
  std::string CacheRoot =
      (fs::temp_directory_path() /
       ("virgil-bench-e11-" + std::to_string(::getpid())))
          .string();

  std::printf("%-6s %8s %10s %10s %10s %10s\n", "jobs", "files",
              "cold-ms", "warm-ms", "hit-rate", "speedup");

  struct Row {
    int JobsN;
    double ColdMs, WarmMs, HitPct, Speedup;
    PhaseTimings ColdPhases;
  };
  std::vector<Row> Rows;

  for (int JobsN : {1, 2, 4}) {
    std::string Dir = CacheRoot + "-j" + std::to_string(JobsN);
    fs::remove_all(Dir);
    ServiceOptions O;
    O.Jobs = JobsN;
    O.CacheDir = Dir;
    CompileService Service(O);

    auto Cold = Service.compileBatch(Jobs);
    for (const JobResult &R : Cold)
      if (!R.Ok) {
        std::fprintf(stderr, "E11 compile failed (%s):\n%s\n",
                     R.Name.c_str(), R.Error.c_str());
        return 1;
      }
    BatchStats ColdStats = Service.lastBatchStats();

    Service.compileBatch(Jobs);
    BatchStats WarmStats = Service.lastBatchStats();
    if (WarmStats.Hits != Jobs.size()) {
      std::fprintf(stderr,
                   "E11: warm batch expected %zu hits, got %zu\n",
                   Jobs.size(), WarmStats.Hits);
      return 1;
    }

    Row R{JobsN, ColdStats.WallMs, WarmStats.WallMs,
          WarmStats.hitRatePct(), ColdStats.WallMs / WarmStats.WallMs,
          ColdStats.Phases};
    Rows.push_back(R);
    std::printf("%-6d %8zu %10.2f %10.2f %9.1f%% %9.1fx\n", JobsN,
                Jobs.size(), R.ColdMs, R.WarmMs, R.HitPct, R.Speedup);
    fs::remove_all(Dir);
  }

  std::printf("\n-- cold per-phase breakdown (jobs=1, summed) --\n%s\n",
              countersText(Rows[0].ColdPhases).c_str());
  std::printf("\n-- JSON --\n");
  for (const Row &R : Rows)
    std::printf("{\"experiment\":\"e11_service\",\"jobs\":%d,"
                "\"files\":%zu,\"cold_ms\":%.2f,\"warm_ms\":%.2f,"
                "\"warm_hit_rate_pct\":%.1f,\"speedup\":%.2f}\n",
                R.JobsN, Jobs.size(), R.ColdMs, R.WarmMs, R.HitPct,
                R.Speedup);
  if (!Opts.JsonPath.empty()) {
    JsonReport J("e11_service");
    const Row &Last = Rows.back();
    J.metric("warm_speedup_j4", Last.Speedup);
    J.metric("warm_hit_rate_pct", Last.HitPct);
    J.write(Opts.JsonPath);
  }
  return 0;
}
