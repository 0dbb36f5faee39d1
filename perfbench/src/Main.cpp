//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
///
/// \file
/// `perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR
///  --work-dir DIR --virgild PATH [--commit C] [--source-digest D]`
///
/// Runs one workload and prints every metric by name with its unit,
/// the host/mode record, and, as the last line, one JSON object:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
///
/// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
/// traced run that produces the per-layer metrics: it runs the named
/// workload for the full time and the other two for a quarter of it
/// each, so every per-layer name is measured in every traced run, and
/// writes its spans to WORK_DIR/trace-<workload>-<seed>.jsonl.
///
/// Exits 1 when any op failed (compile error, trap, wrong result or
/// output, BUSY, transport error) or an exact count drifted from an
/// earlier run of the same sources (same --source-digest) with the same
/// seed; 2 on usage errors; 3 when a
/// serve_mixed run is invalid because the load generator fell behind.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

using namespace perfbench;

namespace {

struct WorkloadEntry {
  const char *Name;
  WorkloadResult (*Run)(const RunContext &, SpanLog *);
};

const WorkloadEntry kWorkloads[] = {
    {"compile_cold", runCompileCold},
    {"run_hot", runRunHot},
    {"serve_mixed", runServeMixed},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile_cold|run_hot|serve_mixed "
               "--seed N --seconds S --trace 0|1 --root DIR --work-dir DIR "
               "--virgild PATH [--commit C] [--source-digest D]\n");
}

/// Compares this run's exact counts with the ones an earlier run of the
/// same sources, workload and seed recorded in the work dir, then
/// records the union. Returns the names that drifted. The record is
/// keyed by \p Digest, so a change that moves the counts on purpose
/// starts a record of its own, and runs of two source trees can take
/// turns in one work dir.
std::vector<std::string> checkExactDrift(const RunContext &Ctx,
                                         const std::string &Digest,
                                         const char *Workload,
                                         const WorkloadResult &Res) {
  std::string Path = Ctx.WorkDir + "/exact-" + Workload + "-seed" +
                     std::to_string(Ctx.Seed) + "-" + Digest + ".txt";
  std::map<std::string, uint64_t> Known;
  if (auto Text = readFile(Path)) {
    std::istringstream In(*Text);
    std::string Name;
    uint64_t V = 0;
    while (In >> Name >> V)
      Known[Name] = V;
  }
  std::vector<std::string> Drifted;
  for (const auto &[Name, V] : Res.ExactCounts) {
    auto It = Known.find(Name);
    if (It != Known.end() && It->second != V)
      Drifted.push_back(Name + " " + std::to_string(It->second) + " -> " +
                        std::to_string(V));
    Known[Name] = V;
  }
  std::ofstream Out(Path);
  for (const auto &[Name, V] : Known)
    Out << Name << ' ' << V << '\n';
  return Drifted;
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  std::string Workload, Commit = "unknown", Digest = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    if (Flag == "--workload")
      Workload = V;
    else if (Flag == "--seed")
      Ctx.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      Ctx.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      Ctx.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--root")
      Ctx.Root = V;
    else if (Flag == "--work-dir")
      Ctx.WorkDir = V;
    else if (Flag == "--virgild")
      Ctx.Virgild = V;
    else if (Flag == "--commit")
      Commit = V;
    else if (Flag == "--source-digest")
      Digest = V;
    else {
      usage();
      return 2;
    }
  }
  const WorkloadEntry *Primary = nullptr;
  for (const WorkloadEntry &W : kWorkloads)
    if (Workload == W.Name)
      Primary = &W;
  if (!Primary || Ctx.Seconds <= 0 || Ctx.Root.empty() ||
      Ctx.WorkDir.empty() || Ctx.Virgild.empty()) {
    usage();
    return 2;
  }
  ::mkdir(Ctx.WorkDir.c_str(), 0755);
  std::signal(SIGPIPE, SIG_IGN);

  std::string Host = hostRecordJson(Commit, Digest);
  std::printf("host %s\n", Host.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", Primary->Name,
              (unsigned long long)Ctx.Seed, Ctx.Seconds, Ctx.Trace ? 1 : 0);
  std::fflush(stdout);

  SpanLog Spans;
  WorkloadResult Res;
  std::vector<std::string> Drifted;
  auto runOne = [&](const WorkloadEntry &W, double Seconds) {
    RunContext C = Ctx;
    C.Seconds = Seconds;
    WorkloadResult R = W.Run(C, Ctx.Trace ? &Spans : nullptr);
    for (std::string &D : checkExactDrift(Ctx, Digest, W.Name, R))
      Drifted.push_back(std::string(W.Name) + ": " + D);
    Res.absorb(R);
  };
  runOne(*Primary, Ctx.Seconds);
  if (Ctx.Trace)
    for (const WorkloadEntry &W : kWorkloads)
      if (&W != Primary)
        runOne(W, std::max(1.0, Ctx.Seconds / 4));

  if (!Res.Invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", Res.Invalid.c_str());
    return 3;
  }
  for (const std::string &D : Drifted)
    std::fprintf(stderr, "perfbench: exact count drifted: %s\n", D.c_str());
  if (Ctx.Trace) {
    std::string Path = Ctx.WorkDir + "/trace-" + Primary->Name + "-" +
                       std::to_string(Ctx.Seed) + ".jsonl";
    if (!Spans.writeJsonl(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    else
      std::printf("trace %zu spans -> %s\n", Spans.size(), Path.c_str());
  }

  bool Correct = Res.Failed == 0 && Drifted.empty() && Res.Attempted > 0;
  std::printf("failed_frac %.6f ratio (%llu of %llu ops)\n",
              Res.Attempted ? (double)Res.Failed / (double)Res.Attempted : 1.0,
              (unsigned long long)Res.Failed,
              (unsigned long long)Res.Attempted);
  for (const auto &[Name, M] : Res.Metrics)
    std::printf("%-28s %14.6f %s\n", Name.c_str(), M.Value, M.Unit.c_str());

  std::string J = "{\"correct\":";
  J += Correct ? "true" : "false";
  J += ",\"attempted\":" + std::to_string(Res.Attempted);
  J += ",\"failed\":" + std::to_string(Res.Failed);
  J += ",\"metrics\":{";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, M] : Res.Metrics) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    J += (First ? "\"" : ",\"") + Name + "\":{\"value\":" + Buf +
         ",\"unit\":\"" + M.Unit + "\"}";
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return Correct ? 0 : 1;
}
