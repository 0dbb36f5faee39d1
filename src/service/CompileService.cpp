//===- service/CompileService.cpp -----------------------------------------===//

#include "service/CompileService.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace virgil;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

} // namespace

std::string JobResult::timingsJson() const {
  return "{" + countersJson(Timings) + "," + countersJson(Opt) + "}";
}

std::string BatchStats::toJson(const ServiceOptions &O) const {
  char Head[256], Tail[64];
  std::snprintf(Head, sizeof(Head),
                "{\"jobs\":%d,\"files\":%zu,\"ok\":%zu,\"failed\":%zu,"
                "\"hits\":%zu,\"misses\":%zu,\"hit_rate_pct\":%.1f,",
                O.Jobs, Jobs, Succeeded, Failed, Hits, Misses, hitRatePct());
  std::snprintf(Tail, sizeof(Tail), ",\"share_ratio\":%.2f,\"wall_ms\":%.2f}",
                Share.shareRatio(), WallMs);
  return Head + axisFlags(O.Compile, ~AxisSet(0), /*Json=*/true) + "," +
         countersJson(Share) + "," + countersJson(Opt) + "," +
         countersJson(Phases) + Tail;
}

VmResult CompiledUnit::runVm() {
  Vm V(bytecode());
  return V.run();
}

CompileService::CompileService(ServiceOptions Options)
    : Options(std::move(Options)) {
  if (!this->Options.CacheDir.empty()) {
    Cache = std::make_unique<BytecodeCache>(
        this->Options.CacheDir, this->Options.CacheFormatVersion);
    Cache->setMaxBytes(this->Options.CacheMaxBytes);
  }
}

CompileService::~CompileService() = default;

JobResult CompileService::compileOne(const CompileJob &Job) {
  JobResult R;
  R.Name = Job.Name;
  auto Start = Clock::now();

  uint64_t Key = 0;
  if (Cache) {
    Key = Cache->keyFor(Job.Source, Options.Compile);
    if (auto L = Cache->load(Key)) {
      R.Ok = true;
      R.CacheHit = true;
      R.Unit = std::make_unique<CompiledUnit>(std::move(L));
      R.Ms = msSince(Start);
      return R;
    }
  }

  Compiler C(Options.Compile);
  std::string Error;
  auto P = C.compile(Job.Name, Job.Source, &Error);
  if (!P) {
    R.Error = std::move(Error);
    R.Ms = msSince(Start);
    return R;
  }
  R.Timings = P->stats().Timings;
  R.MonoExpansion = P->stats().Mono.functionExpansion();
  R.Share = P->stats().Share;
  R.Opt = P->stats().OptAfterMono;
  R.Opt += P->stats().OptAfterNorm;
  if (Cache && P->hasBytecode())
    Cache->store(Key, P->bytecode());
  R.Ok = true;
  R.Unit = std::make_unique<CompiledUnit>(std::move(P));
  R.Ms = msSince(Start);
  return R;
}

std::vector<JobResult>
CompileService::compileBatch(const std::vector<CompileJob> &Jobs) {
  std::vector<JobResult> Results(Jobs.size());
  auto Start = Clock::now();

  size_t Want = Options.Jobs > 0
                    ? (size_t)Options.Jobs
                    : std::max(1u, std::thread::hardware_concurrency());
  size_t NumWorkers = std::max<size_t>(1, std::min(Want, Jobs.size()));

  // Dynamic work-stealing by index: each worker claims the next
  // unclaimed job. Results are slotted by index, so scheduling order
  // never affects the batch outcome.
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Jobs.size())
        return;
      Results[I] = compileOne(Jobs[I]);
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(NumWorkers - 1);
  for (size_t T = 1; T < NumWorkers; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();

  BatchStats S;
  S.Jobs = Jobs.size();
  S.WallMs = msSince(Start);
  for (const JobResult &R : Results) {
    (R.Ok ? S.Succeeded : S.Failed)++;
    if (Cache)
      (R.CacheHit ? S.Hits : S.Misses)++;
    S.TotalJobMs += R.Ms;
    S.Phases += R.Timings;
    S.Share += R.Share;
    S.Opt += R.Opt;
  }
  LastBatch = S;
  return Results;
}
