//===- service/CompileService.h - Parallel batch compilation ----*- C++ -*-===//
///
/// \file
/// The scaling layer over core/Compiler: a CompileService accepts a
/// batch of independent compile jobs, fans them out across a worker
/// thread pool (each job compiles with its own Compiler/TypeStore, so
/// no cross-job state is shared), and consults a content-addressed
/// BytecodeCache so repeated sources skip the entire front-end and
/// come back as deserialized, runnable modules.
///
/// Determinism: results are indexed by job position, and each job is
/// self-contained, so a batch produces the same per-job outcomes at
/// any --jobs level (only wall-clock changes).
///
/// \code
///   ServiceOptions O;
///   O.Jobs = 4;
///   O.CacheDir = "/tmp/vbc-cache";
///   CompileService Service(O);
///   auto Results = Service.compileBatch(Jobs);
///   for (JobResult &R : Results)
///     if (R.Ok) VmResult V = R.Unit->runVm();
///   const BatchStats &S = Service.lastBatchStats();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SERVICE_COMPILESERVICE_H
#define VIRGIL_SERVICE_COMPILESERVICE_H

#include "service/BytecodeCache.h"

#include <vector>

namespace virgil {

struct ServiceOptions {
  /// Worker threads for compileBatch; 0 means hardware concurrency.
  int Jobs = 1;
  /// Cache directory; empty disables caching.
  std::string CacheDir;
  /// LRU byte cap for the on-disk cache; 0 means unbounded.
  uint64_t CacheMaxBytes = 0;
  /// Format version for cache entries (tests override; production
  /// leaves it at kBcFormatVersion).
  uint32_t CacheFormatVersion = kBcFormatVersion;
  CompilerOptions Compile;
};

struct CompileJob {
  std::string Name;
  std::string Source;
};

/// The runnable artifact of one job: either a freshly compiled Program
/// (cache miss) or a module deserialized from the cache (hit).
class CompiledUnit {
public:
  explicit CompiledUnit(std::unique_ptr<Program> P) : Prog(std::move(P)) {}
  explicit CompiledUnit(std::unique_ptr<LoadedModule> L)
      : Loaded(std::move(L)) {}

  bool fromCache() const { return Loaded != nullptr; }
  bool hasBytecode() const {
    return Loaded != nullptr || (Prog && Prog->hasBytecode());
  }
  BcModule &bytecode() {
    return Loaded ? Loaded->module() : Prog->bytecode();
  }
  /// The full Program on the miss path; null on a hit (by design the
  /// cached artifact carries no front-end state).
  Program *program() { return Prog.get(); }

  /// Executes the module on the VM.
  VmResult runVm();

private:
  std::unique_ptr<Program> Prog;
  std::unique_ptr<LoadedModule> Loaded;
};

struct JobResult {
  std::string Name;
  bool Ok = false;
  bool CacheHit = false;
  std::string Error;
  /// End-to-end job time (cache probe + compile or deserialize).
  double Ms = 0;
  /// Per-phase compile timings; all zero on a cache hit (nothing ran).
  PhaseTimings Timings;
  /// Monomorphization function expansion (output/input functions) of
  /// this job; 1.0 on a cache hit (the front-end never ran).
  double MonoExpansion = 1.0;
  /// Specialization-sharing stats of this job; zero on a cache hit.
  ShareStats Share;
  /// Optimizer counters summed over both opt phases (devirt, escape,
  /// inlining, ...); zero on a cache hit.
  OptStats Opt;
  std::unique_ptr<CompiledUnit> Unit;

  /// The execute response's TimingsJson: one JSON object with the
  /// PhaseTimings and OptStats rows.
  std::string timingsJson() const;
};

struct BatchStats {
  size_t Jobs = 0;
  size_t Succeeded = 0;
  size_t Failed = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  /// Wall-clock for the whole batch (parallel).
  double WallMs = 0;
  /// Sum of per-job times (serial work content).
  double TotalJobMs = 0;
  /// Summed phase timings across all jobs that actually compiled.
  PhaseTimings Phases;
  /// Summed sharing stats across all jobs that actually compiled
  /// (cache hits contribute nothing — their front-end never ran).
  ShareStats Share;
  /// Summed optimizer counters across all jobs that actually compiled.
  OptStats Opt;

  /// Hit rate in percent over jobs that consulted the cache.
  double hitRatePct() const {
    size_t Probes = Hits + Misses;
    return Probes == 0 ? 0.0 : 100.0 * (double)Hits / (double)Probes;
  }

  /// The batch JSON line (virgilc batch's last stdout line): the job
  /// counts, the compile axes \p O configures, and the ShareStats,
  /// OptStats and PhaseTimings rows.
  std::string toJson(const ServiceOptions &O) const;
};

class CompileService {
public:
  explicit CompileService(ServiceOptions Options);
  ~CompileService();

  /// Compiles every job; Results[i] corresponds to Jobs[i]. Thread
  /// count is min(Options.Jobs, batch size).
  std::vector<JobResult> compileBatch(const std::vector<CompileJob> &Jobs);

  /// Compiles one job through the same cache-probe/compile/store path.
  JobResult compileOne(const CompileJob &Job);

  const BatchStats &lastBatchStats() const { return LastBatch; }
  /// Null when caching is disabled.
  BytecodeCache *cache() { return Cache.get(); }
  const ServiceOptions &options() const { return Options; }

private:
  ServiceOptions Options;
  std::unique_ptr<BytecodeCache> Cache;
  BatchStats LastBatch;
};

} // namespace virgil

#endif // VIRGIL_SERVICE_COMPILESERVICE_H
