//===- exec/Executor.h - Per-worker request execution engine ----*- C++ -*-===//
///
/// \file
/// The compile-and-run half of a virgild worker, factored out of the
/// server so it can be pooled, benchmarked, and differentially tested
/// on its own. An Executor owns one VmPool (one Executor per worker
/// thread — no locking; only the STATS totals are shared, behind a
/// mutex) and turns an ExecuteRequest into an ExecuteResponse:
///
///   1. Clamp the request's fuel/heap/deadline quotas to the
///      configured maxima (a client can tighten its sandbox, never
///      escape it).
///   2. Probe the warm-VM pool with a key covering the source content,
///      compiler options, and heap geometry. A hit skips the compile
///      service entirely — no disk probe, no deserialize, no
///      prepare, no fresh heap — and runs on the reset VM.
///   3. On a miss, compile through the shared CompileService (cache
///      probe → compile → store), build a fresh Vm, snapshot its
///      post-prepare state, run it, and donate it to the pool.
///
/// Pool hits report CacheHit=true on the wire: the request was served
/// from cached compilation state, one level warmer than the disk
/// cache. Everything else about the response — outcome, trap text,
/// result, output, instruction and GC counts — is identical between
/// the hit and miss paths by the VmPool invisibility contract.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_EXEC_EXECUTOR_H
#define VIRGIL_EXEC_EXECUTOR_H

#include "exec/VmPool.h"
#include "server/Protocol.h"

#include <mutex>

namespace virgil {
namespace exec {

/// What STATS reports of one executor: the front-end counters of every
/// compile it ran (cache and pool hits add nothing, no front end ran)
/// and the JIT counters of every VM run (per-run deltas, so pooled VMs
/// that keep their code warm are not counted twice).
struct ExecTotals {
  /// Jobs that actually compiled.
  uint64_t Compiles = 0;
  OptStats Opt;
  ShareStats Share;
  VmJitStats Jit;

  ExecTotals &operator+=(const ExecTotals &O) {
    Compiles += O.Compiles;
    Opt += O.Opt;
    Share += O.Share;
    Jit += O.Jit;
    return *this;
  }
};

struct ExecutorConfig {
  /// Default and maximum per-request quotas: a request may tighten
  /// them, and anything above the maximum is clamped. virgild sets this
  /// whole struct through ServerConfig::Exec.
  uint64_t DefaultFuel = 200u << 20;
  uint64_t DefaultHeapBytes = 64u << 20;
  uint32_t DefaultDeadlineMs = 5000;
  uint64_t MaxFuel = 1u << 30;
  uint64_t MaxHeapBytes = 256u << 20;
  uint32_t MaxDeadlineMs = 30000;

  /// Request-VM engine settings. The Pool-keyed FeatureAxes rows (heap
  /// mode, nursery size, JIT mode and threshold) default from the table
  /// like any VmOptions and enter the pool key (a warm VM must never
  /// serve a request that asked for another engine configuration). The
  /// quota fields are set per request from the ones above.
  VmOptions Vm;

  /// Warm-VM pooling: the pool row of FeatureAxes (on by default;
  /// `--vm-pool off` for the ablation and the differential baseline).
  bool UsePool = axisDefault(Axis::Pool) != 0;
  size_t PoolSize = 8;
};

class Executor {
public:
  Executor(const ExecutorConfig &Config, CompileService &Service);

  /// Serves one request end to end. \p ExecuteVm distinguishes
  /// EXECUTE from COMPILE: compile-only requests stop after the cache
  /// store and never touch a VM (or the pool). \p CompileMs and
  /// \p ExecuteMs receive the phase wall times for metrics.
  server::ExecuteResponse run(const server::ExecuteRequest &Req,
                              bool ExecuteVm, double *CompileMs,
                              double *ExecuteMs);

  const VmPoolStats &poolStats() const { return Pool.stats(); }
  /// A copy of the totals; safe from any thread (STATS samples it while
  /// the owning worker runs requests).
  ExecTotals totals() const {
    std::lock_guard<std::mutex> Lock(TotalsMu);
    return Totals;
  }
  size_t poolSize() const { return Pool.size(); }

private:
  uint64_t poolKeyFor(const server::ExecuteRequest &Req,
                      uint64_t HeapBytes) const;
  void addJit(const VmJitStats &S) {
    std::lock_guard<std::mutex> Lock(TotalsMu);
    Totals.Jit += S;
  }

  ExecutorConfig Config;
  CompileService &Service;
  VmPool Pool;
  mutable std::mutex TotalsMu;
  /// Jit.Available starts from the host probe, so STATS reports it
  /// before the first request.
  ExecTotals Totals;
};

} // namespace exec
} // namespace virgil

#endif // VIRGIL_EXEC_EXECUTOR_H
