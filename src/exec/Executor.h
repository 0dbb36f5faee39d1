//===- exec/Executor.h - Per-worker request execution engine ----*- C++ -*-===//
///
/// \file
/// The compile-and-run half of a virgild worker, factored out of the
/// server so it can be pooled, benchmarked, and differentially tested
/// on its own. An Executor owns one VmPool (one Executor per worker
/// thread — no locking) and turns an ExecuteRequest into an
/// ExecuteResponse:
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

#include <atomic>

namespace virgil {
namespace exec {

/// Monomorphization/sharing totals across every front-end run this
/// executor performed (cache and pool hits contribute nothing — no
/// front-end ran). Relaxed atomics: written by the owning worker,
/// sampled by the STATS path on another thread.
struct MonoShareCounters {
  /// Jobs that actually compiled (the denominators below).
  std::atomic<uint64_t> Compiles{0};
  /// Whether any compiled job ran with sharing enabled.
  std::atomic<bool> ShareEnabled{false};
  std::atomic<uint64_t> FunctionsBefore{0};
  std::atomic<uint64_t> FunctionsAfter{0};
  std::atomic<uint64_t> BodiesShared{0};
};

/// JIT-tier totals across every VM run this executor performed (each
/// run reports per-run deltas, so plain summation is double-count
/// free even for pooled VMs that keep their compiled code warm).
/// Same sampling discipline as MonoShareCounters.
struct JitCounters {
  /// Whether any request VM probed the host as JIT-capable / actually
  /// constructed the tier.
  std::atomic<bool> Available{false};
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Compiles{0};
  std::atomic<uint64_t> CompileFailures{0};
  std::atomic<uint64_t> CompileNs{0};
  std::atomic<uint64_t> CodeBytes{0};
  std::atomic<uint64_t> Enters{0};
  std::atomic<uint64_t> OsrEntries{0};
  std::atomic<uint64_t> Deopts{0};
  std::atomic<uint64_t> IcPatches{0};
  std::atomic<uint64_t> IcMegamorphic{0};
};

/// Optimizer totals across every front-end run this executor performed
/// (cache and pool hits contribute nothing). Same sampling discipline
/// as MonoShareCounters.
struct OptCounters {
  /// Whether any compiled job ran with escape analysis enabled.
  std::atomic<bool> EscapeEnabled{false};
  /// Whether any compiled job ran the SSA mid-tier.
  std::atomic<bool> SsaEnabled{false};
  std::atomic<uint64_t> AllocsElided{0};
  std::atomic<uint64_t> FieldsScalarized{0};
  std::atomic<uint64_t> ClosuresFlattened{0};
  std::atomic<uint64_t> CallsDevirtualized{0};
  std::atomic<uint64_t> DevirtualizedByCha{0};
  /// SSA mid-tier totals: phis placed, SCCP folds, and the memory
  /// pass's load/store/null-check eliminations.
  std::atomic<uint64_t> PhisPlaced{0};
  std::atomic<uint64_t> SccpFolded{0};
  std::atomic<uint64_t> LoadsEliminated{0};
  std::atomic<uint64_t> StoresKilled{0};
  std::atomic<uint64_t> NullChecksRemoved{0};
  /// Accumulated per-pass optimizer wall time, in microseconds
  /// (atomics can't hold doubles; STATS renders these back as ms).
  std::atomic<uint64_t> DevirtUs{0};
  std::atomic<uint64_t> InlineUs{0};
  std::atomic<uint64_t> DceUs{0};
  std::atomic<uint64_t> EscapeUs{0};
  std::atomic<uint64_t> DeadFieldsUs{0};
  std::atomic<uint64_t> SsaUs{0};
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
  Executor(const ExecutorConfig &Config, CompileService &Service)
      : Config(Config), Service(Service), Pool(Config.PoolSize) {}

  /// Serves one request end to end. \p ExecuteVm distinguishes
  /// EXECUTE from COMPILE: compile-only requests stop after the cache
  /// store and never touch a VM (or the pool). \p CompileMs and
  /// \p ExecuteMs receive the phase wall times for metrics.
  server::ExecuteResponse run(const server::ExecuteRequest &Req,
                              bool ExecuteVm, double *CompileMs,
                              double *ExecuteMs);

  const VmPoolStats &poolStats() const { return Pool.stats(); }
  const MonoShareCounters &monoStats() const { return Mono; }
  const OptCounters &optStats() const { return Opt; }
  const JitCounters &jitStats() const { return Jit; }
  size_t poolSize() const { return Pool.size(); }

private:
  uint64_t poolKeyFor(const server::ExecuteRequest &Req,
                      uint64_t HeapBytes) const;

  ExecutorConfig Config;
  CompileService &Service;
  VmPool Pool;
  MonoShareCounters Mono;
  OptCounters Opt;
  JitCounters Jit;
};

} // namespace exec
} // namespace virgil

#endif // VIRGIL_EXEC_EXECUTOR_H
