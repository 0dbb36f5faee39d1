//===- exec/Executor.cpp --------------------------------------------------===//

#include "exec/Executor.h"

#include <chrono>

using namespace virgil;
using namespace virgil::exec;
using namespace virgil::server;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Effective quota: the request's value clamped to the maximum, or the
/// default when the request passes 0.
uint64_t clampQuota(uint64_t Requested, uint64_t Default, uint64_t Max) {
  if (Requested == 0)
    return Default;
  return Requested < Max ? Requested : Max;
}

Outcome outcomeForTrap(VmTrapCause Cause) {
  switch (Cause) {
  case VmTrapCause::Fuel:
    return Outcome::Fuel;
  case VmTrapCause::Heap:
    return Outcome::Heap;
  case VmTrapCause::Deadline:
    return Outcome::Deadline;
  case VmTrapCause::None:
  case VmTrapCause::Program:
    break;
  }
  return Outcome::Trap;
}

uint64_t fnvMix(uint64_t H, uint64_t V) {
  // FNV-1a over the value's bytes, continuing hash H.
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (I * 8)) & 0xFF;
    H *= 1099511628211ull;
  }
  return H;
}

/// Folds one run's per-run JIT deltas into the executor-lifetime
/// totals; identical for the fresh and pooled paths.
void accumulateJit(JitCounters &J, const VmJitStats &S) {
  if (S.Available)
    J.Available.store(true, std::memory_order_relaxed);
  if (S.Enabled)
    J.Enabled.store(true, std::memory_order_relaxed);
  J.Compiles.fetch_add(S.Compiles, std::memory_order_relaxed);
  J.CompileFailures.fetch_add(S.CompileFailures,
                              std::memory_order_relaxed);
  J.CompileNs.fetch_add(S.CompileNs, std::memory_order_relaxed);
  J.CodeBytes.fetch_add(S.CodeBytes, std::memory_order_relaxed);
  J.Enters.fetch_add(S.Enters, std::memory_order_relaxed);
  J.OsrEntries.fetch_add(S.OsrEntries, std::memory_order_relaxed);
  J.Deopts.fetch_add(S.Deopts, std::memory_order_relaxed);
  J.IcPatches.fetch_add(S.IcPatches, std::memory_order_relaxed);
  J.IcMegamorphic.fetch_add(S.IcMegamorphic,
                            std::memory_order_relaxed);
}

/// Shapes the common (trap/result/output) part of the response from a
/// finished run; identical for the fresh and pooled paths.
void fillFromVmResult(ExecuteResponse &R, VmResult &VR) {
  R.Instrs = VR.Counters.Instrs;
  R.GcMinor = VR.Heap.MinorCollections;
  R.GcMajor = VR.Heap.MajorCollections;
  R.GcPauseNs = VR.Heap.MinorPauses.SumNs + VR.Heap.MajorPauses.SumNs;
  R.Output = std::move(VR.Output);
  // Keep responses far below the frame cap even for print-heavy
  // programs: the wire is a control plane, not a log shipper.
  constexpr size_t kMaxOutput = 1u << 20;
  if (R.Output.size() > kMaxOutput) {
    R.Output.resize(kMaxOutput);
    R.Output += "\n...[output truncated]\n";
  }
  if (VR.Trapped) {
    R.O = outcomeForTrap(VR.Cause);
    R.Message = VR.TrapMessage;
  } else {
    R.HasResult = VR.HasResult;
    R.ResultBits = VR.ResultBits;
  }
}

} // namespace

uint64_t Executor::poolKeyFor(const ExecuteRequest &Req,
                              uint64_t HeapBytes) const {
  // Everything that shapes execution beyond per-run quotas: the source
  // content + compiler options (via the cache key, which also folds in
  // the bytecode format version), the heap quota, and the engine
  // settings of the Pool-keyed axes. Two requests with the same key are
  // guaranteed bit-identical runs.
  const ServiceOptions &SO = Service.options();
  uint64_t H = BytecodeCache::keyFor(Req.Source, SO.Compile,
                                     SO.CacheFormatVersion);
  H = fnvMix(H, HeapBytes);
  for (const FeatureAxis &A : FeatureAxes)
    if (A.Key == AxisKey::Pool)
      H = fnvMix(H, axisValue(A.Id, Config.Vm));
  return H;
}

ExecuteResponse Executor::run(const ExecuteRequest &Req, bool ExecuteVm,
                              double *CompileMs, double *ExecuteMs) {
  ExecuteResponse R;
  *CompileMs = 0;
  *ExecuteMs = 0;

  uint64_t Fuel = clampQuota(Req.Fuel, Config.DefaultFuel, Config.MaxFuel);
  uint64_t HeapBytes = clampQuota(Req.HeapBytes, Config.DefaultHeapBytes,
                                  Config.MaxHeapBytes);
  uint32_t DeadlineMs = (uint32_t)clampQuota(
      Req.DeadlineMs, Config.DefaultDeadlineMs, Config.MaxDeadlineMs);

  uint64_t Key = 0;
  bool Pooling = Config.UsePool && ExecuteVm;
  if (Pooling) {
    Key = poolKeyFor(Req, HeapBytes);
    if (Vm *V = Pool.acquire(Key)) {
      // Warm path: no compile service, no fresh heap. The response
      // reports a cache hit — it was served from compiled state.
      R.CacheHit = true;
      R.TimingsJson = "{}";
      V->setRunQuotas(Fuel, DeadlineMs);
      auto E0 = Clock::now();
      VmResult VR = V->run();
      *ExecuteMs = msSince(E0);
      R.ExecuteMs = *ExecuteMs;
      accumulateJit(Jit, VR.Jit);
      fillFromVmResult(R, VR);
      return R;
    }
  }

  auto C0 = Clock::now();
  CompileJob Job;
  Job.Name = Req.Name.empty() ? "<request>" : Req.Name;
  Job.Source = Req.Source;
  JobResult JR = Service.compileOne(Job);
  *CompileMs = msSince(C0);
  R.CompileMs = *CompileMs;
  R.CacheHit = JR.CacheHit;
  R.TimingsJson = JR.CacheHit ? "{}" : JR.Timings.toJson();
  if (!JR.Ok) {
    R.O = Outcome::CompileError;
    R.Message = JR.Error;
    return R;
  }
  if (!JR.CacheHit) {
    Mono.Compiles.fetch_add(1, std::memory_order_relaxed);
    if (JR.Share.Enabled)
      Mono.ShareEnabled.store(true, std::memory_order_relaxed);
    Mono.FunctionsBefore.fetch_add(JR.Share.FunctionsBefore,
                                   std::memory_order_relaxed);
    Mono.FunctionsAfter.fetch_add(JR.Share.FunctionsAfter,
                                  std::memory_order_relaxed);
    Mono.BodiesShared.fetch_add(JR.Share.BodiesShared,
                                std::memory_order_relaxed);
    if (Service.options().Compile.Optimize &&
        Service.options().Compile.Opt.Escape)
      Opt.EscapeEnabled.store(true, std::memory_order_relaxed);
    if (Service.options().Compile.Optimize &&
        Service.options().Compile.Opt.Ssa)
      Opt.SsaEnabled.store(true, std::memory_order_relaxed);
    Opt.PhisPlaced.fetch_add(JR.Opt.PhisPlaced, std::memory_order_relaxed);
    Opt.SccpFolded.fetch_add(JR.Opt.SccpFolded, std::memory_order_relaxed);
    Opt.LoadsEliminated.fetch_add(JR.Opt.LoadsEliminated,
                                  std::memory_order_relaxed);
    Opt.StoresKilled.fetch_add(JR.Opt.StoresKilled,
                               std::memory_order_relaxed);
    Opt.NullChecksRemoved.fetch_add(JR.Opt.NullChecksRemoved,
                                    std::memory_order_relaxed);
    Opt.AllocsElided.fetch_add(JR.Opt.AllocsElided,
                               std::memory_order_relaxed);
    Opt.FieldsScalarized.fetch_add(JR.Opt.FieldsScalarized,
                                   std::memory_order_relaxed);
    Opt.ClosuresFlattened.fetch_add(JR.Opt.ClosuresFlattened,
                                    std::memory_order_relaxed);
    Opt.CallsDevirtualized.fetch_add(JR.Opt.CallsDevirtualized,
                                     std::memory_order_relaxed);
    Opt.DevirtualizedByCha.fetch_add(JR.Opt.DevirtualizedByCha,
                                     std::memory_order_relaxed);
    auto AddUs = [](std::atomic<uint64_t> &C, double Ms) {
      C.fetch_add((uint64_t)(Ms * 1000.0), std::memory_order_relaxed);
    };
    AddUs(Opt.DevirtUs, JR.Timings.PassDevirtMs);
    AddUs(Opt.InlineUs, JR.Timings.PassInlineMs);
    AddUs(Opt.DceUs, JR.Timings.PassDceMs);
    AddUs(Opt.EscapeUs, JR.Timings.PassEscapeMs);
    AddUs(Opt.DeadFieldsUs, JR.Timings.PassDeadFieldsMs);
    AddUs(Opt.SsaUs, JR.Timings.PassSsaMs);
  }
  if (!ExecuteVm)
    return R; // COMPILE: cache is populated, nothing to run

  VmOptions VO = Config.Vm;
  VO.MaxInstrs = Fuel;
  VO.MaxHeapBytes = HeapBytes;
  VO.DeadlineMs = DeadlineMs;

  auto E0 = Clock::now();
  auto V = std::make_unique<Vm>(JR.Unit->bytecode(), VO);
  if (Pooling)
    V->snapshotForReuse(); // must capture pre-run (post-prepare) state
  VmResult VR = V->run();
  *ExecuteMs = msSince(E0);
  R.ExecuteMs = *ExecuteMs;
  accumulateJit(Jit, VR.Jit);
  fillFromVmResult(R, VR);
  if (Pooling)
    Pool.adopt(Key, std::move(JR.Unit), std::move(V));
  return R;
}
