//===- exec/Executor.cpp --------------------------------------------------===//

#include "exec/Executor.h"

#include "jit/Jit.h"

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

Executor::Executor(const ExecutorConfig &Config, CompileService &Service)
    : Config(Config), Service(Service), Pool(Config.PoolSize) {
  Totals.Jit.Available = jit::JitTier::hostSupported();
}

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
      addJit(VR.Jit);
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
  R.TimingsJson = JR.CacheHit ? "{}" : JR.timingsJson();
  if (!JR.Ok) {
    R.O = Outcome::CompileError;
    R.Message = JR.Error;
    return R;
  }
  if (!JR.CacheHit) {
    std::lock_guard<std::mutex> Lock(TotalsMu);
    ++Totals.Compiles;
    Totals.Opt += JR.Opt;
    Totals.Share += JR.Share;
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
  addJit(VR.Jit);
  fillFromVmResult(R, VR);
  if (Pooling)
    Pool.adopt(Key, std::move(JR.Unit), std::move(V));
  return R;
}
