//===- jit/Jit.cpp - Baseline JIT: templates, helpers, tiering ------------===//

#include "jit/Jit.h"
#include "jit/Assembler.h"

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

using namespace virgil;
using namespace virgil::jit;

// Generated code has no prologue metadata the sanitizer can check, so
// the indirect call into the arena must not be instrumented.
#if defined(__clang__) || defined(__GNUC__)
#define VIRGIL_JIT_NO_UBSAN __attribute__((no_sanitize("undefined")))
#else
#define VIRGIL_JIT_NO_UBSAN
#endif

namespace {

/// Functions above this size stay interpreted: template-compiling them
/// would cost more than it saves, and the arena is better spent on the
/// hot small-to-medium bodies.
constexpr size_t kMaxCompileInstrs = 50000;
/// IC repatches before a site goes megamorphic and stops patching.
constexpr uint32_t kMaxIcPatches = 8;

/// Trap-extra selectors (hTrap's third argument).
enum : uint32_t {
  kExtraNone = 0,
  kExtraIntByte = 1, ///< "int to byte"
  kExtraFuel = 2,    ///< instruction budget, cause Fuel
};

uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Is class \p Sub (an id) equal to or a subclass of \p Super?
/// (Mirror of the interpreter's walk; CastClass/QueryClass go through
/// helpers because the failure message needs the class name.)
bool classSubtype(const BcModule &M, int Sub, int Super) {
  for (int C = Sub; C >= 0; C = M.Classes[C].ParentId)
    if (C == Super)
      return true;
  return false;
}

} // namespace

bool JitTier::hostSupported() {
  // Test hook: force the "unsupported host" fallback path on any
  // machine (JitTest exercises it without needing exotic hardware).
  if (const char *E = std::getenv("VIRGIL_VM_JIT_SIMULATE_UNSUPPORTED"))
    if (*E && std::string_view(E) != "0")
      return false;
  return CodeArena::probeExecutable();
}

JitTier::JitTier(Vm &V, uint32_t Threshold) : V(V), Threshold(Threshold) {
  // The dispatch-metadata table: one stable 32-byte record per
  // function, so native call sites resolve FuncId -> (entry, frame
  // shape) with two loads instead of a helper round trip.
  static_assert(sizeof(FuncMeta) == 32, "emitted code indexes by fid << 5");
  Metas.resize(V.Prep.Funcs.size());
  for (size_t I = 0; I != V.Prep.Funcs.size(); ++I) {
    PFunc &F = V.Prep.Funcs[I];
    Metas[I].Fn = &F;
    Metas[I].NumRegs = F.NumRegs;
    Metas[I].NumParams = F.NumParams;
    Metas[I].VirtUnbound = V.Prep.VirtUnbound[I];
  }
  installStubs();
  Stats.CodeBytes = Arena.codeBytes();
}

//===----------------------------------------------------------------------===//
// Stubs
//===----------------------------------------------------------------------===//
//
// Register pinning while native code runs (all callee-saved, so C++
// helpers preserve them for free):
//
//   rbx  JitCtx*                 r13  heap Space.data()
//   r12  R (frame register base) r14  Instrs counter
//   rbp  Globals.data()          r15  FuelMax
//
// EnterStub establishes the pins from the ctx and jumps to the target;
// the shared Epilogue writes the instruction counter back and returns
// to enter() with the exit code in rax. One hardware frame hosts the
// whole VM call tree: call helpers return the callee's native entry
// and the site jmp's there, so the native stack never deepens.

bool JitTier::installStubs() {
  {
    Assembler A;
    A.movMR(RBX, (int32_t)offsetof(JitCtx, Instrs), R14);
    A.addRI(RSP, 8);
    A.popR(R15);
    A.popR(R14);
    A.popR(R13);
    A.popR(R12);
    A.popR(RBP);
    A.popR(RBX);
    A.ret();
    Epilogue = Arena.install(A.Buf.data(), A.Buf.size());
  }
  if (!Epilogue)
    return false;
  {
    Assembler A;
    A.pushR(RBX);
    A.pushR(RBP);
    A.pushR(R12);
    A.pushR(R13);
    A.pushR(R14);
    A.pushR(R15);
    A.subRI(RSP, 8); // call sites below sit at rsp % 16 == 0
    A.movRR(RBX, RDI);
    A.movRM(R12, RBX, (int32_t)offsetof(JitCtx, R));
    A.movRM(RBP, RBX, (int32_t)offsetof(JitCtx, Gl));
    A.movRM(R13, RBX, (int32_t)offsetof(JitCtx, HeapBase));
    A.movRM(R14, RBX, (int32_t)offsetof(JitCtx, Instrs));
    A.movRM(R15, RBX, (int32_t)offsetof(JitCtx, FuelMax));
    A.jmpR(RSI);
    EnterStub = Arena.install(A.Buf.data(), A.Buf.size());
  }
  return EnterStub != nullptr;
}

VIRGIL_JIT_NO_UBSAN int JitTier::enter(const void *Target) {
  // Mirror the hot VM state into the ctx; native code and helpers work
  // against the mirrors, and we sync back whatever they changed.
  Ctx.V = &V;
  Ctx.T = this;
  Ctx.R = V.Stack.data() + V.Frames.back().Base;
  Ctx.Gl = V.Globals.data();
  Ctx.HeapBase = V.TheHeap.spaceData();
  Ctx.Instrs = V.Counters.Instrs;
  Ctx.FuelMax = V.MaxInstrs;
  Ctx.DeadlineNs = V.DeadlineNs;
  Ctx.Calls = V.Counters.Calls;
  Ctx.VCalls = V.Counters.VirtualCalls;
  Ctx.ICalls = V.Counters.IndirectCalls;
  Ctx.IcHits = V.Counters.IcHits;
  Ctx.IcMisses = V.Counters.IcMisses;
  Ctx.FusedExec = V.Counters.FusedExecuted;
  ++Stats.Enters;

  auto Fn = reinterpret_cast<uint64_t (*)(JitCtx *, const void *)>(
      (void *)EnterStub);
  uint64_t Code = Fn(&Ctx, Target);

  V.Counters.Instrs = Ctx.Instrs;
  V.Counters.Calls = Ctx.Calls;
  V.Counters.VirtualCalls = Ctx.VCalls;
  V.Counters.IndirectCalls = Ctx.ICalls;
  V.Counters.IcHits = Ctx.IcHits;
  V.Counters.IcMisses = Ctx.IcMisses;
  V.Counters.FusedExecuted = Ctx.FusedExec;
  return (int)Code;
}

//===----------------------------------------------------------------------===//
// Helpers (native -> C++)
//===----------------------------------------------------------------------===//

uint64_t JitTier::hDeadline(JitCtx *C) {
  Vm &V = *C->V;
  if (++V.DeadlineTick < 4096)
    return 0;
  V.DeadlineTick = 0;
  if (nowNs() >= V.DeadlineNs) {
    V.doTrap(TrapKind::Unreachable, "deadline exceeded",
             VmTrapCause::Deadline);
    return kExitTrap;
  }
  return 0;
}

bool JitTier::fuelOk(JitCtx *C) {
  // VM_FUEL replica; the native Instrs counter was flushed to the ctx
  // right before the helper call, so the comparison is exact.
  if (C->FuelMax && C->Instrs > C->FuelMax) {
    C->V->doTrap(TrapKind::Unreachable, "instruction budget exceeded",
                 VmTrapCause::Fuel);
    return false;
  }
  if (C->V->DeadlineNs && hDeadline(C) != 0)
    return false;
  return true;
}

uint64_t JitTier::finishCall(JitCtx *C) {
  // Tier decision for the frame enterCall just pushed. enterCall may
  // have grown the stack arena, so R is recomputed either way (the
  // native call site reloads r12 from the ctx).
  Vm &V = *C->V;
  C->R = V.Stack.data() + V.Frames.back().Base;
  const void *E = V.jitEntryFor(V.Frames.back().Fn, 0, true);
  return E ? (uint64_t)E : kExitInterp;
}

uint64_t JitTier::hCallF(JitCtx *C, uint64_t FuncId, const PDesc *D,
                         uint64_t PcNext) {
  Vm &V = *C->V;
  if (!fuelOk(C))
    return kExitTrap;
  V.Frames.back().Pc = (uint32_t)PcNext;
  if (!V.enterCallFast((int)FuncId, D, (size_t)(C->R - V.Stack.data())))
    return kExitTrap;
  return finishCall(C);
}

uint64_t JitTier::hCallHit(JitCtx *C, uint64_t Target, const PDesc *D,
                           uint64_t PcNext) {
  // Inline-cache hit: the receiver's classId matched the patched
  // immediate, Target is the patched resolved function id.
  Vm &V = *C->V;
  if (!fuelOk(C))
    return kExitTrap;
  V.Frames.back().Pc = (uint32_t)PcNext;
  if (!V.enterCall((int)Target, D, (size_t)(C->R - V.Stack.data()), nullptr,
                   false))
    return kExitTrap;
  return finishCall(C);
}

uint64_t JitTier::hCallVMiss(JitCtx *C, IcSite *Site, const PDesc *D,
                             uint64_t PcNext) {
  Vm &V = *C->V;
  ++C->IcMisses;
  uint64_t Recv = C->R[D->Args[0]]; // non-null: checked natively
  int ClassId = V.TheHeap.classIdOf(Recv);
  int Target = V.M.Classes[ClassId].VTable[(size_t)Site->VSlot];
  if (Target < 0) {
    V.doTrap(TrapKind::Unreachable, "abstract method");
    return kExitTrap;
  }
  // Both tiers share the per-function IcEntry (by index: resetForReuse
  // reassigns the vector's contents, not the site metadata).
  IcEntry &Ic = Site->Fn->Ics[Site->IcIdx];
  Ic.ClassId = ClassId;
  Ic.Target = Target;
  JitTier &T = *C->T;
  if (!Site->Megamorphic) {
    if (Site->Patches >= kMaxIcPatches) {
      Site->Megamorphic = true;
      ++T.Stats.IcMegamorphic;
    } else if (T.Arena.makeWritable(Site->ClassAddr)) {
      // Patch the compare-classId and call-target immediates in place.
      // Safe: no arena code executes while we are in a helper (flat
      // native frames), and both immediates live in the same chunk.
      uint32_t Cls = (uint32_t)ClassId, Tgt = (uint32_t)Target;
      std::memcpy(Site->ClassAddr, &Cls, 4);
      std::memcpy(Site->TargetAddr, &Tgt, 4);
      T.Arena.makeExecutable(Site->ClassAddr);
      ++Site->Patches;
      ++T.Stats.IcPatches;
    }
  }
  if (!fuelOk(C))
    return kExitTrap;
  V.Frames.back().Pc = (uint32_t)PcNext;
  if (!V.enterCall(Target, D, (size_t)(C->R - V.Stack.data()), nullptr,
                   false))
    return kExitTrap;
  return finishCall(C);
}

uint64_t JitTier::hCallV(JitCtx *C, const PDesc *D, uint64_t VSlot,
                         uint64_t PcNext) {
  Vm &V = *C->V;
  uint64_t Recv = C->R[D->Args[0]];
  if (Recv == 0) {
    V.doTrap(TrapKind::NullDeref);
    return kExitTrap;
  }
  int ClassId = V.TheHeap.classIdOf(Recv);
  int Target = V.M.Classes[ClassId].VTable[(size_t)VSlot];
  if (Target < 0) {
    V.doTrap(TrapKind::Unreachable, "abstract method");
    return kExitTrap;
  }
  if (!fuelOk(C))
    return kExitTrap;
  V.Frames.back().Pc = (uint32_t)PcNext;
  if (!V.enterCall(Target, D, (size_t)(C->R - V.Stack.data()), nullptr,
                   false))
    return kExitTrap;
  return finishCall(C);
}

uint64_t JitTier::hCallInd(JitCtx *C, const PDesc *D, uint64_t PcNext) {
  Vm &V = *C->V;
  uint64_t Clo = C->R[D->Args[0]];
  if (Clo == 0) {
    V.doTrap(TrapKind::NullDeref);
    return kExitTrap;
  }
  int FuncId = closureFuncId(Clo);
  size_t CallerBase = (size_t)(C->R - V.Stack.data());
  if (closureIsBound(Clo)) {
    uint64_t Bound = closureBoundRef(Clo);
    if (!fuelOk(C))
      return kExitTrap;
    V.Frames.back().Pc = (uint32_t)PcNext;
    if (!V.enterCall(FuncId, D, CallerBase, &Bound, true))
      return kExitTrap;
    return finishCall(C);
  }
  if (V.Prep.VirtUnbound[(size_t)FuncId]) {
    // Unbound virtual method: dispatch on the first argument.
    if (D->NArgs < 2 || C->R[D->Args[1]] == 0) {
      V.doTrap(TrapKind::NullDeref);
      return kExitTrap;
    }
    int ClassId = V.TheHeap.classIdOf(C->R[D->Args[1]]);
    int Target = V.M.Classes[ClassId].VTable[V.M.Functions[FuncId].Slot];
    if (Target < 0) {
      V.doTrap(TrapKind::Unreachable, "abstract method");
      return kExitTrap;
    }
    FuncId = Target;
  }
  if (!fuelOk(C))
    return kExitTrap;
  V.Frames.back().Pc = (uint32_t)PcNext;
  if (!V.enterCall(FuncId, D, CallerBase, nullptr, true))
    return kExitTrap;
  return finishCall(C);
}

uint64_t JitTier::hCallB(JitCtx *C, const PDesc *D, uint64_t Kind) {
  Vm &V = *C->V;
  if (!V.builtin((int)Kind, *D, (size_t)(C->R - V.Stack.data())))
    return kExitTrap;
  return 0;
}

uint64_t JitTier::hRet(JitCtx *C, const PDesc *D) {
  Vm &V = *C->V;
  auto Done = V.Frames.back();
  V.Frames.pop_back();
  V.StackTop = Done.Base;
  // Callee registers stay valid until the next push, so return values
  // copy register-to-register into the caller frame.
  uint64_t *R = V.Stack.data() + Done.Base;
  if (Done.Pending) {
    const PDesc &P = *Done.Pending;
    uint64_t *CallerR = V.Stack.data() + Done.CallerBase;
    for (size_t K = 0; K != P.NDsts; ++K)
      CallerR[P.Dsts[K]] = R[D->Args[K]];
  } else {
    V.FinalRets.clear();
    for (size_t K = 0; K != D->NArgs; ++K)
      V.FinalRets.push_back((int64_t)R[D->Args[K]]);
  }
  if (V.Frames.empty())
    return kExitDone;
  auto &Up = V.Frames.back();
  C->R = V.Stack.data() + Up.Base;
  if (Up.Fn->JitId < 0)
    return kExitInterp; // resume the interpreted caller at Up.Pc
  return (uint64_t)C->T->entryAt(Up.Fn->JitId, Up.Pc);
}

/// Shared deopt tail of the allocating helpers: any collection (or
/// in-place growth) moved the heap base the native code has pinned in
/// r13, so the *completed* instruction's successor resumes in the
/// interpreter ("GC-triggered invalidation").
static bool gcMoved(Heap &H, const uint64_t *OldBase, uint64_t OldCollections) {
  return H.spaceData() != OldBase ||
         H.stats().Collections != OldCollections;
}

uint64_t JitTier::hNewObj(JitCtx *C, uint64_t RegA, uint64_t ClassId,
                          uint64_t PcNext) {
  Vm &V = *C->V;
  const uint64_t *OldBase = V.TheHeap.spaceData();
  uint64_t OldColl = V.TheHeap.stats().Collections;
  uint64_t Ref = V.TheHeap.allocObject((int)ClassId);
  if (Ref == 0 && V.TheHeap.overLimit()) {
    V.doTrap(TrapKind::Unreachable, "heap limit exceeded", VmTrapCause::Heap);
    return kExitTrap;
  }
  C->R[RegA] = Ref;
  ++V.Counters.HeapObjects;
  if (gcMoved(V.TheHeap, OldBase, OldColl)) {
    V.Frames.back().Pc = (uint32_t)PcNext;
    ++C->T->Stats.Deopts;
    return kExitInterp;
  }
  return 0;
}

uint64_t JitTier::hNewArr(JitCtx *C, uint64_t RegA, uint64_t RegB,
                          uint64_t Kind, uint64_t PcNext) {
  Vm &V = *C->V;
  int64_t Len = (int32_t)C->R[RegB];
  if (Len < 0) {
    V.doTrap(TrapKind::Bounds, "negative array length");
    return kExitTrap;
  }
  const uint64_t *OldBase = V.TheHeap.spaceData();
  uint64_t OldColl = V.TheHeap.stats().Collections;
  uint64_t Ref = V.TheHeap.allocArray((ElemKind)Kind, Len);
  if (Ref == 0 && V.TheHeap.overLimit()) {
    V.doTrap(TrapKind::Unreachable, "heap limit exceeded", VmTrapCause::Heap);
    return kExitTrap;
  }
  C->R[RegA] = Ref;
  ++V.Counters.HeapArrays;
  if (gcMoved(V.TheHeap, OldBase, OldColl)) {
    V.Frames.back().Pc = (uint32_t)PcNext;
    ++C->T->Stats.Deopts;
    return kExitInterp;
  }
  return 0;
}

uint64_t JitTier::hConstStr(JitCtx *C, uint64_t RegA, uint64_t StrIdx,
                            uint64_t PcNext) {
  Vm &V = *C->V;
  const uint64_t *OldBase = V.TheHeap.spaceData();
  uint64_t OldColl = V.TheHeap.stats().Collections;
  uint64_t Ref = V.makeString((int)StrIdx);
  if (Ref == 0 && V.TheHeap.overLimit()) {
    V.doTrap(TrapKind::Unreachable, "heap limit exceeded", VmTrapCause::Heap);
    return kExitTrap;
  }
  C->R[RegA] = Ref;
  if (gcMoved(V.TheHeap, OldBase, OldColl)) {
    V.Frames.back().Pc = (uint32_t)PcNext;
    ++C->T->Stats.Deopts;
    return kExitInterp;
  }
  return 0;
}

uint64_t JitTier::hMkCloVirt(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t FuncId) {
  // MkClo of a bound virtual method: resolve against the receiver's
  // dynamic class at creation (the non-virtual forms inline).
  Vm &V = *C->V;
  uint64_t Bound = C->R[RegB];
  if (Bound == 0) {
    V.doTrap(TrapKind::NullDeref);
    return kExitTrap;
  }
  int ClassId = V.TheHeap.classIdOf(Bound);
  int Target = V.M.Classes[ClassId].VTable[V.M.Functions[FuncId].Slot];
  if (Target < 0) {
    V.doTrap(TrapKind::Unreachable, "abstract method");
    return kExitTrap;
  }
  C->R[RegA] = packClosure(Target, Bound, true);
  return 0;
}

uint64_t JitTier::hCastClass(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t ClassId) {
  Vm &V = *C->V;
  uint64_t Ref = C->R[RegB];
  if (Ref != 0 &&
      !classSubtype(V.M, V.TheHeap.classIdOf(Ref), (int)ClassId)) {
    V.doTrap(TrapKind::CastFail, V.M.Classes[ClassId].Name);
    return kExitTrap;
  }
  C->R[RegA] = Ref;
  return 0;
}

uint64_t JitTier::hQueryClass(JitCtx *C, uint64_t RegA, uint64_t RegB,
                              uint64_t ClassId) {
  Vm &V = *C->V;
  uint64_t Ref = C->R[RegB];
  C->R[RegA] =
      Ref != 0 && classSubtype(V.M, V.TheHeap.classIdOf(Ref), (int)ClassId);
  return 0;
}

uint64_t JitTier::hCastFunc(JitCtx *C, uint64_t RegA, uint64_t RegB,
                            uint64_t TypeIdx) {
  Vm &V = *C->V;
  uint64_t Clo = C->R[RegB];
  if (Clo != 0) {
    const BcFunction &G = V.M.Functions[closureFuncId(Clo)];
    Type *Dyn = closureIsBound(Clo) ? G.BoundFuncTy : G.SourceFuncTy;
    if (!Dyn || !V.Rels.isSubtype(Dyn, V.M.TypeTable[TypeIdx])) {
      V.doTrap(TrapKind::CastFail, "function type");
      return kExitTrap;
    }
  }
  C->R[RegA] = Clo;
  return 0;
}

uint64_t JitTier::hQueryFunc(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t TypeIdx) {
  Vm &V = *C->V;
  uint64_t Clo = C->R[RegB];
  bool Ok = false;
  if (Clo != 0) {
    const BcFunction &G = V.M.Functions[closureFuncId(Clo)];
    Type *Dyn = closureIsBound(Clo) ? G.BoundFuncTy : G.SourceFuncTy;
    Ok = Dyn && V.Rels.isSubtype(Dyn, V.M.TypeTable[TypeIdx]);
  }
  C->R[RegA] = Ok;
  return 0;
}

uint64_t JitTier::hBarrier(JitCtx *C, uint64_t SlotIdx, uint64_t Val,
                           uint64_t IsClo) {
  C->V->TheHeap.writeBarrier(SlotIdx, Val, IsClo != 0);
  return 0;
}

uint64_t JitTier::hGlobalBarrier(JitCtx *C, uint64_t Idx, uint64_t Val,
                                 uint64_t IsClo) {
  C->V->TheHeap.globalBarrier((size_t)Idx, Val, IsClo != 0);
  return 0;
}

uint64_t JitTier::hTrap(JitCtx *C, uint64_t Kind, uint64_t ExtraId) {
  Vm &V = *C->V;
  switch (ExtraId) {
  case kExtraIntByte:
    V.doTrap((TrapKind)Kind, "int to byte");
    break;
  case kExtraFuel:
    V.doTrap((TrapKind)Kind, "instruction budget exceeded",
             VmTrapCause::Fuel);
    break;
  default:
    V.doTrap((TrapKind)Kind);
    break;
  }
  return kExitTrap;
}

uint64_t JitTier::hTrapCc(JitCtx *C, uint64_t FuncId) {
  Vm &V = *C->V;
  V.doTrap(TrapKind::Unreachable, "calling convention mismatch in '" +
                                      V.M.Functions[(size_t)FuncId].Name +
                                      "'");
  return kExitTrap;
}

//===----------------------------------------------------------------------===//
// The template compiler
//===----------------------------------------------------------------------===//

bool JitTier::compileFn(PFunc &F) {
  uint64_t T0 = nowNs();
  size_t N = F.Code.size();
  if (!ready() || N > kMaxCompileInstrs) {
    F.Gate = kNoJitGate; // permanently interpreter-only
    ++Stats.CompileFailures;
    return false;
  }

  Assembler A;
  std::vector<uint32_t> Offs;
  Offs.reserve(N + 1);
  struct BranchFix {
    size_t Pos;
    uint32_t Target;
  };
  std::vector<BranchFix> Branches; // forward targets, resolved at the end
  // Trap stubs are shared per (kind, extra) pair and emitted after the
  // body, so the hot path pays one never-taken jcc per check.
  std::map<uint32_t, std::vector<size_t>> TrapFixes;
  struct SitePatch {
    size_t Idx; // into Sites
    size_t ClassOff, TargetOff;
  };
  std::vector<SitePatch> NewSites;
  size_t FirstSite = Sites.size();
  // Absolute fixups: 8-byte immediates that must hold the native
  // address of instruction TargetPc but are emitted before the install
  // address is known (native-return continuations stored into frames
  // by fast-path call sites). Resolved as Entry + Offs[TargetPc] after
  // install, under a W^X flip.
  struct AbsFix {
    size_t ImmOff;
    uint32_t TargetPc;
  };
  std::vector<AbsFix> AbsFixes;

  auto slot = [](unsigned R) { return (int32_t)(8 * R); };
  // Exact accounting: every block bumps the counter by its dispatch
  // count (fused ops are two) *before* any trap exit can happen.
  auto count = [&](bool Fused) {
    A.addRI(R14, Fused ? 2 : 1);
    if (Fused)
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, FusedExec), 1);
  };
  auto flush = [&] {
    A.movMR(RBX, (int32_t)offsetof(JitCtx, Instrs), R14);
  };
  auto exitNative = [&] {
    A.movRI64(RCX, (uint64_t)(uintptr_t)Epilogue);
    A.jmpR(RCX);
  };
  auto call = [&](auto *Fn) {
    A.movRI64(RAX, (uint64_t)reinterpret_cast<uintptr_t>(Fn));
    A.callR(RAX);
  };
  auto trapJcc = [&](Cond Cc, TrapKind Kind, uint32_t Extra) {
    TrapFixes[((uint32_t)Kind << 8) | Extra].push_back(A.jcc32(Cc));
  };
  // Op-shaped helper returned: 0 = continue, else exit with the code.
  auto checkOp = [&] {
    A.testRR(RAX, RAX);
    size_t J = A.jcc32(CC_E);
    exitNative();
    A.bind(J);
  };
  // Call-shaped helper returned: a native entry (>= kSentinelMax) to
  // jump to, or an exit code. The stack arena may have been reallocated
  // by the callee-frame push, so the frame base reloads from the ctx.
  auto dispatchCall = [&] {
    A.cmpRI32(RAX, (int32_t)kSentinelMax, true);
    size_t J = A.jcc32(CC_AE);
    exitNative();
    A.bind(J);
    A.movRM(R12, RBX, (int32_t)offsetof(JitCtx, R));
    A.jmpR(RAX);
  };
  // VM_FUEL replica at taken backward branches.
  auto fuelCheck = [&] {
    A.testRR(R15, R15);
    size_t NoFuel = A.jcc32(CC_E);
    A.cmpRR(R14, R15);
    trapJcc(CC_A, TrapKind::Unreachable, kExtraFuel);
    A.bind(NoFuel);
    // Full-width load: DeadlineNs is a nanosecond timestamp, so its
    // low byte alone says nothing about whether a deadline is armed.
    A.movRM(RCX, RBX, (int32_t)offsetof(JitCtx, DeadlineNs));
    A.testRR(RCX, RCX);
    size_t NoDl = A.jcc32(CC_E);
    flush();
    A.movRR(RDI, RBX);
    call(&JitTier::hDeadline);
    checkOp();
    A.bind(NoDl);
  };
  // Native call fast path: push the callee frame and jump straight to
  // its compiled entry, bypassing the C++ helpers that dominate the
  // cost of call-dense code. Every condition the helpers handle —
  // uncompiled callee, bound closure, unbound-virtual dispatch, arity
  // mismatch, frame-list or stack-arena growth — bails to \p SlowJs,
  // which the call site binds onto the existing helper sequence, so
  // trap ordering and semantics are exactly the helper path's. The
  // fuel check runs after the last bail-out, so each call burns fuel
  // exactly once on either path (VM_FUEL replica, same trap point as
  // the interpreter's VM_CALL).
  //
  // StaticFid >= 0: direct call, frame shape known at compile time.
  // StaticFid < 0: rcx holds the FuncId (CallInd after closure decode).
  // Register plan: rax entry, rdx meta/Fn, rsi &Frames, rdi Frames.Size,
  // r9 callee Base, r10 new StackTop, r11 callee regs; rcx/r8 scratch.
  // Returns the buffer offset of the NativeRet imm64 (AbsFixes).
  static_assert(sizeof(Vm::Frame) == 48, "fast path indexes by Size*48");
  auto emitFastCall = [&](int StaticFid, const PDesc &D, bool SkipFirst,
                          uint32_t PcNext,
                          std::vector<size_t> &SlowJs) -> size_t {
    size_t Skip = SkipFirst ? 1 : 0;
    size_t NSrc = D.NArgs - Skip;
    // Deadline-armed runs take the helper path: the periodic clock
    // probe calls into C++, which the register plan below cannot
    // survive, and deadline runs are interactive quotas, not
    // throughput paths.
    A.movRM(RAX, RBX, (int32_t)offsetof(JitCtx, DeadlineNs));
    A.testRR(RAX, RAX);
    SlowJs.push_back(A.jcc32(CC_NE));
    if (StaticFid >= 0) {
      A.movRI64(RDX, (uint64_t)(uintptr_t)&Metas[(size_t)StaticFid]);
    } else {
      A.shlRI(RCX, 5); // sizeof(FuncMeta) == 32
      A.movRI64(RDX, (uint64_t)(uintptr_t)Metas.data());
      A.addRR(RDX, RCX);
      A.movRM32(RCX, RDX, (int32_t)offsetof(FuncMeta, VirtUnbound));
      A.testRR(RCX, RCX);
      SlowJs.push_back(A.jcc32(CC_NE));
      A.movRM32(RCX, RDX, (int32_t)offsetof(FuncMeta, NumParams));
      A.cmpRI32(RCX, (int32_t)NSrc);
      SlowJs.push_back(A.jcc32(CC_NE));
    }
    A.movRM(RAX, RDX, (int32_t)offsetof(FuncMeta, Entry));
    A.testRR(RAX, RAX);
    SlowJs.push_back(A.jcc32(CC_E));
    A.movRI64(RSI, (uint64_t)(uintptr_t)&V.Frames);
    A.movRM(RDI, RSI, (int32_t)offsetof(Vm::FrameStack, Size));
    A.cmpRM(RDI, RSI, (int32_t)offsetof(Vm::FrameStack, Cap));
    SlowJs.push_back(A.jcc32(CC_AE));
    A.cmpRI32(RDI, (int32_t)Vm::kMaxFrames, true);
    SlowJs.push_back(A.jcc32(CC_AE)); // "stack overflow" trap, in order
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackTop);
    A.movRM(R9, RCX, 0);
    if (StaticFid >= 0) {
      A.leaRM(R10, R9, (int32_t)Metas[(size_t)StaticFid].NumRegs);
    } else {
      A.movRM32(R10, RDX, (int32_t)offsetof(FuncMeta, NumRegs));
      A.addRR(R10, R9);
    }
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackLen);
    A.cmpRM(R10, RCX, 0);
    SlowJs.push_back(A.jcc32(CC_A));
    // Last chance to trap before committing: the VM_FUEL replica,
    // inlined flags-only (no deadline leg — bailed above) so the live
    // registers survive. Bail-outs re-check fuel in the helper, which
    // is idempotent: the trap, if due, fires at the same Instrs count.
    A.testRR(R15, R15);
    size_t NoFuel = A.jcc32(CC_E);
    A.cmpRR(R14, R15);
    trapJcc(CC_A, TrapKind::Unreachable, kExtraFuel);
    A.bind(NoFuel);
    // Commit. r11 = callee register base = StackData + 8*StackTop.
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackData);
    A.movRM(R8, RCX, 0);
    A.leaRMIdx(R11, R8, R9, 8, 0);
    for (size_t K = 0; K != NSrc; ++K) {
      A.movRM(RCX, R12, slot(D.Args[K + Skip]));
      A.movMR(R11, (int32_t)(8 * K), RCX);
    }
    // Zero the non-parameter registers (enterCall's memset): unrolled
    // for small frames, a counted store loop otherwise.
    uint32_t StaticZero =
        StaticFid >= 0 ? Metas[(size_t)StaticFid].NumRegs - (uint32_t)NSrc
                       : 0;
    if (StaticFid >= 0 && StaticZero <= 8) {
      if (StaticZero != 0) {
        A.movRI32(RCX, 0);
        for (uint32_t J = 0; J != StaticZero; ++J)
          A.movMR(R11, (int32_t)(8 * (NSrc + J)), RCX);
      }
    } else {
      if (StaticFid >= 0)
        A.movRI32(RCX, StaticZero);
      else {
        A.movRM32(RCX, RDX, (int32_t)offsetof(FuncMeta, NumRegs));
        A.subRI(RCX, (int32_t)NSrc);
      }
      A.leaRM(R8, R11, (int32_t)(8 * NSrc));
      size_t ZHead = A.size();
      A.testRR(RCX, RCX);
      size_t ZDone = A.jcc32(CC_E);
      A.movMI32(R8, 0, 0); // qword store (REX.W)
      A.addRI(R8, 8);
      A.subRI(RCX, 1);
      A.bindTo(A.jmp32(), ZHead);
      A.bind(ZDone);
    }
    // Frame push: rcx = &Frames.Data[Size] (48-byte records).
    A.movRM(R8, RSI, (int32_t)offsetof(Vm::FrameStack, Data));
    A.leaRMIdx(RCX, RDI, RDI, 2, 0); // Size*3
    A.shlRI(RCX, 4);                 // *16 -> Size*48
    A.addRR(RCX, R8);
    // Caller resumes at PcNext on deopt or interpreter return. The
    // qword store covers Pc plus the adjacent padding — safe, and it
    // leaves no stale bytes.
    A.movMI32(RCX, (int32_t)offsetof(Vm::Frame, Pc) - 48,
              (int32_t)PcNext);
    A.movRM(R8, RCX, (int32_t)offsetof(Vm::Frame, Base) - 48);
    if (StaticFid >= 0)
      A.movRI64(RDX,
                (uint64_t)(uintptr_t)Metas[(size_t)StaticFid].Fn);
    else
      A.movRM(RDX, RDX, (int32_t)offsetof(FuncMeta, Fn));
    A.movMR(RCX, (int32_t)offsetof(Vm::Frame, Fn), RDX);
    A.movMI32(RCX, (int32_t)offsetof(Vm::Frame, Pc), 0);
    A.movMR(RCX, (int32_t)offsetof(Vm::Frame, Base), R9);
    A.movRI64(RDX, (uint64_t)(uintptr_t)&D);
    A.movMR(RCX, (int32_t)offsetof(Vm::Frame, Pending), RDX);
    A.movMR(RCX, (int32_t)offsetof(Vm::Frame, CallerBase), R8);
    size_t RetImm = A.movRI64P(RDX);
    A.movMR(RCX, (int32_t)offsetof(Vm::Frame, NativeRet), RDX);
    A.addRI(RDI, 1);
    A.movMR(RSI, (int32_t)offsetof(Vm::FrameStack, Size), RDI);
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackTop);
    A.movMR(RCX, 0, R10);
    A.movRR(R12, R11);
    A.movMR(RBX, (int32_t)offsetof(JitCtx, R), R12);
    A.jmpR(RAX);
    return RetImm;
  };

  // Native return fast path: pop the frame and jump to the caller's
  // stored native continuation. Covers the common 0/1-result shapes;
  // interpreter-pushed frames (null NativeRet), the outermost frame,
  // and multi-result descriptors fall back to hRet. \p D is the
  // callee's return descriptor (result source registers).
  auto emitFastRet = [&](const PDesc &D, std::vector<size_t> &SlowJs) {
    A.movRI64(RSI, (uint64_t)(uintptr_t)&V.Frames);
    A.movRM(RDI, RSI, (int32_t)offsetof(Vm::FrameStack, Size));
    A.movRM(R8, RSI, (int32_t)offsetof(Vm::FrameStack, Data));
    A.leaRM(RCX, RDI, -1);
    A.leaRMIdx(RDX, RCX, RCX, 2, 0);
    A.shlRI(RDX, 4);
    A.addRR(RDX, R8); // rdx = &Frames.back()
    A.movRM(RAX, RDX, (int32_t)offsetof(Vm::Frame, NativeRet));
    A.testRR(RAX, RAX);
    SlowJs.push_back(A.jcc32(CC_E));
    // NativeRet implies Pending != null (fast-path calls always set
    // it), so only the result-count shape needs checking.
    A.movRM(R9, RDX, (int32_t)offsetof(Vm::Frame, Pending));
    A.movRM32(R10, R9, (int32_t)offsetof(PDesc, NDsts));
    A.cmpRI32(R10, D.NArgs >= 1 ? 1 : 0);
    SlowJs.push_back(A.jcc32(CC_A));
    // Commit: pop, unwind the stack top, find the caller registers.
    A.movMR(RSI, (int32_t)offsetof(Vm::FrameStack, Size), RCX);
    A.movRM(R8, RDX, (int32_t)offsetof(Vm::Frame, Base));
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackTop);
    A.movMR(RCX, 0, R8);
    A.movRM(R8, RDX, (int32_t)offsetof(Vm::Frame, CallerBase));
    A.movRI64(RCX, (uint64_t)(uintptr_t)&V.StackData);
    A.movRM(RCX, RCX, 0);
    A.leaRMIdx(R8, RCX, R8, 8, 0); // r8 = caller registers
    if (D.NArgs >= 1) {
      // Callee registers stay valid until the next push, so the
      // result copies register-to-register (hRet's loop, unrolled for
      // the 0/1 shapes the guard admitted).
      A.testRR(R10, R10);
      size_t NoVal = A.jcc32(CC_E);
      A.movRM(RCX, R9, (int32_t)offsetof(PDesc, Dsts));
      A.movzxwRM(RCX, RCX, 0); // P.Dsts[0]
      A.movRM(R11, R12, slot(D.Args[0]));
      A.movMRIdx8(R8, RCX, 0, R11);
      A.bind(NoVal);
    }
    A.movRR(R12, R8);
    A.movMR(RBX, (int32_t)offsetof(JitCtx, R), R12);
    A.jmpR(RAX);
  };

  // Unconditional transfer to instruction Target (from instruction pc).
  auto branchTo = [&](uint32_t Target, size_t Pc) {
    if (Target <= Pc) { // backward: burn fuel, target offset is known
      fuelCheck();
      size_t J = A.jmp32();
      A.bindTo(J, Offs[Target]);
    } else {
      Branches.push_back({A.jmp32(), Target});
    }
  };
  // Conditional transfer: branch when CcTaken holds.
  auto condBranch = [&](Cond CcTaken, uint32_t Target, size_t Pc) {
    if (Target > Pc) {
      Branches.push_back({A.jcc32(CcTaken), Target});
    } else {
      size_t Skip = A.jcc32((Cond)(CcTaken ^ 1));
      fuelCheck();
      size_t J = A.jmp32();
      A.bindTo(J, Offs[Target]);
      A.bind(Skip);
    }
  };
  // Compare R[B] op R[C] into R[A] (Wide = 64-bit operands), leaving
  // the result in rax with flags from the test below unaffected.
  auto cmpOp = [&](const PInstr &I, Cond Cc, bool Wide) {
    A.movRI32(RAX, 0);
    if (Wide) {
      A.movRM(RCX, R12, slot(I.B));
      A.cmpRM(RCX, R12, slot(I.C));
    } else {
      A.movRM32(RCX, R12, slot(I.B));
      A.cmpRM32(RCX, R12, slot(I.C));
    }
    A.setcc(Cc, RAX);
    A.movMR(R12, slot(I.A), RAX);
  };
  // Null-checked array ref + sign-extended index + bounds check.
  // Leaves rcx = byte address of the array header, rdx = index.
  auto arrayChecked = [&](unsigned RefReg, unsigned IdxReg) {
    A.movRM(RCX, R12, slot(RefReg));
    A.testRR(RCX, RCX);
    trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
    A.movsxdRM(RDX, R12, slot(IdxReg));
    A.leaRMIdx(RCX, R13, RCX, 8, 0);
    A.cmpRM(RDX, RCX, 8); // unsigned: negative indexes are huge
    trapJcc(CC_AE, TrapKind::Bounds, kExtraNone);
  };

  for (size_t Pc = 0; Pc != N; ++Pc) {
    const PInstr &I = F.Code[Pc];
    Offs.push_back((uint32_t)A.size());
    uint32_t PcNext = (uint32_t)(Pc + 1);

    switch (I.Op) {
    case POp::Nop:
      count(false);
      break;

    case POp::ConstI:
      count(false);
      if (I.Imm >= INT32_MIN && I.Imm <= INT32_MAX) {
        A.movMI32(R12, slot(I.A), (int32_t)I.Imm);
      } else {
        A.movRI64(RAX, (uint64_t)I.Imm);
        A.movMR(R12, slot(I.A), RAX);
      }
      break;

    case POp::ConstStr:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, (uint32_t)I.Imm);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hConstStr);
      checkOp();
      break;

    case POp::Mv:
      count(false);
      A.movRM(RAX, R12, slot(I.B));
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::Add:
    case POp::Sub:
    case POp::Mul:
      count(false);
      A.movRM32(RAX, R12, slot(I.B));
      if (I.Op == POp::Add)
        A.addRM32(RAX, R12, slot(I.C));
      else if (I.Op == POp::Sub)
        A.subRM32(RAX, R12, slot(I.C));
      else
        A.imulRM32(RAX, R12, slot(I.C));
      A.movMR(R12, slot(I.A), RAX); // 32-bit ops zero-extended
      break;

    case POp::Div:
    case POp::Mod:
      count(false);
      // 64-bit idiv of sign-extended operands: INT32_MIN / -1 cannot
      // fault, and the truncated low 32 bits match the interpreter.
      A.movsxdRM(RAX, R12, slot(I.B));
      A.movsxdRM(RCX, R12, slot(I.C));
      A.testRR(RCX, RCX);
      trapJcc(CC_E, TrapKind::DivByZero, kExtraNone);
      A.cqo();
      A.idivR(RCX);
      if (I.Op == POp::Mod)
        A.movRR32(RAX, RDX);
      else
        A.movRR32(RAX, RAX); // zero-extend the 32-bit quotient
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::Neg:
      count(false);
      A.movRM32(RAX, R12, slot(I.B));
      A.negR32(RAX);
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::Lt:
      count(false);
      cmpOp(I, CC_L, false);
      break;
    case POp::Le:
      count(false);
      cmpOp(I, CC_LE, false);
      break;
    case POp::Gt:
      count(false);
      cmpOp(I, CC_G, false);
      break;
    case POp::Ge:
      count(false);
      cmpOp(I, CC_GE, false);
      break;
    case POp::EqBits:
      count(false);
      cmpOp(I, CC_E, true);
      break;
    case POp::NeBits:
      count(false);
      cmpOp(I, CC_NE, true);
      break;

    case POp::Not:
      count(false);
      A.movRI32(RCX, 0);
      A.movRM(RAX, R12, slot(I.B));
      A.testRR(RAX, RAX);
      A.setcc(CC_E, RCX);
      A.movMR(R12, slot(I.A), RCX);
      break;

    case POp::And:
    case POp::Or:
      count(false);
      A.movRI32(RAX, 0);
      A.movRI32(RCX, 0);
      A.movRM(RDX, R12, slot(I.B));
      A.testRR(RDX, RDX);
      A.setcc(CC_NE, RAX);
      A.movRM(RDX, R12, slot(I.C));
      A.testRR(RDX, RDX);
      A.setcc(CC_NE, RCX);
      if (I.Op == POp::And)
        A.andRR8(RAX, RCX);
      else
        A.orRR8(RAX, RCX);
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::NewObj:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, (uint32_t)I.Imm);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hNewObj);
      checkOp();
      break;

    case POp::NewArr:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, I.B);
      A.movRI32(RCX, (uint32_t)I.Imm);
      A.movRI32(R8, PcNext);
      call(&JitTier::hNewArr);
      checkOp();
      break;

    case POp::LdFC:
    case POp::LdF:
      count(I.Op == POp::LdFC);
      A.movRM(RCX, R12, slot(I.B));
      A.testRR(RCX, RCX);
      trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
      A.movRMIdx8(RAX, R13, RCX, (int32_t)(8 * (1 + I.Imm)));
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::StFC:
    case POp::StF:
    case POp::StFCB:
    case POp::StFB: {
      bool Fused = I.Op == POp::StFC || I.Op == POp::StFCB;
      bool Barrier = I.Op == POp::StFB || I.Op == POp::StFCB;
      count(Fused);
      A.movRM(RCX, R12, slot(I.A));
      A.testRR(RCX, RCX);
      trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
      A.movRM(RAX, R12, slot(I.B));
      A.movMRIdx8(R13, RCX, (int32_t)(8 * (1 + I.Imm)), RAX);
      if (Barrier) {
        A.leaRM(RSI, RCX, (int32_t)(1 + I.Imm)); // slot index, not bytes
        flush();
        A.movRR(RDI, RBX);
        A.movRR(RDX, RAX);
        A.movRI32(RCX, I.C != 0 ? 1 : 0);
        call(&JitTier::hBarrier);
      }
      break;
    }

    case POp::NullChk:
      count(false);
      A.movRM(RAX, R12, slot(I.A));
      A.testRR(RAX, RAX);
      trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
      break;

    case POp::LdEC:
    case POp::LdE:
      count(I.Op == POp::LdEC);
      arrayChecked(I.B, I.C);
      A.movRMIdx8(RAX, RCX, RDX, 16);
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::StEC:
    case POp::StE:
    case POp::StECB:
    case POp::StEB: {
      bool Fused = I.Op == POp::StEC || I.Op == POp::StECB;
      bool Barrier = I.Op == POp::StEB || I.Op == POp::StECB;
      count(Fused);
      if (Barrier) {
        // The bounds sequence consumes the ref register; keep the raw
        // ref in rsi for the barrier's slot-index computation.
        A.movRM(RSI, R12, slot(I.A));
      }
      arrayChecked(I.A, I.B);
      A.movRM(RAX, R12, slot(I.C));
      A.movMRIdx8(RCX, RDX, 16, RAX);
      if (Barrier) {
        A.leaRMIdx(RSI, RSI, RDX, 1, 2); // ref + idx + 2: the slot index
        flush();
        A.movRR(RDI, RBX);
        A.movRR(RDX, RAX);
        A.movRI32(RCX, I.Imm != 0 ? 1 : 0);
        call(&JitTier::hBarrier);
      }
      break;
    }

    case POp::BoundsChkC:
    case POp::BoundsChk:
      count(I.Op == POp::BoundsChkC);
      arrayChecked(I.B, I.C);
      break;

    case POp::ArrLenC:
    case POp::ArrLen:
      count(I.Op == POp::ArrLenC);
      A.movRM(RCX, R12, slot(I.B));
      A.testRR(RCX, RCX);
      trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
      A.movRMIdx8(RAX, R13, RCX, 8);
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::LdG:
      count(false);
      A.movRM(RAX, RBP, (int32_t)(8 * I.Imm));
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::StG:
      count(false);
      A.movRM(RAX, R12, slot(I.A));
      A.movMR(RBP, (int32_t)(8 * I.Imm), RAX);
      break;

    case POp::StGB:
      count(false);
      A.movRM(RAX, R12, slot(I.A));
      A.movMR(RBP, (int32_t)(8 * I.Imm), RAX);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, (uint32_t)I.Imm);
      A.movRR(RDX, RAX);
      A.movRI32(RCX, I.B != 0 ? 1 : 0);
      call(&JitTier::hGlobalBarrier);
      break;

    case POp::CallF: {
      const PDesc &D = F.Descs[I.A];
      count(false);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, Calls), 1);
      // Native fast path when the callee's frame shape is proven at
      // prepare time (CallF arity always is; the guard is defensive)
      // and small enough to inline the argument copy.
      std::vector<size_t> SlowJs;
      size_t RetImm = (size_t)-1;
      if (Metas[(size_t)I.Imm].NumParams == D.NArgs && D.NArgs <= 16)
        RetImm = emitFastCall((int)I.Imm, D, false, PcNext, SlowJs);
      for (size_t J : SlowJs)
        A.bind(J);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, (uint32_t)I.Imm);
      A.movRI64(RDX, (uint64_t)(uintptr_t)&D);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hCallF);
      dispatchCall();
      if (RetImm != (size_t)-1)
        AbsFixes.push_back({RetImm, PcNext});
      break;
    }

    case POp::CallVC: {
      const PDesc &D = F.Descs[I.A];
      count(false);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, Calls), 1);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, VCalls), 1);
      A.movRM(RCX, R12, slot(D.Args[0]));
      A.testRR(RCX, RCX);
      trapJcc(CC_E, TrapKind::NullDeref, kExtraNone);
      // Monomorphic fast path: compare the receiver's classId against
      // a patchable immediate; the paired call target is an immediate
      // patched alongside it by hCallVMiss.
      A.movRMIdx8(RAX, R13, RCX, 0); // header
      A.shrRI(RAX, 3);               // classId
      size_t ClassOff = A.cmpRI32P(RAX);
      size_t Miss = A.jcc32(CC_NE);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, IcHits), 1);
      flush();
      A.movRR(RDI, RBX);
      size_t TargetOff = A.movRI32P(RSI);
      A.movRI64(RDX, (uint64_t)(uintptr_t)&D);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hCallHit);
      dispatchCall();
      A.bind(Miss);
      Sites.push_back(IcSite{});
      IcSite &S = Sites.back();
      S.Fn = &F;
      S.IcIdx = I.B;
      S.VSlot = (int32_t)I.Imm;
      flush();
      A.movRR(RDI, RBX);
      A.movRI64(RSI, (uint64_t)(uintptr_t)&S);
      A.movRI64(RDX, (uint64_t)(uintptr_t)&D);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hCallVMiss);
      dispatchCall();
      // Seed the site from the interpreter tier's IC entry when it is
      // already warm, so a hot monomorphic site never takes the miss
      // path natively at all.
      const IcEntry &Ic = F.Ics[I.B];
      if (Ic.ClassId >= 0) {
        A.patch32(ClassOff, (uint32_t)Ic.ClassId);
        A.patch32(TargetOff, (uint32_t)Ic.Target);
      }
      NewSites.push_back({Sites.size() - 1, ClassOff, TargetOff});
      break;
    }

    case POp::CallV:
      count(false);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, Calls), 1);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, VCalls), 1);
      flush();
      A.movRR(RDI, RBX);
      A.movRI64(RSI, (uint64_t)(uintptr_t)&F.Descs[I.A]);
      A.movRI32(RDX, (uint32_t)I.Imm);
      A.movRI32(RCX, PcNext);
      call(&JitTier::hCallV);
      dispatchCall();
      break;

    case POp::CallInd: {
      const PDesc &D = F.Descs[I.A];
      count(false);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, Calls), 1);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, ICalls), 1);
      // Native fast path for unbound, non-virtual closures: decode the
      // FuncId inline and bail to the helper for everything else (null
      // — the helper raises NullDeref before fuel, like the
      // interpreter — bound receivers, and virtual dispatch).
      std::vector<size_t> SlowJs;
      size_t RetImm = (size_t)-1;
      if (D.NArgs >= 1 && D.NArgs <= 16) {
        A.movRM(RCX, R12, slot(D.Args[0]));
        A.testRR(RCX, RCX);
        SlowJs.push_back(A.jcc32(CC_E));
        A.testRI8(RCX, 1);
        SlowJs.push_back(A.jcc32(CC_NE));
        A.shrRI(RCX, 33);
        A.subRI(RCX, 1); // closureFuncId
        RetImm = emitFastCall(-1, D, true, PcNext, SlowJs);
      }
      for (size_t J : SlowJs)
        A.bind(J);
      flush();
      A.movRR(RDI, RBX);
      A.movRI64(RSI, (uint64_t)(uintptr_t)&D);
      A.movRI32(RDX, PcNext);
      call(&JitTier::hCallInd);
      dispatchCall();
      if (RetImm != (size_t)-1)
        AbsFixes.push_back({RetImm, PcNext});
      break;
    }

    case POp::CallB:
      count(false);
      A.addMI8(RBX, (int32_t)offsetof(JitCtx, Calls), 1);
      flush();
      A.movRR(RDI, RBX);
      A.movRI64(RSI, (uint64_t)(uintptr_t)&F.Descs[I.A]);
      A.movRI32(RDX, (uint32_t)I.Imm);
      call(&JitTier::hCallB);
      checkOp();
      break;

    case POp::MkClo: {
      count(false);
      int FuncId = (int)I.Imm;
      bool HasBound = I.C != 0;
      if (!HasBound) {
        A.movRI64(RAX, (uint64_t)(FuncId + 1) << 33);
        A.movMR(R12, slot(I.A), RAX);
      } else if (!V.Prep.VirtUnbound[(size_t)FuncId]) {
        // Plain bound closure: pack ((fid+1)<<33) | (bound<<1) | 1.
        A.movRM(RAX, R12, slot(I.B));
        A.shlRI(RAX, 1);
        A.movRI64(RCX, ((uint64_t)(FuncId + 1) << 33) | 1);
        A.orRR(RAX, RCX);
        A.movMR(R12, slot(I.A), RAX);
      } else {
        flush();
        A.movRR(RDI, RBX);
        A.movRI32(RSI, I.A);
        A.movRI32(RDX, I.B);
        A.movRI32(RCX, (uint32_t)FuncId);
        call(&JitTier::hMkCloVirt);
        checkOp();
      }
      break;
    }

    case POp::CastClass:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, I.B);
      A.movRI32(RCX, (uint32_t)I.Imm);
      call(&JitTier::hCastClass);
      checkOp();
      break;

    case POp::QueryClass:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, I.B);
      A.movRI32(RCX, (uint32_t)I.Imm);
      call(&JitTier::hQueryClass);
      break;

    case POp::CastIntByte:
      count(false);
      A.movRM32(RAX, R12, slot(I.B));
      A.cmpRI32(RAX, 255);
      trapJcc(CC_A, TrapKind::CastFail, kExtraIntByte); // also negatives
      A.movMR(R12, slot(I.A), RAX);
      break;

    case POp::CastFunc:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, I.B);
      A.movRI32(RCX, (uint32_t)I.Imm);
      call(&JitTier::hCastFunc);
      checkOp();
      break;

    case POp::QueryFunc:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, I.A);
      A.movRI32(RDX, I.B);
      A.movRI32(RCX, (uint32_t)I.Imm);
      call(&JitTier::hQueryFunc);
      break;

    case POp::CastNullOnly:
      count(false);
      A.movRM(RAX, R12, slot(I.B));
      A.testRR(RAX, RAX);
      trapJcc(CC_NE, TrapKind::CastFail, kExtraNone);
      A.movMI32(R12, slot(I.A), 0);
      break;

    case POp::QueryNonNull:
      count(false);
      A.movRI32(RCX, 0);
      A.movRM(RAX, R12, slot(I.B));
      A.testRR(RAX, RAX);
      A.setcc(CC_NE, RCX);
      A.movMR(R12, slot(I.A), RCX);
      break;

    case POp::Jmp:
      count(false);
      branchTo((uint32_t)I.Imm, Pc);
      break;

    case POp::JmpIfFalse:
      count(false);
      A.movRM(RAX, R12, slot(I.A));
      A.testRR(RAX, RAX);
      condBranch(CC_E, (uint32_t)I.Imm, Pc);
      break;

    case POp::BrLtF:
    case POp::BrLeF:
    case POp::BrGtF:
    case POp::BrGeF:
    case POp::BrEqF:
    case POp::BrNeF: {
      count(true);
      Cond Cc = I.Op == POp::BrLtF   ? CC_L
                : I.Op == POp::BrLeF ? CC_LE
                : I.Op == POp::BrGtF ? CC_G
                : I.Op == POp::BrGeF ? CC_GE
                : I.Op == POp::BrEqF ? CC_E
                                     : CC_NE;
      bool Wide = I.Op == POp::BrEqF || I.Op == POp::BrNeF;
      cmpOp(I, Cc, Wide);
      A.testRR(RAX, RAX);
      condBranch(CC_E, (uint32_t)I.Imm, Pc); // branch if false
      break;
    }

    case POp::AddImm:
    case POp::SubImm: {
      count(true);
      // R[C] takes the folded constant *first* (C may alias B).
      if (I.Imm >= INT32_MIN && I.Imm <= INT32_MAX) {
        A.movMI32(R12, slot(I.C), (int32_t)I.Imm);
      } else {
        A.movRI64(RAX, (uint64_t)I.Imm);
        A.movMR(R12, slot(I.C), RAX);
      }
      uint32_t U = (uint32_t)(uint64_t)I.Imm;
      int32_t Add = I.Op == POp::AddImm ? (int32_t)U : (int32_t)(0u - U);
      A.movRM32(RAX, R12, slot(I.B));
      A.addRI32(RAX, Add);
      A.movMR(R12, slot(I.A), RAX);
      break;
    }

    case POp::RetMv:
    case POp::RetOp: {
      const PDesc &D = F.Descs[I.A];
      count(I.Op == POp::RetMv);
      std::vector<size_t> SlowJs;
      emitFastRet(D, SlowJs);
      for (size_t J : SlowJs)
        A.bind(J);
      flush();
      A.movRR(RDI, RBX);
      A.movRI64(RSI, (uint64_t)(uintptr_t)&D);
      call(&JitTier::hRet);
      dispatchCall();
      break;
    }

    case POp::TrapCc:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, (uint32_t)I.Imm);
      call(&JitTier::hTrapCc);
      exitNative();
      break;

    case POp::TrapOp:
      count(false);
      flush();
      A.movRR(RDI, RBX);
      A.movRI32(RSI, (uint32_t)I.Imm);
      A.movRI32(RDX, kExtraNone);
      call(&JitTier::hTrap);
      exitNative();
      break;
    }
  }

  // Safety pad: Offs gets one entry past the last instruction, aimed at
  // an unconditional trap (no well-formed function runs off the end).
  Offs.push_back((uint32_t)A.size());
  flush();
  A.movRR(RDI, RBX);
  A.movRI32(RSI, (uint32_t)TrapKind::Unreachable);
  A.movRI32(RDX, kExtraNone);
  call(&JitTier::hTrap);
  exitNative();

  // Shared trap stubs, one per (kind, extra) pair used by the body.
  for (auto &[Key, Fixups] : TrapFixes) {
    for (size_t Pos : Fixups)
      A.bind(Pos);
    flush();
    A.movRR(RDI, RBX);
    A.movRI32(RSI, Key >> 8);
    A.movRI32(RDX, Key & 0xFF);
    call(&JitTier::hTrap);
    exitNative();
  }

  for (const BranchFix &Br : Branches)
    A.bindTo(Br.Pos, Offs[Br.Target]);

  uint8_t *Entry = Arena.install(A.Buf.data(), A.Buf.size());
  Stats.CodeBytes = Arena.codeBytes();
  if (!Entry) {
    Sites.resize(FirstSite); // deque: earlier sites keep their addresses
    F.Gate = kNoJitGate;
    ++Stats.CompileFailures;
    return false;
  }
  for (const SitePatch &P : NewSites) {
    Sites[P.Idx].ClassAddr = Entry + P.ClassOff;
    Sites[P.Idx].TargetAddr = Entry + P.TargetOff;
  }
  // Resolve the native-return continuation immediates now that the
  // install address is known. Safe W^X flip: this runs inside a
  // helper or the interpreter, never under arena code.
  if (!AbsFixes.empty() && Arena.makeWritable(Entry)) {
    for (const AbsFix &Fix : AbsFixes) {
      uint64_t Addr = (uint64_t)(uintptr_t)(Entry + Offs[Fix.TargetPc]);
      std::memcpy(Entry + Fix.ImmOff, &Addr, 8);
    }
    Arena.makeExecutable(Entry);
  }
  Fns.push_back(JitFn{Entry, (uint32_t)A.Buf.size(), std::move(Offs)});
  F.JitId = (int32_t)(Fns.size() - 1);
  // Publish the function to the fast-path dispatch table last: from
  // here on, compiled call sites may jump straight to this entry.
  Metas[(size_t)(&F - V.Prep.Funcs.data())].Entry =
      Entry + Fns.back().Offs[0];
  ++Stats.Compiles;
  Stats.CompileNs += nowNs() - T0;
  return true;
}
