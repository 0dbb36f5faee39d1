//===- jit/Jit.h - Baseline x86-64 JIT tier over prepared code --*- C++ -*-===//
///
/// \file
/// The VM's second execution tier (DESIGN.md §15): a per-function
/// template JIT that compiles the prepared PInstr stream — including
/// fused superinstructions — to x86-64, gated behind per-function
/// hotness counters (entries + taken backward branches).
///
/// Tier invisibility is the design contract. Both tiers share one
/// machine state: the register-stack arena, the frame list, globals,
/// and the heap. JIT code keeps `Frames` exactly as the interpreter
/// would (call helpers push, the return helper pops), so
///
/// * GC stack scanning works unchanged — the "frame map" for a JIT
///   frame is the same per-function RegKinds the interpreter uses;
/// * deopt is trivial: exiting native code with `Frames.back().Pc` set
///   *is* the materialized interpreter frame, and the interpreter can
///   resume any function at any pc (per-pc native offsets make the
///   reverse — OSR back into JIT code at a backward branch — equally
///   cheap);
/// * instruction accounting is exact: every block bumps the counter by
///   its interpreter dispatch count (fused ops count 2) before any
///   trap exit, and the fuel/deadline checks replicate VM_FUEL at the
///   same program points, so quotas, the differential oracle, and GC
///   scheduling cannot distinguish tiers.
///
/// Calls are native-to-native where possible: a C++ call helper does
/// the frame transition and returns either the callee's native entry
/// (the JIT jumps there — the native stack stays flat, one hardware
/// frame per VM activation) or a small sentinel directing an exit to
/// the interpreter or the driver. Monomorphic inline caches become
/// patchable compare-immediate + call-target-immediate pairs, patched
/// under W^X (RW↔RX flips happen only inside helpers, when no arena
/// code is executing) with a megamorphic cap. Deopt to the interpreter
/// happens on: calls into not-yet-compiled functions, any GC that
/// moves the heap ("GC-triggered invalidation" — the allocating
/// instruction completes first), traps (which exit with the trap
/// recorded, exactly as VM_FAIL would), and fuel/deadline exhaustion.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_JIT_JIT_H
#define VIRGIL_JIT_JIT_H

#include "jit/CodeArena.h"
#include "vm/Vm.h"

#include <deque>
#include <memory>
#include <vector>

namespace virgil {
namespace jit {

/// Exit codes handed from native code back to the driver (and used as
/// sentinels by call helpers; real code addresses are always >= 4096).
enum : uint64_t {
  kExitTrap = 1,   ///< Trap recorded via doTrap; run is over.
  kExitInterp = 2, ///< Resume the interpreter at Frames.back().
  kExitDone = 3,   ///< Frame stack ran empty: the call tree finished.
  kSentinelMax = 4096,
};

class JitTier;

/// The native execution context: one per tier, pinned in rbx while JIT
/// code runs. Hot VM state is mirrored here at tier entry and written
/// back at exit; helpers keep R (and the frame list) current across
/// calls. Standard-layout on purpose — the emitter addresses fields
/// with offsetof.
struct JitCtx {
  Vm *V = nullptr;
  JitTier *T = nullptr;
  uint64_t *R = nullptr;        ///< Stack.data() + Frames.back().Base.
  uint64_t *Gl = nullptr;       ///< Globals.data() (never moves mid-run).
  uint64_t *HeapBase = nullptr; ///< Heap space; a move forces a deopt.
  uint64_t Instrs = 0;          ///< Mirrored in r14 while native code runs.
  uint64_t FuelMax = 0;
  uint64_t DeadlineNs = 0;
  /// Counter mirrors (the interpreter keeps these in locals; native
  /// code and helpers use the mirrors, the driver syncs both ways).
  uint64_t Calls = 0;
  uint64_t VCalls = 0;
  uint64_t ICalls = 0;
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;
  uint64_t FusedExec = 0;
};

/// One patchable inline-cache call site: the addresses of the
/// compare-classId and call-target immediates inside installed code,
/// plus the shared per-function IcEntry (by index — the interpreter
/// tier updates the same entry, and resetForReuse reassigns the Ics
/// vector). Lives in a deque so emitted code can embed stable
/// pointers.
struct IcSite {
  uint8_t *ClassAddr = nullptr;
  uint8_t *TargetAddr = nullptr;
  PFunc *Fn = nullptr;
  uint32_t IcIdx = 0;
  int32_t VSlot = 0;      ///< vtable slot of the call.
  uint32_t Patches = 0;   ///< times this site was (re)patched
  bool Megamorphic = false;
};

/// Per-FuncId dispatch metadata for the native call fast path, one
/// flat 32-byte record per prepared function (the table is sized once
/// at tier construction, so its address is stable and emitted code
/// indexes it with `fid << 5`). Entry flips from null exactly once,
/// when the function compiles; everything else is fixed prepare-time
/// data. Standard-layout on purpose — the emitter uses offsetof.
struct FuncMeta {
  const uint8_t *Entry = nullptr; ///< native code at pc 0, null = not compiled
  PFunc *Fn = nullptr;
  uint32_t NumRegs = 0;
  uint32_t NumParams = 0;
  uint32_t VirtUnbound = 0; ///< CallInd must dispatch on the receiver
  uint32_t Pad = 0;
};

class JitTier {
public:
  /// \p Threshold is the hotness gate installed on every function.
  JitTier(Vm &V, uint32_t Threshold);

  /// One-time feasibility: x86-64 build, mmap+mprotect usable, and the
  /// VIRGIL_VM_JIT_SIMULATE_UNSUPPORTED test hook not set. When false
  /// the Vm never constructs a tier and runs interpreter-only.
  static bool hostSupported();

  /// True once the entry/epilogue stubs are installed; a tier that
  /// failed to bootstrap behaves exactly like an absent one.
  bool ready() const { return EnterStub != nullptr; }

  /// Native address for function \p JitId at instruction \p Pc.
  const void *entryAt(int32_t JitId, uint32_t Pc) const {
    const JitFn &F = Fns[(size_t)JitId];
    return F.Entry + F.Offs[Pc];
  }

  /// Compiles \p F now; on failure marks it permanently interpreter-only
  /// (Gate = kNoJitGate) and returns false.
  bool compileFn(PFunc &F);

  /// Runs native code starting at \p Target (an entryAt result) until
  /// it exits; returns a kExit* code. Frames/heap/counters are synced
  /// on both sides.
  int enter(const void *Target);

private:
  struct JitFn {
    uint8_t *Entry = nullptr;
    uint32_t Size = 0;
    /// Native offset of every prepared pc: any instruction boundary is
    /// an entry/OSR/resume point.
    std::vector<uint32_t> Offs;
  };

  bool installStubs();
  friend class ::virgil::Vm;

  // --- native->C++ helpers (SysV ABI via plain function pointers) ----------
  // Call-shaped helpers return a native address (>= kSentinelMax) to
  // jump to, or an exit code. Op-shaped helpers return 0 to continue
  // inline, or an exit code.
  static uint64_t hCallF(JitCtx *C, uint64_t FuncId, const PDesc *D,
                         uint64_t PcNext);
  static uint64_t hCallHit(JitCtx *C, uint64_t Target, const PDesc *D,
                           uint64_t PcNext);
  static uint64_t hCallVMiss(JitCtx *C, IcSite *Site, const PDesc *D,
                             uint64_t PcNext);
  static uint64_t hCallV(JitCtx *C, const PDesc *D, uint64_t VSlot,
                         uint64_t PcNext);
  static uint64_t hCallInd(JitCtx *C, const PDesc *D, uint64_t PcNext);
  static uint64_t hCallB(JitCtx *C, const PDesc *D, uint64_t Kind);
  static uint64_t hRet(JitCtx *C, const PDesc *D);
  static uint64_t hNewObj(JitCtx *C, uint64_t RegA, uint64_t ClassId,
                          uint64_t PcNext);
  static uint64_t hNewArr(JitCtx *C, uint64_t RegA, uint64_t RegB,
                          uint64_t Kind, uint64_t PcNext);
  static uint64_t hConstStr(JitCtx *C, uint64_t RegA, uint64_t StrIdx,
                            uint64_t PcNext);
  static uint64_t hMkCloVirt(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t FuncId);
  static uint64_t hCastClass(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t ClassId);
  static uint64_t hQueryClass(JitCtx *C, uint64_t RegA, uint64_t RegB,
                              uint64_t ClassId);
  static uint64_t hCastFunc(JitCtx *C, uint64_t RegA, uint64_t RegB,
                            uint64_t TypeIdx);
  static uint64_t hQueryFunc(JitCtx *C, uint64_t RegA, uint64_t RegB,
                             uint64_t TypeIdx);
  static uint64_t hBarrier(JitCtx *C, uint64_t SlotIdx, uint64_t Val,
                           uint64_t IsClo);
  static uint64_t hGlobalBarrier(JitCtx *C, uint64_t Idx, uint64_t Val,
                                 uint64_t IsClo);
  static uint64_t hTrap(JitCtx *C, uint64_t Kind, uint64_t ExtraId);
  static uint64_t hTrapCc(JitCtx *C, uint64_t FuncId);
  static uint64_t hDeadline(JitCtx *C);

  /// Shared tail of every call helper: tier decision for the frame
  /// just pushed — native entry if compiled (compiling it now if hot),
  /// else an interpreter exit.
  static uint64_t finishCall(JitCtx *C);
  /// VM_FUEL replica for helper-resident fuel points; returns false on
  /// a fuel/deadline trap (already recorded).
  static bool fuelOk(JitCtx *C);

  Vm &V;
  uint32_t Threshold;
  CodeArena Arena;
  JitCtx Ctx;
  std::vector<JitFn> Fns;
  /// Indexed by FuncId; sized once in the ctor (stable address).
  std::vector<FuncMeta> Metas;
  std::deque<IcSite> Sites;
  uint8_t *EnterStub = nullptr;
  uint8_t *Epilogue = nullptr;

  /// Cumulative tier counters; Vm::run reports per-run deltas of them.
  /// CodeBytes tracks the arena, stubs included.
  VmJitStats Stats;
};

} // namespace jit
} // namespace virgil

#endif // VIRGIL_JIT_JIT_H
