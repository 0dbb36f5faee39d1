//===- vm/Vm.cpp ----------------------------------------------------------===//

#include "vm/Vm.h"

#include "jit/Jit.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace virgil;

namespace {

/// Register-arena slots preallocated up front; grown by doubling on
/// high-water overflow and never shrunk.
constexpr size_t InitialStackSlots = 1 << 16;

/// Is class \p Sub (an id) equal to or a subclass of \p Super?
bool classSubtype(const BcModule &M, int Sub, int Super) {
  for (int C = Sub; C >= 0; C = M.Classes[C].ParentId)
    if (C == Super)
      return true;
  return false;
}

} // namespace

namespace {

/// Builds the heap configuration from the VM options: the quota caps
/// the *sum* of nursery + old space, with the documented 128 KiB (1<<14
/// slots) floor, and the nursery is carved out of that total (the Heap
/// clamps it so the old generation starts no smaller than the nursery).
HeapOptions heapOptionsFor(const VmOptions &Opts) {
  HeapOptions H;
  H.Generational = Opts.Generational;
  H.NurserySlots =
      std::max<size_t>(Opts.NurseryBytes / sizeof(uint64_t), 16);
  H.LimitSlots = (size_t)(Opts.MaxHeapBytes / sizeof(uint64_t));
  // Initial total: big enough that the default nursery fits alongside
  // an equal-size old generation, but never above the quota (so small
  // `--heap-bytes` values keep their floor semantics). Kept at 128 KiB
  // for the default nursery on purpose: the heap is zero-filled per Vm,
  // and servers/fuzzers build a fresh Vm per request, so a larger
  // default ends up mmap'd and page-faulted in on every single run
  // (measured ~10x the whole setup cost of a small program).
  H.InitialSlots = std::max<size_t>(1 << 14, 2 * H.NurserySlots);
  if (H.LimitSlots)
    H.InitialSlots =
        std::min(H.InitialSlots, std::max<size_t>(H.LimitSlots, 1 << 14));
  return H;
}

} // namespace

Vm::Vm(const BcModule &M, VmOptions Opts)
    : M(M), Options(Opts),
      Prep(prepareModule(
          M, PrepareOptions{Opts.Fuse, Opts.InlineCache, Opts.Generational})),
      TheHeap(M, heapOptionsFor(Opts)), Rels(*M.Types) {
  TheHeap.setRoots(&Stack, &StackKinds, &Globals, &StackTop);
  TheHeap.setPreCollectHook([this] { refreshStackKinds(); });
  Globals.assign(M.GlobalKinds.size(), 0);
  Stack.assign(InitialStackSlots, 0);
  StackKinds.assign(InitialStackSlots, SlotKind::Scalar);
  StackData = Stack.data();
  StackLen = Stack.size();
  Frames.reserve(1024);
  Counters.FusedStatic = Prep.Stats.fusedTotal();
  MaxInstrs = Opts.MaxInstrs;

  // Baseline JIT tier: probed per Vm (the simulate-unsupported test
  // hook must take effect per-construction, and the probe is one mmap).
  // A tier that fails to bootstrap its stubs behaves like an absent
  // one, and every function keeps the kNoJitGate sentinel so the
  // interpreter's tier check stays a single always-false compare.
  if (Options.Jit != VmOptions::JitMode::Off) {
    JitAvailable = jit::JitTier::hostSupported();
    if (JitAvailable) {
      JitT = std::make_unique<jit::JitTier>(*this, Options.JitThreshold);
      if (!JitT->ready()) {
        JitT.reset();
      } else {
        for (PFunc &F : Prep.Funcs)
          F.Gate = Options.JitThreshold;
      }
    }
  }
}

Vm::~Vm() = default;

void Vm::snapshotForReuse() {
  IcSnapshot.clear();
  IcSnapshot.reserve(Prep.Funcs.size());
  for (const PFunc &F : Prep.Funcs)
    IcSnapshot.push_back(F.Ics);
  HasReuseSnapshot = true;
}

bool Vm::resetForReuse() {
  if (!HasReuseSnapshot)
    return false;
  for (size_t I = 0; I != Prep.Funcs.size(); ++I)
    Prep.Funcs[I].Ics = IcSnapshot[I];
  TheHeap.reset();
  // The register arena stays at its high-water size (enterCall zeroes
  // every callee register beyond the copied arguments, so stale slots
  // are never read); everything else rewinds to the post-construction
  // state.
  StackTop = 0;
  Frames.clear();
  Globals.assign(M.GlobalKinds.size(), 0);
  Output.clear();
  FinalRets.clear();
  Counters = VmCounters();
  Counters.FusedStatic = Prep.Stats.fusedTotal();
  Trapped = false;
  TrapCause = VmTrapCause::None;
  TrapMessage.clear();
  MaxInstrs = Options.MaxInstrs;
  DeadlineNs = 0;
  DeadlineTick = 0;
  TickCounter = 0;
  // JIT state (compiled code, hotness, IC patches) deliberately
  // survives: warm code is part of a pooled Vm's value, and the tier
  // is observationally identical either way.
  PendingJitEntry = nullptr;
  return true;
}

bool Vm::threadedAvailable() {
#ifdef VIRGIL_VM_COMPUTED_GOTO
  return true;
#else
  return false;
#endif
}

const char *Vm::dispatchModeName() const {
  bool Threaded =
      threadedAvailable() && Options.Mode != VmOptions::Dispatch::Switch;
  return Threaded ? "threaded" : "switch";
}

void Vm::doTrap(TrapKind Kind, const std::string &Extra, VmTrapCause Cause) {
  Trapped = true;
  TrapCause = Cause;
  TrapMessage = trapKindName(Kind);
  if (!Extra.empty())
    TrapMessage += ": " + Extra;
}

uint64_t Vm::makeString(int Index) {
  const std::string &S = M.Strings[Index];
  uint64_t Ref = TheHeap.allocArray(ElemKind::Scalar, (int64_t)S.size());
  if (Ref == 0)
    return 0; // heap quota exhausted; the caller traps on the flag
  for (size_t I = 0; I != S.size(); ++I)
    TheHeap.elem(Ref, (int64_t)I) = (uint8_t)S[I];
  ++Counters.StringAllocs;
  return Ref;
}

void Vm::refreshStackKinds() {
  // Frames tile [0, StackTop) contiguously, so this covers every slot
  // the collector will scan.
  for (const Frame &F : Frames)
    std::memcpy(StackKinds.data() + F.Base, F.Fn->RegKinds,
                F.Fn->NumRegs * sizeof(SlotKind));
}

void Vm::growStack(size_t Need) {
  size_t NewCap = Stack.empty() ? InitialStackSlots : Stack.size();
  while (NewCap < Need)
    NewCap *= 2;
  Stack.resize(NewCap, 0);
  StackKinds.resize(NewCap, SlotKind::Scalar);
  StackData = Stack.data();
  StackLen = Stack.size();
}

bool Vm::enterCall(int FuncId, const PDesc *Desc, size_t CallerBase,
                   const uint64_t *PrependArg, bool SkipFirst) {
  PFunc &G = Prep.Funcs[FuncId];
  // SkipFirst: indirect calls name the closure itself in Args[0].
  size_t Provided =
      (PrependArg ? 1 : 0) +
      (Desc ? (size_t)Desc->NArgs - (SkipFirst ? 1 : 0) : 0);
  if (Provided != G.NumParams) {
    doTrap(TrapKind::Unreachable, "calling convention mismatch in '" +
                                      M.Functions[FuncId].Name + "'");
    return false;
  }
  if (Frames.size() >= kMaxFrames) {
    doTrap(TrapKind::Unreachable, "stack overflow");
    return false;
  }

  size_t Base = StackTop;
  size_t Need = Base + G.NumRegs;
  if (Need > Stack.size())
    growStack(Need);

  // Register-to-register argument copy: callee params live directly
  // above the caller frame, so this is two non-overlapping spans of the
  // same arena.
  uint64_t *Regs = Stack.data() + Base;
  size_t N = 0;
  if (PrependArg)
    Regs[N++] = *PrependArg;
  if (Desc) {
    const uint64_t *Caller = Stack.data() + CallerBase;
    const uint16_t *Args = Desc->Args;
    for (size_t I = SkipFirst ? 1 : 0; I != Desc->NArgs; ++I)
      Regs[N++] = Caller[Args[I]];
  }
  if (G.NumRegs > N)
    std::memset(Regs + N, 0, (G.NumRegs - N) * sizeof(uint64_t));
  StackTop = Need;
  Frames.push_back(Frame{&G, 0, Base, Desc, CallerBase});
  return true;
}

bool Vm::enterCallFast(int FuncId, const PDesc *Desc, size_t CallerBase) {
  PFunc &G = Prep.Funcs[FuncId];
  if (Frames.size() >= kMaxFrames) {
    doTrap(TrapKind::Unreachable, "stack overflow");
    return false;
  }
  size_t Base = StackTop;
  size_t Need = Base + G.NumRegs;
  if (Need > Stack.size())
    growStack(Need);
  uint64_t *Regs = Stack.data() + Base;
  const uint64_t *Caller = Stack.data() + CallerBase;
  const uint16_t *Args = Desc->Args;
  size_t N = Desc->NArgs;
  for (size_t I = 0; I != N; ++I)
    Regs[I] = Caller[Args[I]];
  if (G.NumRegs > N)
    std::memset(Regs + N, 0, (G.NumRegs - N) * sizeof(uint64_t));
  StackTop = Need;
  Frames.push_back(Frame{&G, 0, Base, Desc, CallerBase});
  return true;
}

bool Vm::builtin(int Kind, const PDesc &Desc, size_t Base) {
  switch (Kind) {
  case 0: { // Puts.
    uint64_t Ref = Stack[Base + Desc.Args[0]];
    if (Ref == 0) {
      doTrap(TrapKind::NullDeref);
      return false;
    }
    int64_t Len = TheHeap.arrayLen(Ref);
    for (int64_t I = 0; I != Len; ++I)
      Output.push_back((char)TheHeap.elem(Ref, I));
    return true;
  }
  case 1: // Puti.
    Output += std::to_string((int32_t)Stack[Base + Desc.Args[0]]);
    return true;
  case 2: // Putc.
    Output.push_back((char)Stack[Base + Desc.Args[0]]);
    return true;
  case 3: // Ln.
    Output.push_back('\n');
    return true;
  case 4: // Ticks.
    if (Desc.NDsts != 0)
      Stack[Base + Desc.Dsts[0]] = (uint32_t)TickCounter++;
    return true;
  case 5: { // Error.
    uint64_t Ref = Stack[Base + Desc.Args[0]];
    std::string Msg;
    if (Ref != 0) {
      int64_t Len = TheHeap.arrayLen(Ref);
      for (int64_t I = 0; I != Len; ++I)
        Msg.push_back((char)TheHeap.elem(Ref, I));
    }
    doTrap(TrapKind::UserError, Msg);
    return false;
  }
  }
  doTrap(TrapKind::Unreachable, "unknown builtin");
  return false;
}

// The execution core lives in VmLoop.inc and is included twice: once as
// the portable switch loop, once (when the compiler supports computed
// goto) as the token-threaded loop. Handler bodies are shared.

#define VM_USE_CGOTO 0
#define VM_LOOP_NAME runLoopSwitch
#include "vm/VmLoop.inc"
#undef VM_LOOP_NAME
#undef VM_USE_CGOTO

#ifdef VIRGIL_VM_COMPUTED_GOTO
#define VM_USE_CGOTO 1
#define VM_LOOP_NAME runLoopThreaded
#include "vm/VmLoop.inc"
#undef VM_LOOP_NAME
#undef VM_USE_CGOTO
#endif

bool Vm::interpLoop() {
#ifdef VIRGIL_VM_COMPUTED_GOTO
  if (Options.Mode != VmOptions::Dispatch::Switch)
    return runLoopThreaded();
#endif
  return runLoopSwitch();
}

const void *Vm::jitEntryFor(PFunc *Fn, uint32_t Pc, bool Count) {
  if (Fn->JitId < 0) {
    if (!Count || Fn->Gate == kNoJitGate || ++Fn->Hot < Fn->Gate || !JitT ||
        !JitT->compileFn(*Fn))
      return nullptr;
  }
  if (Pc)
    ++JitT->Stats.OsrEntries;
  return JitT->entryAt(Fn->JitId, Pc);
}

/// The two-tier driver: the interpreter runs until a tier check posts a
/// native entry, native code runs until it traps, finishes the frame
/// stack, or deopts back; either loop finding nothing more to do ends
/// the run. Both tiers mutate the same frames/stack/heap/counters, so
/// handoff in either direction is just "continue from Frames.back()".
bool Vm::runLoop() {
  for (;;) {
    if (PendingJitEntry) {
      const void *Entry = PendingJitEntry;
      PendingJitEntry = nullptr;
      switch (JitT->enter(Entry)) {
      case jit::kExitTrap:
        return false;
      case jit::kExitDone:
        return true;
      default: // kExitInterp: resume interpreting at Frames.back()
        break;
      }
    }
    if (!interpLoop())
      return false;
    if (!PendingJitEntry)
      return true;
  }
}

VmResult Vm::run() {
  VmResult R;
  // JIT state (compiled code, hotness, patched sites) deliberately
  // survives across runs of a pooled Vm; report per-run deltas so the
  // stats compose by summation like every other per-run counter.
  VmJitStats JitBefore = JitT ? JitT->Stats : VmJitStats();
  if (Options.DeadlineMs) {
    DeadlineNs = (uint64_t)std::chrono::duration_cast<
                     std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count() +
                 (uint64_t)Options.DeadlineMs * 1000000ull;
  }
  Globals.assign(M.GlobalKinds.size(), 0);
  if (M.InitId >= 0 && !Trapped) {
    if (enterCall(M.InitId, nullptr, 0, nullptr, false))
      runLoop();
  }
  if (M.MainId >= 0 && !Trapped) {
    if (enterCall(M.MainId, nullptr, 0, nullptr, false))
      runLoop();
    if (!Trapped && !FinalRets.empty()) {
      R.ResultBits = (int32_t)FinalRets[0];
      R.HasResult = true;
    }
  }
  R.Trapped = Trapped;
  R.Cause = TrapCause;
  R.TrapMessage = TrapMessage;
  R.Output = Output;
  R.Counters = Counters;
  R.Counters.FusedStatic = Prep.Stats.fusedTotal();
  R.Heap = TheHeap.stats();
  R.DispatchMode = dispatchModeName();
  if (JitT) {
    R.Jit = JitT->Stats;
    R.Jit -= JitBefore;
  }
  R.Jit.Available = JitAvailable;
  R.Jit.Enabled = JitT != nullptr;
  return R;
}

std::string virgil::vmStatsJson(const VmResult &R) {
  const HeapStats &H = R.Heap;
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"dispatch\":\"%s\",\"gcs\":%llu,\"gc_minor\":%llu,"
                "\"gc_major\":%llu,\"gc_minor_pause_ns\":%llu,"
                "\"gc_major_pause_ns\":%llu,\"gc_survival\":%.4f,"
                "\"barrier_hits\":%llu,\"remembered_slots\":%llu,"
                "\"trapped\":%s,",
                R.DispatchMode.c_str(), (unsigned long long)H.Collections,
                (unsigned long long)H.MinorCollections,
                (unsigned long long)H.MajorCollections,
                (unsigned long long)H.MinorPauses.SumNs,
                (unsigned long long)H.MajorPauses.SumNs, H.survivalRate(),
                (unsigned long long)H.BarrierHits,
                (unsigned long long)H.RememberedSlots,
                R.Trapped ? "true" : "false");
  return Buf + countersJson(R.Counters) + "," + countersJson(R.Jit, "jit_") +
         "}";
}
