//===- vm/Vm.h - Bytecode virtual machine -----------------------*- C++ -*-===//
///
/// \file
/// Executes BcModules: the compiled counterpart of the reference
/// interpreter. Where the interpreter pays for boxed tuples, runtime
/// type arguments, and dynamic calling-convention checks, the VM runs
/// the normalized program with none of those: all calls pass scalar
/// slots, functions return multiple values through a return buffer
/// ("multiple return registers"), closures are flat packed slots, and
/// the only remaining dynamic type machinery is class-id subtype walks
/// for explicit casts/queries.
///
/// The execution core is a fast interpreter (DESIGN.md §9): modules
/// are rewritten at load time by BcPrepare (decoded form,
/// superinstruction fusion, monomorphic inline caches on virtual call
/// sites), dispatch is token-threaded via computed goto where the
/// compiler supports it (VIRGIL_VM_COMPUTED_GOTO, with a portable
/// switch fallback), frames live in a preallocated stack arena with
/// register-to-register argument copying, and the fuel check is
/// amortized to calls and backward branches.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_VM_VM_H
#define VIRGIL_VM_VM_H

#include "core/Counters.h"
#include "core/FeatureAxis.h"
#include "types/TypeRelations.h"
#include "vm/BcPrepare.h"
#include "vm/Heap.h"

#include <memory>
#include <string>

namespace virgil {

namespace jit {
class JitTier;
}

/// Execution-engine knobs (the E12 ablation axes) plus the per-run
/// resource quotas the server relies on for request isolation.
/// Defaults are the fast path with no limits; the naive legs exist for
/// benchmarking and differential tests.
struct VmOptions {
  enum class Dispatch : uint8_t {
    Auto,     ///< Threaded when compiled in, else switch.
    Switch,   ///< Portable switch dispatch.
    Threaded, ///< Token-threaded computed goto (if available).
  };
  Dispatch Mode = Dispatch::Auto;
  bool Fuse = true;
  bool InlineCache = true;
  /// Instruction budget (0 = unlimited); exceeding it traps with cause
  /// Fuel. Same accounting as setMaxInstrs.
  uint64_t MaxInstrs = 0;
  /// Heap quota in bytes (0 = unlimited; floor is the initial heap,
  /// 128 KiB). Exceeding it traps with cause Heap.
  uint64_t MaxHeapBytes = 0;
  /// Wall-clock budget in milliseconds measured from run() (0 =
  /// unlimited). Checked every few thousand fuel events, so a runaway
  /// stops within a few thousand calls/loop-iterations of the
  /// deadline. Traps with cause Deadline.
  uint32_t DeadlineMs = 0;
  /// Two-generation heap (nursery + promotion + write barrier). Off =
  /// the old single-space semispace collector, kept for ablation and
  /// differential fuzzing; both modes are observationally identical.
  /// The four engine settings below default from their FeatureAxes rows
  /// (core/FeatureAxis.h): gc, nursery-bytes, jit, jit-threshold.
  bool Generational = axisDefault(Axis::Gc) != 0;
  /// Nursery size in bytes (generational mode only).
  uint32_t NurseryBytes = axisDefault(Axis::NurseryBytes);
  /// Baseline JIT tier (src/jit, DESIGN.md §15). Auto and On both run
  /// the tier when the host supports it (x86-64 with executable
  /// mappings) and fall back to interpreter-only when it does not;
  /// Off pins the interpreter. Both tiers are observationally
  /// identical — same results, output, traps, and executed-instruction
  /// counts.
  enum class JitMode : uint8_t { Auto, On, Off };
  JitMode Jit = JitMode(axisDefault(Axis::Jit));
  /// Hotness gate: a function tiers up once its entries + taken
  /// backward branches cross this count (0 = compile at first use).
  uint32_t JitThreshold = axisDefault(Axis::JitThreshold);
};

/// Why a run trapped: a fault in the program itself, or one of the
/// resource quotas. The server maps these onto wire-level outcomes.
enum class VmTrapCause : uint8_t {
  None = 0,
  Program,  ///< Null deref, bounds, cast, div-by-zero, user error...
  Fuel,     ///< Instruction budget exceeded.
  Heap,     ///< Heap byte quota exceeded.
  Deadline, ///< Wall-clock deadline exceeded.
};

struct VmResult {
  bool Trapped = false;
  VmTrapCause Cause = VmTrapCause::None;
  std::string TrapMessage;
  /// First return value of main as raw bits (int32 for int mains).
  int64_t ResultBits = 0;
  bool HasResult = false;
  std::string Output;
  VmCounters Counters;
  HeapStats Heap;
  /// JIT activity of this run alone: the tier's compiled code and
  /// counters survive pooled reuse, so runs report deltas that sum.
  VmJitStats Jit;
  /// "threaded" or "switch" — what actually ran.
  std::string DispatchMode;
};

/// The --vm-stats document of \p R: one JSON object with the
/// VmCounters rows, the heap's GC counters, the VmJitStats rows keyed
/// "jit_<key>", the dispatch mode and whether the run trapped.
std::string vmStatsJson(const VmResult &R);

class Vm {
public:
  explicit Vm(const BcModule &M, VmOptions Options = VmOptions());
  ~Vm();

  /// Runs $init then main.
  VmResult run();

  /// Optional fuel limit (0 = unlimited); exceeding it traps. Checked
  /// at calls and backward branches, so a runaway stops within one
  /// basic block of the budget.
  void setMaxInstrs(uint64_t Max) { MaxInstrs = Max; }

  /// Warm-VM pooling support (src/exec/VmPool). snapshotForReuse()
  /// captures the post-prepare state a run can mutate — today exactly
  /// the per-function inline-cache tables — and must be called before
  /// the first run(). resetForReuse() restores that snapshot, rewinds
  /// the heap in place (Heap::reset), and clears all per-run state
  /// (stack extent, globals, output, counters, trap state, tick
  /// counter, deadline), leaving the Vm observationally identical to a
  /// freshly constructed one with the same module and options: same
  /// outcomes, traps, executed-instruction counts, and GC activity.
  /// Returns false (and touches nothing) if no snapshot was taken.
  void snapshotForReuse();
  bool resetForReuse();
  /// Re-arms the per-run quotas a pooled Vm may vary between requests.
  /// Heap sizing is deliberately NOT settable here: it shapes GC
  /// behavior, so the pool keys on it instead.
  void setRunQuotas(uint64_t Fuel, uint32_t DeadlineMs) {
    MaxInstrs = Fuel;
    Options.DeadlineMs = DeadlineMs;
  }

  /// Forces a GC between runs (benchmarks).
  Heap &heap() { return TheHeap; }

  /// Was computed-goto dispatch compiled into this binary?
  static bool threadedAvailable();
  /// The dispatch mode this Vm will use ("threaded" or "switch").
  const char *dispatchModeName() const;

  const PrepareStats &prepareStats() const { return Prep.Stats; }

private:
  struct Frame {
    PFunc *Fn;
    uint32_t Pc;
    size_t Base;
    /// Where our return values go in the caller (null for the
    /// outermost frame).
    const PDesc *Pending;
    size_t CallerBase;
    /// Native continuation in the caller's compiled code when this
    /// frame was pushed by a JIT fast-path call site; null for frames
    /// pushed by the interpreter or by the C++ call helpers. Purely a
    /// fast-return hint — deopt and interpreter returns ignore it and
    /// resume the caller at Pc.
    const void *NativeRet = nullptr;
  };

  /// Frame depth beyond which enterCall reports "stack overflow"
  /// (runaway recursion guard, matches the reference interpreter). The
  /// JIT's native call path bails to the helpers at the same depth.
  static constexpr size_t kMaxFrames = 100000;

  /// The frame list as a POD {Data, Size, Cap} triple so JIT fast
  /// paths can address it with fixed offsets (std::vector's layout is
  /// not ours to assume). Grows like a vector; the JIT's native call
  /// path bails to the C++ helpers when Size == Cap, so only helpers
  /// and the interpreter ever reallocate.
  struct FrameStack {
    Frame *Data = nullptr;
    size_t Size = 0;
    size_t Cap = 0;

    FrameStack() = default;
    FrameStack(const FrameStack &) = delete;
    FrameStack &operator=(const FrameStack &) = delete;
    ~FrameStack() { delete[] Data; }

    Frame &back() { return Data[Size - 1]; }
    const Frame &back() const { return Data[Size - 1]; }
    Frame &operator[](size_t I) { return Data[I]; }
    const Frame &operator[](size_t I) const { return Data[I]; }
    Frame *begin() { return Data; }
    Frame *end() { return Data + Size; }
    const Frame *begin() const { return Data; }
    const Frame *end() const { return Data + Size; }
    size_t size() const { return Size; }
    bool empty() const { return Size == 0; }
    void clear() { Size = 0; }
    void pop_back() { --Size; }
    void push_back(const Frame &F) {
      if (Size == Cap)
        reserve(Cap ? Cap * 2 : 1024);
      Data[Size++] = F;
    }
    void reserve(size_t N) {
      if (N <= Cap)
        return;
      Frame *Next = new Frame[N];
      for (size_t I = 0; I != Size; ++I)
        Next[I] = Data[I];
      delete[] Data;
      Data = Next;
      Cap = N;
    }
  };

  bool enterCall(int FuncId, const PDesc *Desc, size_t CallerBase,
                 const uint64_t *PrependArg, bool SkipFirst);
  /// CallF fast path: arity was proven at prepare time, no prepended
  /// receiver, no closure slot to skip.
  bool enterCallFast(int FuncId, const PDesc *Desc, size_t CallerBase);
  /// Rewrites StackKinds for the live extent from the frame list (the
  /// heap's pre-collect hook; see Heap::setPreCollectHook).
  void refreshStackKinds();
  void growStack(size_t Need);
  void doTrap(TrapKind Kind, const std::string &Extra = "",
              VmTrapCause Cause = VmTrapCause::Program);
  bool runLoop();
  bool interpLoop();
  bool runLoopSwitch();
#ifdef VIRGIL_VM_COMPUTED_GOTO
  bool runLoopThreaded();
#endif
  uint64_t makeString(int Index);
  bool builtin(int Kind, const PDesc &Desc, size_t Base);
  /// Tier check for a function whose Gate is armed: the native entry
  /// for \p Fn at \p Pc if it is (or just became) compiled, else null.
  /// \p Count bumps the hotness counter and may trigger a compile;
  /// resume-only sites (returns into a caller) pass false.
  const void *jitEntryFor(PFunc *Fn, uint32_t Pc, bool Count);

  const BcModule &M;
  VmOptions Options;
  PreparedModule Prep;
  Heap TheHeap;
  TypeRelations Rels;
  /// Register stack arena: a preallocated high-water-grown slab.
  /// [0, StackTop) is live; the GC scans exactly that extent using the
  /// parallel per-slot kinds.
  std::vector<uint64_t> Stack;
  std::vector<SlotKind> StackKinds;
  size_t StackTop = 0;
  /// Mirrors of Stack.data()/Stack.size(), kept current by the ctor
  /// and growStack so JIT fast paths can check capacity and compute
  /// frame bases with plain absolute loads.
  uint64_t *StackData = nullptr;
  size_t StackLen = 0;
  std::vector<uint64_t> Globals;
  FrameStack Frames;
  std::string Output;
  VmCounters Counters;
  bool Trapped = false;
  VmTrapCause TrapCause = VmTrapCause::None;
  std::string TrapMessage;
  uint64_t MaxInstrs = 0;
  /// Absolute steady-clock deadline in nanoseconds (0 = none), armed
  /// by run() from Options.DeadlineMs.
  uint64_t DeadlineNs = 0;
  /// Countdown between clock reads on the fuel-check path.
  int32_t DeadlineTick = 0;
  int32_t TickCounter = 0;
  std::vector<int64_t> FinalRets;
  /// Post-prepare inline-cache tables, captured by snapshotForReuse()
  /// (one vector per function, empty until a snapshot is taken).
  std::vector<std::vector<IcEntry>> IcSnapshot;
  bool HasReuseSnapshot = false;
  /// The baseline JIT tier (null when disabled or unsupported); shares
  /// this Vm's frames, stack arena, globals, and heap, so both tiers
  /// see one machine state. Survives resetForReuse — warm code is part
  /// of the pool's value.
  std::unique_ptr<jit::JitTier> JitT;
  bool JitAvailable = false;
  /// Set by the interpreter loop to hand control to native code at
  /// this address; consumed by the runLoop driver.
  const void *PendingJitEntry = nullptr;

  friend class jit::JitTier;
};

} // namespace virgil

#endif // VIRGIL_VM_VM_H
