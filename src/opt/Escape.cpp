//===- opt/Escape.cpp - Escape analysis + scalar replacement --------------===//
///
/// Two phases per function, both driven by the same alias-aware
/// classification:
///
///  1. Closure flattening: a `MakeClosure` whose value (transitively
///     through single-def `Move` aliases) is only ever the callee of
///     `call.indirect` is resolved to a direct target (CHA for virtual
///     methods) and every call site becomes a `call.func`, with the
///     bound receiver captured into a fresh register at the creation
///     site (the receiver register may be reassigned between creation
///     and call) and the creation-time null check preserved.
///
///  2. Object scalarization: a `NewObject` whose value is only ever the
///     base of `field.get`/`field.set` (or a `null.check`, or a `Move`
///     alias thereof) is replaced by one register per field —
///     `ConstDefault` at the allocation site reproduces the allocator's
///     zero-initialization, loads and stores become moves, and the
///     null checks vanish (the value is statically non-null).
///
/// Soundness conditions, checked per candidate:
///  * the candidate and every alias have exactly one definition;
///  * every use is dominated by the definition it reads;
///  * for an alias use `U` with alias def `D`: there is no execution
///    that re-runs the allocation `A` after `D` but before `U` without
///    re-running `D` — conservatively, `A` must be unreachable from `D`
///    or every path from (just after) `A` to `U` must pass through `D`.
///    Otherwise a loop back-edge could re-allocate while the alias
///    still holds the previous iteration's value, and the rewrite
///    (which reuses one set of field registers) would be wrong.
///
/// Running after copy propagation and DCE keeps the alias sets small;
/// anything the analysis cannot prove is simply left allocated.
///
//===----------------------------------------------------------------------===//

#include "opt/Escape.h"

#include "ir/PassScope.h"
#include "opt/PassManager.h"
#include "ssa/Ssa.h"
#include "support/Casting.h"

#include <map>
#include <set>
#include <vector>

using namespace virgil;

//===----------------------------------------------------------------------===//
// ClassHierarchy
//===----------------------------------------------------------------------===//

ClassHierarchy::ClassHierarchy(const IrModule &M) {
  for (IrClass *C : M.Classes) {
    if (C->Def)
      ByDef[C->Def] = C;
    for (IrClass *A = C; A; A = A->Parent)
      Subtree[A].push_back(C);
  }
}

IrClass *ClassHierarchy::resolve(Type *T) const {
  auto *CT = dyn_cast_or_null<ClassType>(T);
  if (!CT)
    return nullptr;
  auto It = ByDef.find(CT->def());
  return It == ByDef.end() ? nullptr : It->second;
}

IrFunction *ClassHierarchy::singleImpl(IrClass *Root, int Slot) const {
  if (!Root || Slot < 0)
    return nullptr;
  auto It = Subtree.find(Root);
  if (It == Subtree.end())
    return nullptr;
  IrFunction *Impl = nullptr;
  for (IrClass *C : It->second) {
    if ((size_t)Slot >= C->VTable.size())
      continue;
    IrFunction *F = C->VTable[Slot];
    if (!F)
      continue;
    if (Impl && Impl != F)
      return nullptr;
    Impl = F;
  }
  return Impl;
}

bool ClassHierarchy::inheritsFrom(const IrClass *Sub, const IrClass *Super) {
  for (const IrClass *C = Sub; C; C = C->Parent)
    if (C == Super)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Per-function analysis scaffolding
//===----------------------------------------------------------------------===//

namespace {

struct Position {
  IrBlock *B = nullptr;
  size_t I = 0;
};

struct RegUse {
  IrInstr *Instr;
  Position Pos;
};

/// Per-function analysis facts, recomputed per phase (rewrites
/// invalidate instruction positions). Dominance comes from the shared
/// memoized tree: the rewrites in this pass never add or remove blocks
/// or edges, so the same tree serves both phases of a function.
struct FuncCtx {
  IrFunction *F;
  const ssa::DomTree &DT;
  std::vector<int> DefCount;
  std::vector<Position> Def;
  std::vector<std::vector<RegUse>> Uses;

  FuncCtx(IrFunction *F, const ssa::DomTree &DT) : F(F), DT(DT) {
    // Defs and uses. Parameters count as an implicit entry definition
    // so a candidate register can never be a parameter.
    size_t R = F->RegTypes.size();
    DefCount.assign(R, 0);
    Def.assign(R, Position());
    Uses.assign(R, {});
    for (Reg P = 0; P != F->NumParams; ++P)
      ++DefCount[P];
    for (IrBlock *B : F->Blocks) {
      for (size_t I = 0; I != B->Instrs.size(); ++I) {
        IrInstr *In = B->Instrs[I];
        for (Reg A : In->Args)
          if (A < R)
            Uses[A].push_back({In, {B, I}});
        for (Reg D : In->Dsts)
          if (D < R) {
            ++DefCount[D];
            Def[D] = {B, I};
          }
      }
    }
  }

  /// Dominance is false for unreachable blocks — stricter than the old
  /// dense computation (which let unreachable code pass), but only in
  /// the conservative direction: a candidate with a use in unreachable
  /// code is rejected rather than rewritten.
  bool blockDominates(IrBlock *A, IrBlock *B) const {
    return DT.dominates(A, B);
  }

  /// True if instruction position \p A strictly dominates \p B.
  bool dominates(const Position &A, const Position &B) const {
    if (A.B == B.B)
      return A.I < B.I;
    return blockDominates(A.B, B.B);
  }

  /// True if execution starting just *after* \p From can reach (be
  /// about to execute) \p To without executing \p Avoid first. Pass
  /// null for an unconstrained reachability query.
  bool reaches(const Position &From, const Position &To,
               const Position *Avoid) const {
    auto Scan = [&](IrBlock *B, size_t Lo) -> int {
      bool HasAvoid = Avoid && Avoid->B == B && Avoid->I >= Lo;
      if (To.B == B && To.I >= Lo && (!HasAvoid || To.I < Avoid->I))
        return 1; // reached To before any barrier
      if (HasAvoid)
        return 0; // barrier blocks the rest of this block
      return -1;  // fell through; successors are reachable
    };
    int R = Scan(From.B, From.I + 1);
    if (R >= 0)
      return R == 1;
    std::set<IrBlock *> Seen;
    std::vector<IrBlock *> Work;
    auto Push = [&](IrBlock *S) {
      if (S && Seen.insert(S).second)
        Work.push_back(S);
    };
    Push(From.B->Succ0);
    Push(From.B->Succ1);
    while (!Work.empty()) {
      IrBlock *B = Work.back();
      Work.pop_back();
      int S = Scan(B, 0);
      if (S == 1)
        return true;
      if (S == 0)
        continue;
      Push(B->Succ0);
      Push(B->Succ1);
    }
    return false;
  }
};

/// Deferred block surgery: analysis runs over stable positions, then
/// each block is rebuilt once applying all deletions and insertions.
struct Rewriter {
  std::set<IrInstr *> Delete;
  std::map<IrInstr *, std::vector<IrInstr *>> InsertBefore;
  std::map<IrInstr *, std::vector<IrInstr *>> InsertAfter;

  bool empty() const {
    return Delete.empty() && InsertBefore.empty() && InsertAfter.empty();
  }

  void apply(IrFunction *F) {
    if (empty())
      return;
    for (IrBlock *B : F->Blocks) {
      std::vector<IrInstr *> Out;
      Out.reserve(B->Instrs.size());
      for (IrInstr *I : B->Instrs) {
        auto Pre = InsertBefore.find(I);
        if (Pre != InsertBefore.end())
          Out.insert(Out.end(), Pre->second.begin(), Pre->second.end());
        if (!Delete.count(I))
          Out.push_back(I);
        auto Post = InsertAfter.find(I);
        if (Post != InsertAfter.end())
          Out.insert(Out.end(), Post->second.begin(), Post->second.end());
      }
      B->Instrs = std::move(Out);
    }
  }
};

enum class AllocKind { Object, Closure };

/// One non-escaping allocation and everything its rewrite needs.
struct Candidate {
  AllocKind Kind;
  IrInstr *Alloc;
  Position AllocPos;
  Reg Root;
  // Object candidates.
  IrClass *Cls = nullptr;
  std::vector<IrInstr *> ObjUses; // FieldGet / FieldSet / NullCheck
  // Closure candidates.
  IrFunction *Target = nullptr;
  bool HasBound = false;
  bool CreationNullCheck = false; // bound virtual: trap at MakeClosure
  bool CallNullCheck = false;     // unbound virtual: trap at call site
  std::vector<IrInstr *> CallUses; // CallIndirect sites
  // Move instructions defining aliases of the root (deleted for
  // closures; left for DCE on objects, where they just copy null).
  std::vector<IrInstr *> AliasMoves;
};

bool isVoidOrTuple(Type *T) {
  if (!T)
    return true;
  if (T->kind() == TypeKind::Tuple)
    return true;
  return T->isVoid();
}

/// Walks the alias closure of the candidate's root register and checks
/// every use against the whitelist for its kind. Fills ObjUses /
/// CallUses / AliasMoves. Returns false as soon as anything escapes.
bool classifyUses(const FuncCtx &Ctx, Candidate &C) {
  std::set<Reg> InSet{C.Root};
  // (reg, def position) — the root's "definition" is the allocation.
  std::vector<std::pair<Reg, Position>> Work{{C.Root, C.AllocPos}};
  while (!Work.empty()) {
    auto [S, DefPos] = Work.back();
    Work.pop_back();
    for (const RegUse &U : Ctx.Uses[S]) {
      IrInstr *I = U.Instr;
      // Every use must read the value the dominating definition wrote.
      if (!Ctx.dominates(DefPos, U.Pos))
        return false;
      // Alias staleness: if the allocation can re-run between the
      // alias's def and this use (without the def re-running), the
      // alias would refer to the previous allocation while the scalar
      // registers hold the new one.
      if (S != C.Root && Ctx.reaches(DefPos, C.AllocPos, nullptr) &&
          Ctx.reaches(C.AllocPos, U.Pos, &DefPos))
        return false;
      switch (I->Op) {
      case Opcode::Move: {
        Reg D = I->dst();
        if (D >= Ctx.DefCount.size() || Ctx.DefCount[D] != 1)
          return false;
        if (!InSet.insert(D).second)
          return false; // two aliases merged into one register
        C.AliasMoves.push_back(I);
        Work.push_back({D, U.Pos});
        break;
      }
      case Opcode::FieldGet:
        if (C.Kind != AllocKind::Object)
          return false;
        if (I->Index < 0 || (size_t)I->Index >= C.Cls->Fields.size())
          return false;
        if (isVoidOrTuple(C.Cls->Fields[I->Index].Ty))
          return false;
        C.ObjUses.push_back(I);
        break;
      case Opcode::FieldSet:
        if (C.Kind != AllocKind::Object)
          return false;
        // Base position only; storing the candidate *into* a field
        // (even its own) publishes it.
        if (I->Args.size() != 2 || I->Args[0] != S || InSet.count(I->Args[1]))
          return false;
        if (I->Index < 0 || (size_t)I->Index >= C.Cls->Fields.size())
          return false;
        if (isVoidOrTuple(C.Cls->Fields[I->Index].Ty))
          return false;
        C.ObjUses.push_back(I);
        break;
      case Opcode::NullCheck:
        if (C.Kind != AllocKind::Object)
          return false;
        C.ObjUses.push_back(I);
        break;
      case Opcode::CallIndirect: {
        if (C.Kind != AllocKind::Closure)
          return false;
        // Callee position only; passing the closure as an argument
        // (including to itself) escapes.
        if (I->Args.empty() || I->Args[0] != S)
          return false;
        for (size_t K = 1; K != I->Args.size(); ++K)
          if (InSet.count(I->Args[K]))
            return false;
        size_t Given = (C.HasBound ? 1 : 0) + (I->Args.size() - 1);
        if (Given != C.Target->NumParams ||
            I->Dsts.size() != C.Target->RetTypes.size())
          return false;
        if (C.CallNullCheck && I->Args.size() < 2)
          return false; // unbound virtual needs a receiver argument
        C.CallUses.push_back(I);
        break;
      }
      default:
        return false; // Ret, GlobalSet, calls, casts, Eq, captures, ...
      }
    }
  }
  return true;
}

IrInstr *makeInstr(IrModule &M, Opcode Op, SourceLoc Loc) {
  auto *I = M.Nodes.make<IrInstr>();
  I->Op = Op;
  I->Loc = Loc;
  return I;
}

//===----------------------------------------------------------------------===//
// Phase 1: closure flattening
//===----------------------------------------------------------------------===//

/// Resolves the direct-call target of a MakeClosure, mirroring the
/// interpreter's dispatch rules:
///  * bound virtual method: resolved at *creation* time against the
///    receiver's dynamic type (with a null check) — CHA must prove a
///    single implementation over the receiver's static subtree;
///  * unbound virtual method: dispatched at *call* time on the first
///    argument (with a null check) — CHA over the owner's subtree;
///  * anything else calls the named function directly.
bool resolveClosureTarget(const IrFunction *F, const ClassHierarchy &CH,
                          Candidate &C) {
  IrInstr *I = C.Alloc;
  IrFunction *Callee = I->Callee;
  if (!Callee || !I->TypeArgs.empty())
    return false;
  C.HasBound = !I->Args.empty();
  bool Virtual = Callee->Slot >= 0 && Callee->OwnerClass;
  if (!Virtual) {
    C.Target = Callee;
    return true;
  }
  IrClass *Root = C.HasBound ? CH.resolve(F->RegTypes[I->Args[0]])
                             : Callee->OwnerClass;
  C.Target = CH.singleImpl(Root, Callee->Slot);
  if (C.HasBound)
    C.CreationNullCheck = true;
  else
    C.CallNullCheck = true;
  if (!C.Target || !C.Target->TypeParams.empty())
    return false;
  // Dispatch on an instance whose class leaves the slot empty traps
  // "abstract method"; a direct call would not. Only accept an impl
  // the subtree root itself carries — then every subclass inherits it
  // and the only remaining trap is the null check we keep.
  return (size_t)Callee->Slot < Root->VTable.size() &&
         Root->VTable[Callee->Slot] == C.Target;
}

size_t flattenClosures(IrModule &M, IrFunction *F, const ClassHierarchy &CH,
                       const ssa::DomTree &DT, OptStats &Stats) {
  FuncCtx Ctx(F, DT);
  std::vector<Candidate> Found;
  for (IrBlock *B : F->Blocks) {
    for (size_t I = 0; I != B->Instrs.size(); ++I) {
      IrInstr *In = B->Instrs[I];
      if (In->Op != Opcode::MakeClosure || In->Dsts.size() != 1)
        continue;
      Candidate C;
      C.Kind = AllocKind::Closure;
      C.Alloc = In;
      C.AllocPos = {B, I};
      C.Root = In->dst();
      if (C.Root >= Ctx.DefCount.size() || Ctx.DefCount[C.Root] != 1)
        continue;
      if (!resolveClosureTarget(F, CH, C))
        continue;
      if (!classifyUses(Ctx, C))
        continue;
      Found.push_back(std::move(C));
    }
  }
  if (Found.empty())
    return 0;
  Rewriter RW;
  for (Candidate &C : Found) {
    Reg Env = NoReg;
    if (C.HasBound) {
      Reg Bound = C.Alloc->Args[0];
      if (C.CreationNullCheck) {
        // The interpreter traps NullDeref when *creating* a closure
        // over a null receiver of a virtual method; keep that trap at
        // the same point even though the allocation disappears.
        IrInstr *NC = makeInstr(M, Opcode::NullCheck, C.Alloc->Loc);
        NC->Args = {Bound};
        NC->Ty = F->RegTypes[Bound];
        RW.InsertBefore[C.Alloc].push_back(NC);
      }
      // Capture the receiver now: the bound register may be reassigned
      // between closure creation and the call sites.
      Env = F->newReg(F->RegTypes[Bound]);
      IrInstr *Cap = makeInstr(M, Opcode::Move, C.Alloc->Loc);
      Cap->Dsts = {Env};
      Cap->Args = {Bound};
      Cap->Ty = F->RegTypes[Bound];
      RW.InsertBefore[C.Alloc].push_back(Cap);
    }
    for (IrInstr *Call : C.CallUses) {
      if (C.CallNullCheck) {
        // Unbound virtual method values null-check their receiver
        // argument at call time before dispatching.
        IrInstr *NC = makeInstr(M, Opcode::NullCheck, Call->Loc);
        NC->Args = {Call->Args[1]};
        NC->Ty = F->RegTypes[Call->Args[1]];
        RW.InsertBefore[Call].push_back(NC);
      }
      std::vector<Reg> Args;
      if (C.HasBound)
        Args.push_back(Env);
      Args.insert(Args.end(), Call->Args.begin() + 1, Call->Args.end());
      Call->Op = Opcode::CallFunc;
      Call->Callee = C.Target;
      Call->Args = std::move(Args);
      Call->TypeOperand = nullptr;
      Call->Index = -1;
    }
    // The allocation and its alias moves are dead by construction
    // (every transitive use was a rewritten call); removing them here
    // lets the object phase see the clean state in the same round.
    RW.Delete.insert(C.Alloc);
    for (IrInstr *Mv : C.AliasMoves)
      RW.Delete.insert(Mv);
    ++Stats.ClosuresFlattened;
  }
  RW.apply(F);
  return Found.size();
}

//===----------------------------------------------------------------------===//
// Phase 2: object scalarization
//===----------------------------------------------------------------------===//

size_t scalarizeObjects(IrModule &M, IrFunction *F, const ClassHierarchy &CH,
                        const ssa::DomTree &DT, OptStats &Stats) {
  FuncCtx Ctx(F, DT);
  std::vector<Candidate> Found;
  for (IrBlock *B : F->Blocks) {
    for (size_t I = 0; I != B->Instrs.size(); ++I) {
      IrInstr *In = B->Instrs[I];
      if (In->Op != Opcode::NewObject || In->Dsts.size() != 1)
        continue;
      Candidate C;
      C.Kind = AllocKind::Object;
      C.Alloc = In;
      C.AllocPos = {B, I};
      C.Root = In->dst();
      if (C.Root >= Ctx.DefCount.size() || Ctx.DefCount[C.Root] != 1)
        continue;
      C.Cls = CH.resolve(In->TypeOperand);
      if (!C.Cls)
        continue;
      if (!classifyUses(Ctx, C))
        continue;
      Found.push_back(std::move(C));
    }
  }
  if (Found.empty())
    return 0;
  Rewriter RW;
  for (Candidate &C : Found) {
    // One register per (non-void) field, zero-initialized where the
    // allocation sat so every path sees the allocator's defaults.
    std::vector<Reg> FieldRegs(C.Cls->Fields.size(), NoReg);
    size_t Created = 0;
    for (size_t FI = 0; FI != C.Cls->Fields.size(); ++FI) {
      Type *FT = C.Cls->Fields[FI].Ty;
      if (isVoidOrTuple(FT))
        continue; // never accessed: normalization reduced these away
      FieldRegs[FI] = F->newReg(FT);
      IrInstr *Init = makeInstr(M, Opcode::ConstDefault, C.Alloc->Loc);
      Init->Dsts = {FieldRegs[FI]};
      Init->Ty = FT;
      RW.InsertAfter[C.Alloc].push_back(Init);
      ++Created;
    }
    // The root register stays defined (aliases still copy it until DCE
    // runs) but now holds null — no use can observe it: every
    // whitelisted use is rewritten below.
    C.Alloc->Op = Opcode::ConstNull;
    C.Alloc->TypeOperand = nullptr;
    for (IrInstr *I : C.ObjUses) {
      switch (I->Op) {
      case Opcode::FieldGet:
        I->Args = {FieldRegs[I->Index]};
        I->Op = Opcode::Move;
        I->TypeOperand = nullptr;
        I->Index = -1;
        break;
      case Opcode::FieldSet:
        I->Dsts = {FieldRegs[I->Index]};
        I->Args = {I->Args[1]};
        I->Ty = F->RegTypes[I->Dsts[0]];
        I->Op = Opcode::Move;
        I->TypeOperand = nullptr;
        I->Index = -1;
        break;
      case Opcode::NullCheck:
        RW.Delete.insert(I); // statically non-null
        break;
      default:
        break;
      }
    }
    ++Stats.AllocsElided;
    Stats.FieldsScalarized += Created;
  }
  RW.apply(F);
  (void)CH;
  return Found.size();
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

size_t virgil::scalarReplaceAllocations(IrModule &M, OptStats &Stats,
                                        ssa::DominatorAnalysis *DomA,
                                        PassScope *Scope) {
  // Object layouts must be concrete and scalar-only (post-mono,
  // post-norm), and shared modules carry representative metadata the
  // rewrite must not consult — same discipline as the other passes.
  if (!M.Monomorphized || !M.Normalized || M.Shared)
    return 0;
  ClassHierarchy CH(M);
  // Standalone callers (tests) get a local throwaway analysis; the
  // pass manager threads its shared one through.
  ssa::DominatorAnalysis Local;
  ssa::DominatorAnalysis &DA = DomA ? *DomA : Local;
  size_t Changes = 0;
  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    IrFunction *F = M.Functions[FI];
    if (F->Blocks.empty() || !visits(Scope, FI))
      continue;
    const ssa::DomTree &DT = DA.get(F);
    size_t N = flattenClosures(M, F, CH, DT, Stats);
    N += scalarizeObjects(M, F, CH, DT, Stats);
    if (N)
      markChanged(Scope, FI);
    Changes += N;
  }
  return Changes;
}
