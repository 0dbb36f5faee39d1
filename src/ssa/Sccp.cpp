//===- ssa/Sccp.cpp - Sparse conditional constant propagation -------------===//
///
/// Wegman/Zadeck SCCP over the SSA form: a three-level lattice
/// (Top / constant / Bot) evaluated only along executable edges, so a
/// constant that feeds a branch prunes the untaken side *before* the
/// dead path can pollute the phi meets. This subsumes the dense
/// ConstFold + CopyProp rounds: one flow-sensitive pass folds the
/// post-specialization cast/query/branch chains (paper §3.3) that the
/// block-local folder needed Rounds=3 iterations to chew through, and
/// Move RAUW propagates copies globally instead of per-block.
///
/// The transfer function mirrors opt/ConstFold.cpp exactly — 32-bit
/// wrapping arithmetic, Div/Mod folded only under a known nonzero
/// divisor, Eq/Ne only for primitive operand types or a known-null
/// side, TypeQuery through the typechecker's three-valued classifier
/// — so ssa-on and ssa-off agree instruction for instruction on what
/// is foldable and the differential oracle sees no divergence.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"
#include "types/TypeRelations.h"

#include <algorithm>
#include <cassert>

using namespace virgil;
using namespace virgil::ssa;

namespace {

struct Lat {
  enum Kind : uint8_t { Top, Cst, Bot } K = Top;
  bool IsNull = false;
  bool IsVoid = false;
  int64_t V = 0;

  static Lat top() { return Lat{}; }
  static Lat bot() { return Lat{Bot, false, false, 0}; }
  static Lat cstInt(int64_t V) { return Lat{Cst, false, false, V}; }
  static Lat cstBool(bool B) { return Lat{Cst, false, false, B ? 1 : 0}; }
  static Lat cstNull() { return Lat{Cst, true, false, 0}; }
  static Lat cstVoid() { return Lat{Cst, false, true, 0}; }

  bool sameCst(const Lat &O) const {
    return K == Cst && O.K == Cst && IsNull == O.IsNull &&
           IsVoid == O.IsVoid && V == O.V;
  }
  bool operator==(const Lat &O) const {
    return K == O.K && (K != Cst || sameCst(O));
  }
};

Lat meet(const Lat &A, const Lat &B) {
  if (A.K == Lat::Top)
    return B;
  if (B.K == Lat::Top)
    return A;
  if (A.sameCst(B))
    return A;
  return Lat::bot();
}

struct Solver {
  IrModule &M;
  IrFunction &F;
  const DomTree &DT;
  SsaInfo &Info;
  TypeRelations Rels;

  std::vector<Lat> Val;              ///< Per-register lattice value.
  std::vector<char> ExecB;           ///< Per-block executable bit.
  std::vector<char> ExecE;           ///< Per (block * 2 + succIdx) edge bit.

  Solver(IrModule &M, IrFunction &F, const DomTree &DT, SsaInfo &Info)
      : M(M), F(F), DT(DT), Info(Info), Rels(*M.Types),
        Val(F.RegTypes.size()), ExecB(F.Blocks.size(), 0),
        ExecE(F.Blocks.size() * 2, 0) {
    // Parameters and original (possibly-undefined) registers are
    // runtime values the lattice can't see through.
    for (Reg R = 0; R != (Reg)Val.size(); ++R)
      if (R < Info.FirstSsaReg)
        Val[R] = Lat::bot();
  }

  Lat get(Reg R) const { return Val[R]; }

  /// Monotonic update; returns true on change.
  bool lower(Reg R, Lat L) {
    Lat N = meet(Val[R], L);
    if (N == Val[R])
      return false;
    Val[R] = N;
    return true;
  }

  bool edgeExec(int Pred, int SuccIdx) const {
    return ExecE[(size_t)Pred * 2 + (size_t)SuccIdx] != 0;
  }

  Lat evalPhi(const IrInstr *I, int BI) {
    Lat L = Lat::top();
    const auto &Preds = DT.preds(BI);
    for (size_t Pos = 0; Pos != Preds.size(); ++Pos) {
      int PI = Preds[Pos].PredIdx;
      if (PI < 0 || !edgeExec(PI, Preds[Pos].SuccIdx))
        continue;
      L = meet(L, get(I->Args[Pos]));
      if (L.K == Lat::Bot)
        break;
    }
    return L;
  }

  Lat evalInstr(const IrInstr *I, int BI) {
    auto A = [&](size_t N) { return get(I->Args[N]); };
    switch (I->Op) {
    case Opcode::ConstInt:
    case Opcode::ConstByte:
    case Opcode::ConstBool:
      return Lat::cstInt(I->IntConst);
    case Opcode::ConstNull:
      return Lat::cstNull();
    case Opcode::ConstVoid:
      return Lat::cstVoid();
    case Opcode::Move:
      return A(0);
    case Opcode::Phi:
      return evalPhi(I, BI);
    case Opcode::IntAdd:
    case Opcode::IntSub:
    case Opcode::IntMul: {
      Lat L = A(0), R = A(1);
      if (L.K == Lat::Cst && R.K == Lat::Cst && !L.IsNull && !R.IsNull) {
        int64_t V = I->Op == Opcode::IntAdd   ? L.V + R.V
                    : I->Op == Opcode::IntSub ? L.V - R.V
                                              : L.V * R.V;
        return Lat::cstInt((int32_t)V);
      }
      return meet(L, R).K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::IntDiv:
    case Opcode::IntMod: {
      Lat L = A(0), R = A(1);
      if (L.K == Lat::Cst && R.K == Lat::Cst && R.V != 0) {
        int64_t V = I->Op == Opcode::IntDiv ? L.V / R.V : L.V % R.V;
        return Lat::cstInt((int32_t)V);
      }
      if (R.K == Lat::Cst && R.V == 0)
        return Lat::bot(); // Will trap; not foldable.
      return L.K == Lat::Top || R.K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::IntNeg: {
      Lat L = A(0);
      if (L.K == Lat::Cst)
        return Lat::cstInt((int32_t)-(int64_t)L.V);
      return L;
    }
    case Opcode::IntLt:
    case Opcode::IntLe:
    case Opcode::IntGt:
    case Opcode::IntGe: {
      Lat L = A(0), R = A(1);
      if (L.K == Lat::Cst && R.K == Lat::Cst) {
        bool V = I->Op == Opcode::IntLt   ? L.V < R.V
                 : I->Op == Opcode::IntLe ? L.V <= R.V
                 : I->Op == Opcode::IntGt ? L.V > R.V
                                          : L.V >= R.V;
        return Lat::cstBool(V);
      }
      return L.K == Lat::Top || R.K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::BoolNot: {
      Lat L = A(0);
      if (L.K == Lat::Cst)
        return Lat::cstBool(L.V == 0);
      return L;
    }
    case Opcode::BoolAnd:
    case Opcode::BoolOr: {
      Lat L = A(0), R = A(1);
      bool IsAnd = I->Op == Opcode::BoolAnd;
      // The absorbing element decides the result regardless of the
      // other side (x && false == false; x || true == true).
      if ((L.K == Lat::Cst && (IsAnd ? L.V == 0 : L.V != 0)) ||
          (R.K == Lat::Cst && (IsAnd ? R.V == 0 : R.V != 0)))
        return Lat::cstBool(!IsAnd);
      if (L.K == Lat::Cst && R.K == Lat::Cst)
        return Lat::cstBool(IsAnd ? (L.V && R.V) : (L.V || R.V));
      // The identity element passes the other side through.
      if (L.K == Lat::Cst)
        return R;
      if (R.K == Lat::Cst)
        return L;
      return L.K == Lat::Top || R.K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::Eq:
    case Opcode::Ne: {
      Lat L = A(0), R = A(1);
      if (L.K == Lat::Cst && R.K == Lat::Cst && I->TypeOperand &&
          (I->TypeOperand->kind() == TypeKind::Prim || L.IsNull ||
           R.IsNull)) {
        bool Equal = L.IsNull || R.IsNull ? (L.IsNull && R.IsNull)
                                          : L.V == R.V;
        return Lat::cstBool(I->Op == Opcode::Eq ? Equal : !Equal);
      }
      return L.K == Lat::Top || R.K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::TypeQuery: {
      Type *From = F.RegTypes[I->Args[0]];
      TypeRel Rel = Rels.queryRel(From, I->TypeOperand);
      if (Rel == TypeRel::True)
        return Lat::cstBool(true);
      if (Rel == TypeRel::False)
        return Lat::cstBool(false);
      Lat L = A(0);
      if (L.K == Lat::Cst && L.IsNull)
        return Lat::cstBool(false);
      return L.K == Lat::Top ? Lat::top() : Lat::bot();
    }
    case Opcode::TypeCast: {
      Type *From = F.RegTypes[I->Args[0]], *To = I->TypeOperand;
      Lat L = A(0);
      if (From == To || L.K == Lat::Top)
        return L;
      if (L.K != Lat::Cst || L.IsNull || L.IsVoid)
        return Lat::bot();
      // A constant folds when the cast cannot fail: byte -> int always,
      // int -> byte when the value fits. The constant takes the
      // destination's type; the operand's register is never forwarded.
      bool Safe = Rels.castRel(From, To) == TypeRel::True ||
                  (From == M.Types->intTy() && To == M.Types->byteTy() &&
                   L.V >= 0 && L.V <= 255);
      return Safe ? Lat::cstInt(L.V) : Lat::bot();
    }
    default:
      return Lat::bot();
    }
  }

  void solve() {
    if (F.Blocks.empty())
      return;
    ExecB[0] = 1;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int BI : DT.rpo()) {
        if (!ExecB[(size_t)BI])
          continue;
        IrBlock *B = F.Blocks[(size_t)BI];
        for (IrInstr *I : B->Instrs) {
          if (I->Op == Opcode::Br) {
            Changed |= markEdge(BI, 0);
          } else if (I->Op == Opcode::CondBr) {
            Lat C = get(I->Args[0]);
            if (C.K == Lat::Cst) {
              if (C.V != 0)
                Changed |= markEdge(BI, 0);
              else
                Changed |= markEdge(BI, 1);
            } else if (C.K == Lat::Bot) {
              Changed |= markEdge(BI, 0);
              Changed |= markEdge(BI, 1);
            }
          } else if (!I->Dsts.empty()) {
            Lat L = I->Dsts.size() == 1 ? evalInstr(I, BI) : Lat::bot();
            for (Reg D : I->Dsts)
              Changed |= lower(D, I->Dsts.size() == 1 ? L : Lat::bot());
          }
        }
      }
    }
  }

  bool markEdge(int BI, int SuccIdx) {
    size_t E = (size_t)BI * 2 + (size_t)SuccIdx;
    if (ExecE[E])
      return false;
    ExecE[E] = 1;
    int SI = DT.succ(BI, SuccIdx);
    if (SI >= 0)
      ExecB[(size_t)SI] = 1;
    return true;
  }
};

/// Rewrites \p I in place into the constant \p L. The result type is
/// the destination register's type (IrInstr::Ty holds the *operand*
/// type for Eq/Ne, so it can't be trusted here).
void materialize(IrModule &M, IrFunction &F, IrInstr *I, const Lat &L) {
  Type *ResTy = F.RegTypes[I->Dsts[0]];
  I->Args.clear();
  I->TypeOperand = nullptr;
  I->Callee = nullptr;
  I->TypeArgs.clear();
  I->Ty = ResTy;
  if (L.IsNull) {
    I->Op = Opcode::ConstNull;
    I->IntConst = 0;
    return;
  }
  if (L.IsVoid) {
    I->Op = Opcode::ConstVoid;
    I->IntConst = 0;
    return;
  }
  if (ResTy == M.Types->boolTy()) {
    I->Op = Opcode::ConstBool;
    I->IntConst = L.V ? 1 : 0;
  } else if (ResTy == M.Types->byteTy()) {
    I->Op = Opcode::ConstByte;
    I->IntConst = (int64_t)(uint8_t)L.V;
  } else {
    I->Op = Opcode::ConstInt;
    I->IntConst = (int32_t)L.V;
  }
}

/// Removes the phi argument corresponding to structural edge
/// (\p Pred, \p SuccIdx) of the block at position \p Target, keeping
/// phi arity in sync with the edge about to be deleted, and drops the
/// edge from \p Preds (the canonical lists by block position, kept
/// current across folds).
void dropPhiArgsForEdge(IrFunction &F,
                        std::vector<std::vector<PredEdge>> &Preds,
                        int Target, IrBlock *Pred, int SuccIdx) {
  auto &List = Preds[(size_t)Target];
  int Pos = -1;
  for (size_t P = 0; P != List.size(); ++P)
    if (List[P].Pred == Pred && List[P].SuccIdx == SuccIdx) {
      Pos = (int)P;
      break;
    }
  if (Pos < 0)
    return;
  for (IrInstr *I : F.Blocks[(size_t)Target]->Instrs) {
    if (I->Op != Opcode::Phi)
      break;
    assert(I->Args.size() == List.size() && "phi arity mismatch");
    I->Args.erase(I->Args.begin() + Pos);
  }
  List.erase(List.begin() + Pos);
}

/// Deletes blocks that became structurally unreachable after branch
/// rewiring, removing the matching phi arguments in surviving blocks
/// first so arity stays equal to the (new) structural pred count.
/// \p DT maps blocks to their (still unchanged) positions.
void removeUnreachableWithPhis(IrFunction &F, const DomTree &DT) {
  if (F.Blocks.empty())
    return;
  size_t N = F.Blocks.size();
  std::vector<char> Live(N, 0);
  std::vector<IrBlock *> Work{F.Blocks[0]};
  Live[0] = 1;
  size_t NumLive = 1;
  while (!Work.empty()) {
    IrBlock *B = Work.back();
    Work.pop_back();
    for (IrBlock *S : {B->Succ0, B->Succ1}) {
      int SI = S ? DT.indexOf(S) : -1;
      if (SI >= 0 && !Live[(size_t)SI]) {
        Live[(size_t)SI] = 1;
        ++NumLive;
        Work.push_back(S);
      }
    }
  }
  if (NumLive == N)
    return;
  auto AllPreds = computePredEdges(F);
  for (size_t BI = 0; BI != N; ++BI) {
    IrBlock *B = F.Blocks[BI];
    if (!Live[BI] || B->Instrs.empty() || B->Instrs[0]->Op != Opcode::Phi)
      continue;
    const auto &Preds = AllPreds[BI];
    for (IrInstr *I : B->Instrs) {
      if (I->Op != Opcode::Phi)
        break;
      assert(I->Args.size() == Preds.size() && "phi arity mismatch");
      size_t Out = 0;
      for (size_t P = 0; P != Preds.size(); ++P)
        if (Live[(size_t)Preds[P].PredIdx])
          I->Args[Out++] = I->Args[P];
      I->Args.resize(Out);
    }
  }
  size_t Kept = 0;
  for (size_t BI = 0; BI != N; ++BI)
    if (Live[BI])
      F.Blocks[Kept++] = F.Blocks[BI];
  F.Blocks.resize(Kept);
}

} // namespace

size_t virgil::ssa::runSccp(IrModule &M, IrFunction &F, const DomTree &DT,
                            SsaInfo &Info, OptStats &Stats) {
  if (F.Blocks.empty())
    return 0;
  Solver S(M, F, DT, Info);
  S.solve();

  size_t Changes = 0;
  Replacements Repl;
  DeadInstrs Dead(F);
  std::vector<char> RewrotePhi(F.Blocks.size(), 0);

  auto isConstOp = [](Opcode Op) {
    switch (Op) {
    case Opcode::ConstInt:
    case Opcode::ConstByte:
    case Opcode::ConstBool:
    case Opcode::ConstNull:
    case Opcode::ConstVoid:
    case Opcode::ConstString:
    case Opcode::ConstDefault:
      return true;
    default:
      return false;
    }
  };
  auto foldable = [](Opcode Op) {
    switch (Op) {
    case Opcode::Move:
    case Opcode::Phi:
    case Opcode::IntAdd:
    case Opcode::IntSub:
    case Opcode::IntMul:
    case Opcode::IntDiv:
    case Opcode::IntMod:
    case Opcode::IntNeg:
    case Opcode::IntLt:
    case Opcode::IntLe:
    case Opcode::IntGt:
    case Opcode::IntGe:
    case Opcode::BoolNot:
    case Opcode::BoolAnd:
    case Opcode::BoolOr:
    case Opcode::Eq:
    case Opcode::Ne:
    case Opcode::TypeQuery:
    case Opcode::TypeCast:
      return true;
    default:
      return false;
    }
  };

  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    if (!S.ExecB[BI])
      continue;
    IrBlock *B = F.Blocks[BI];
    for (size_t Pos = 0; Pos != B->Instrs.size(); ++Pos) {
      IrInstr *I = B->Instrs[Pos];
      if (I->Dsts.size() != 1 || isConstOp(I->Op))
        continue;
      Reg D = I->Dsts[0];
      Lat L = S.get(D);
      // Global copy propagation: a Move (or a statically-safe
      // same-type cast) forwards its operand everywhere, whatever the
      // lattice says.
      if (I->Op == Opcode::Move ||
          (I->Op == Opcode::TypeCast &&
           F.RegTypes[I->Args[0]] == I->TypeOperand)) {
        Repl.add(F, D, I->Args[0]);
        Dead.mark(BI, Pos);
        ++Stats.CopiesPropagated;
        ++Changes;
        continue;
      }
      if (!foldable(I->Op))
        continue;
      if (L.K == Lat::Cst) {
        if (I->Op == Opcode::Phi)
          RewrotePhi[BI] = 1;
        materialize(M, F, I, L);
        ++Stats.SccpFolded;
        ++Changes;
        continue;
      }
      // BoolAnd/BoolOr identity passthrough (x && true == x) shows up
      // as a Bot result whose value is provably the other operand.
      if ((I->Op == Opcode::BoolAnd || I->Op == Opcode::BoolOr) &&
          I->Args.size() == 2) {
        bool IsAnd = I->Op == Opcode::BoolAnd;
        Lat L0 = S.get(I->Args[0]), L1 = S.get(I->Args[1]);
        Reg Other = NoReg;
        if (L0.K == Lat::Cst && (IsAnd ? L0.V != 0 : L0.V == 0))
          Other = I->Args[1];
        else if (L1.K == Lat::Cst && (IsAnd ? L1.V != 0 : L1.V == 0))
          Other = I->Args[0];
        if (Other != NoReg) {
          Repl.add(F, D, Other);
          Dead.mark(BI, Pos);
          ++Stats.CopiesPropagated;
          ++Changes;
        }
      }
    }
  }

  applyReplacements(F, Repl, Info);
  eraseInstrs(F, Dead);
  // Keep the phi group contiguous at the block head: a phi folded to a
  // constant is an ordinary instruction now and moves below its
  // siblings. (The erased instructions were never phis, so partitioning
  // after the erase gives the same order as before it.)
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI)
    if (RewrotePhi[BI])
      std::stable_partition(
          F.Blocks[BI]->Instrs.begin(), F.Blocks[BI]->Instrs.end(),
          [](const IrInstr *I) { return I->Op == Opcode::Phi; });

  // Branch rewiring: statically-decided conditional branches become
  // unconditional; the untaken edge's phi argument goes first so arity
  // tracks the structural CFG. Block positions don't move until the
  // unreachable sweep, so the tree's positions stay valid; the edge
  // lists are the tree's, kept current per fold.
  std::vector<std::vector<PredEdge>> Preds;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    if (!S.ExecB[BI])
      continue;
    IrBlock *B = F.Blocks[BI];
    IrInstr *T = B->terminator();
    if (!T || T->Op != Opcode::CondBr)
      continue;
    // The condition register may have been replaced; its lattice value
    // is unchanged by RAUW (replacement implies equal value).
    Lat C = S.get(T->Args[0]);
    if (C.K != Lat::Cst)
      continue;
    int DroppedIdx = C.V != 0 ? 1 : 0;
    IrBlock *Taken = C.V != 0 ? B->Succ0 : B->Succ1;
    if (Preds.empty())
      for (size_t P = 0; P != DT.numBlocks(); ++P)
        Preds.push_back(DT.preds((int)P));
    dropPhiArgsForEdge(F, Preds, DT.succ((int)BI, DroppedIdx), B,
                       DroppedIdx);
    // The taken edge now leaves through Succ0.
    if (DroppedIdx == 0)
      for (PredEdge &E : Preds[(size_t)DT.succ((int)BI, 1)])
        if (E.Pred == B && E.SuccIdx == 1)
          E.SuccIdx = 0;
    T->Op = Opcode::Br;
    T->Args.clear();
    B->Succ0 = Taken;
    B->Succ1 = nullptr;
    ++Stats.BranchesFolded;
    ++Changes;
  }

  removeUnreachableWithPhis(F, DT);
  return Changes;
}
