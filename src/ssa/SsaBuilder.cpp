//===- ssa/SsaBuilder.cpp - Pruned-SSA construction and destruction -------===//
///
/// Construction: liveness-pruned phi placement at iterated dominance
/// frontiers, then a dominator-tree renaming walk that gives every
/// definition a fresh register. Uses of a register no definition
/// reaches keep the original register — the frame default — which
/// preserves the interpreter's uninitialized-variable semantics
/// without materializing explicit defaults.
///
/// Destruction: congruence-class out-of-SSA. Values map back to their
/// original variable's register unless tainted (an optimization
/// extended their live range via RAUW, breaking the conventional-SSA
/// non-interference of the class), in which case they get a fresh
/// singleton register. Phi copies are emitted per in-edge as a
/// sequentialized parallel copy (cycle-safe), with critical edges
/// split so a copy never executes on the wrong path. Because
/// untainted classes collapse to the original register, a loop
/// variable's phi and its backedge definition coalesce to zero copies
/// — the "copy-coalescing" that keeps round-tripping free.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace virgil;
using namespace virgil::ssa;

//===----------------------------------------------------------------------===//
// Verification toggle
//===----------------------------------------------------------------------===//

namespace {

int defaultVerify() {
#ifndef NDEBUG
  return 1;
#else
  const char *V = std::getenv("VIRGIL_SSA_VERIFY");
  return V && (!std::strcmp(V, "on") || !std::strcmp(V, "1")) ? 1 : 0;
#endif
}

std::atomic<int> &verifyFlag() {
  static std::atomic<int> Flag(defaultVerify());
  return Flag;
}

} // namespace

bool virgil::ssa::ssaVerifyEnabled() { return verifyFlag().load() != 0; }
void virgil::ssa::setSsaVerifyEnabled(bool Enabled) {
  verifyFlag().store(Enabled ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

void virgil::ssa::applyReplacements(IrFunction &F, const Replacements &Repl,
                                    SsaInfo &Info) {
  if (Repl.empty())
    return;
  auto resolve = [&](Reg R) {
    // Chains are acyclic (a deleted definition never reappears as a
    // target), but bound the walk defensively.
    for (size_t Guard = 0; Guard <= Repl.size(); ++Guard) {
      Reg T = Repl[R];
      if (T == NoReg)
        return R;
      R = T;
    }
    return R;
  };
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs)
      for (Reg &A : I->Args) {
        Reg T = resolve(A);
        if (T != A) {
          A = T;
          Info.taint(T);
        }
      }
}

void virgil::ssa::eraseInstrs(IrFunction &F, const DeadInstrs &Dead) {
  if (Dead.empty())
    return;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    auto &Instrs = F.Blocks[BI]->Instrs;
    size_t Out = 0;
    for (size_t I = 0; I != Instrs.size(); ++I)
      if (!Dead.marked(BI, I))
        Instrs[Out++] = Instrs[I];
    Instrs.resize(Out);
  }
}

size_t virgil::ssa::removeUnreachableBlocks(IrFunction &F) {
  if (F.Blocks.empty())
    return 0;
  BlockIndex Index(F.Blocks);
  std::vector<char> Live(F.Blocks.size(), 0);
  std::vector<IrBlock *> Work{F.Blocks[0]};
  Live[0] = 1;
  while (!Work.empty()) {
    IrBlock *B = Work.back();
    Work.pop_back();
    for (IrBlock *S : {B->Succ0, B->Succ1}) {
      int SI = S ? Index(S) : -1;
      if (SI >= 0 && !Live[(size_t)SI]) {
        Live[(size_t)SI] = 1;
        Work.push_back(S);
      }
    }
  }
  size_t Kept = 0;
  for (size_t I = 0; I != F.Blocks.size(); ++I)
    if (Live[I])
      F.Blocks[Kept++] = F.Blocks[I];
  size_t Removed = F.Blocks.size() - Kept;
  F.Blocks.resize(Kept);
  return Removed;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

namespace {

/// Dense per-block bitsets over the original register space.
struct BitMatrix {
  size_t Words;
  std::vector<uint64_t> Bits;
  BitMatrix(size_t Blocks, size_t Regs)
      : Words((Regs + 63) / 64), Bits(Blocks * Words, 0) {}
  uint64_t *row(size_t B) { return Bits.data() + B * Words; }
  bool test(size_t B, Reg R) const {
    return (Bits[B * Words + R / 64] >> (R % 64)) & 1;
  }
  void set(size_t B, Reg R) { Bits[B * Words + R / 64] |= 1ull << (R % 64); }
};

} // namespace

size_t virgil::ssa::buildSsa(IrModule &M, IrFunction &F, const DomTree &DT,
                             SsaInfo &Info) {
  size_t NumBlocks = F.Blocks.size();
  Reg NumRegs = (Reg)F.RegTypes.size();
  Info.FirstSsaReg = NumRegs;
  Info.OrigOfSsa.clear();
  Info.Tainted.clear();
  if (NumBlocks == 0)
    return 0;

  // Liveness for pruning: Gen = upward-exposed uses, Kill = defs.
  BitMatrix Gen(NumBlocks, NumRegs), Kill(NumBlocks, NumRegs);
  BitMatrix LiveIn(NumBlocks, NumRegs), LiveOut(NumBlocks, NumRegs);
  std::vector<std::vector<int>> DefBlocks(NumRegs);
  for (size_t BI = 0; BI != NumBlocks; ++BI) {
    IrBlock *B = F.Blocks[BI];
    for (IrInstr *I : B->Instrs) {
      for (Reg A : I->Args)
        if (!Kill.test(BI, A))
          Gen.set(BI, A);
      for (Reg D : I->Dsts) {
        if (!Kill.test(BI, D))
          Kill.set(BI, D);
        auto &DB = DefBlocks[D];
        if (DB.empty() || DB.back() != (int)BI)
          DB.push_back((int)BI);
      }
    }
  }
  // Parameters are defined on entry.
  for (Reg P = 0; P != F.NumParams && P != NumRegs; ++P) {
    auto &DB = DefBlocks[P];
    if (std::find(DB.begin(), DB.end(), 0) == DB.end())
      DB.push_back(0);
  }

  // Backward liveness fixpoint (iterate in postorder for fast
  // convergence).
  size_t W = Gen.Words;
  if (W != 0) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto It = DT.rpo().rbegin(); It != DT.rpo().rend(); ++It) {
        size_t BI = (size_t)*It;
        uint64_t *Out = LiveOut.row(BI);
        for (int SuccIdx = 0; SuccIdx != 2; ++SuccIdx) {
          int SI = DT.succ((int)BI, SuccIdx);
          if (SI < 0)
            continue;
          const uint64_t *SIn = LiveIn.row((size_t)SI);
          for (size_t K = 0; K != W; ++K)
            Out[K] |= SIn[K];
        }
        uint64_t *In = LiveIn.row(BI);
        const uint64_t *G = Gen.row(BI), *Kl = Kill.row(BI);
        for (size_t K = 0; K != W; ++K) {
          uint64_t V = G[K] | (Out[K] & ~Kl[K]);
          if (V != In[K]) {
            In[K] = V;
            Changed = true;
          }
        }
      }
    }
  }

  // Pruned phi placement: iterated dominance frontier of each
  // variable's definition blocks, kept only where the variable is
  // live-in. Placeholder args reference the original variable so the
  // slot of a never-renamed (unreachable) predecessor still reads a
  // well-typed value.
  // Placed/Defd are stamped with the variable they were set for, so
  // one pair of arrays serves every variable without re-clearing. A
  // phi's variable is its (not yet renamed) destination.
  size_t PhisPlaced = 0;
  std::vector<std::vector<IrInstr *>> NewPhis(NumBlocks);
  std::vector<Reg> PlacedFor(NumBlocks, NoReg), DefdFor(NumBlocks, NoReg);
  std::vector<int> Work;
  for (Reg V = 0; V != NumRegs; ++V) {
    if (DefBlocks[V].empty())
      continue;
    Work = DefBlocks[V];
    for (int D : Work)
      DefdFor[(size_t)D] = V;
    while (!Work.empty()) {
      int N = Work.back();
      Work.pop_back();
      if (!DT.reachable(N))
        continue;
      for (int Y : DT.frontier(N)) {
        if (PlacedFor[(size_t)Y] == V || !LiveIn.test((size_t)Y, V))
          continue;
        PlacedFor[(size_t)Y] = V;
        auto *Phi = M.Nodes.make<IrInstr>();
        Phi->Op = Opcode::Phi;
        Phi->Dsts = {V};
        Phi->Args.assign(DT.preds(Y).size(), V);
        Phi->Ty = F.RegTypes[V];
        NewPhis[(size_t)Y].push_back(Phi);
        ++PhisPlaced;
        if (DefdFor[(size_t)Y] != V) {
          DefdFor[(size_t)Y] = V;
          Work.push_back(Y);
        }
      }
    }
  }
  for (size_t BI = 0; BI != NumBlocks; ++BI)
    if (!NewPhis[BI].empty()) {
      auto &Instrs = F.Blocks[BI]->Instrs;
      Instrs.insert(Instrs.begin(), NewPhis[BI].begin(), NewPhis[BI].end());
    }

  // Renaming: dominator-tree preorder walk with per-variable version
  // stacks. An empty stack means "no definition reaches here": the
  // use keeps the original register.
  std::vector<std::vector<Reg>> Stk(NumRegs);
  auto top = [&](Reg V) { return Stk[V].empty() ? V : Stk[V].back(); };
  auto newVersion = [&](Reg V) {
    Reg R = F.newReg(F.RegTypes[V]);
    Info.OrigOfSsa.push_back(V);
    return R;
  };

  // A phi's variable: its destination before renaming, the original
  // of its version after.
  auto phiVar = [&](const IrInstr *Phi) { return Info.origVar(Phi->Dsts[0]); };

  struct Frame {
    int Block;
    size_t NextChild = 0;
    size_t PushedMark = 0; ///< Pushed.size() when the block was entered.
  };
  std::vector<Reg> Pushed; ///< Variables whose stacks each frame grew.
  std::vector<Frame> Stack;
  Stack.push_back(Frame{0, 0, 0});
  bool EnterFrame = true;
  while (!Stack.empty()) {
    Frame &Fr = Stack.back();
    int BI = Fr.Block;
    IrBlock *B = F.Blocks[(size_t)BI];
    if (EnterFrame) {
      Fr.PushedMark = Pushed.size();
      // Rename this block's instructions.
      for (IrInstr *I : B->Instrs) {
        if (I->Op == Opcode::Phi) {
          Reg V = phiVar(I);
          Reg R = newVersion(V);
          I->Dsts[0] = R;
          Stk[V].push_back(R);
          Pushed.push_back(V);
          continue;
        }
        for (Reg &A : I->Args)
          A = top(A);
        for (Reg &D : I->Dsts) {
          Reg V = D;
          Reg R = newVersion(V);
          D = R;
          Stk[V].push_back(R);
          Pushed.push_back(V);
        }
      }
      // Fill phi arguments in successors for this block's out-edges.
      for (int SuccIdx = 0; SuccIdx != 2; ++SuccIdx) {
        int SI = DT.succ(BI, SuccIdx);
        if (SI < 0)
          continue;
        IrBlock *S = F.Blocks[(size_t)SI];
        const auto &Preds = DT.preds(SI);
        for (size_t Pos = 0; Pos != Preds.size(); ++Pos) {
          if (Preds[Pos].PredIdx != BI || Preds[Pos].SuccIdx != SuccIdx)
            continue;
          for (IrInstr *I : S->Instrs) {
            if (I->Op != Opcode::Phi)
              break;
            I->Args[Pos] = top(phiVar(I));
          }
        }
      }
      EnterFrame = false;
    }
    const auto &Kids = DT.children(BI);
    if (Fr.NextChild < Kids.size()) {
      int C = Kids[Fr.NextChild++];
      Stack.push_back(Frame{C, 0, 0});
      EnterFrame = true;
      continue;
    }
    while (Pushed.size() > Fr.PushedMark) {
      Stk[Pushed.back()].pop_back();
      Pushed.pop_back();
    }
    Stack.pop_back();
  }
  return PhisPlaced;
}

//===----------------------------------------------------------------------===//
// SSA dead-value elimination
//===----------------------------------------------------------------------===//

size_t virgil::ssa::removeDeadDefs(IrFunction &F, bool SelfMoves) {
  // Use counts over every argument (phi args included). A pure
  // definition whose results all have zero uses dies; its death drops
  // its operands' counts, and a definition whose count reaches zero is
  // rechecked — so a whole dead chain goes in one sweep, and the
  // survivors are exactly the repeat-until-quiet fixpoint's (deletion
  // only ever lowers counts, so the order of deletions doesn't matter).
  // A dead cycle (a phi feeding itself) keeps its own uses and stays.
  size_t NumRegs = F.RegTypes.size();
  std::vector<uint32_t> Uses(NumRegs, 0);
  // Pure definitions by register: the first defining (block, position)
  // and a link to the next, so a multiply-defined register rechecks
  // every definition.
  struct Site {
    uint32_t Block, Pos;
    int Next;
  };
  std::vector<Site> Sites;
  std::vector<int> FirstDef(NumRegs, -1);
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const auto &Instrs = F.Blocks[BI]->Instrs;
    for (size_t P = 0; P != Instrs.size(); ++P) {
      for (Reg A : Instrs[P]->Args)
        ++Uses[A];
      if (!isPure(Instrs[P]->Op))
        continue;
      for (Reg D : Instrs[P]->Dsts) {
        Sites.push_back({(uint32_t)BI, (uint32_t)P, FirstDef[D]});
        FirstDef[D] = (int)Sites.size() - 1;
      }
    }
  }
  auto deadNow = [&](const IrInstr *I) {
    if (!isPure(I->Op) || I->Dsts.empty())
      return false;
    for (Reg D : I->Dsts)
      if (Uses[D])
        return false;
    return true;
  };
  // A self-move is dead even though it reads its own result.
  auto selfMove = [&](const IrInstr *I) {
    return SelfMoves && I->Op == Opcode::Move && I->Args[0] == I->dst();
  };
  std::vector<std::pair<uint32_t, uint32_t>> Work;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI)
    for (size_t P = 0; P != F.Blocks[BI]->Instrs.size(); ++P)
      if (deadNow(F.Blocks[BI]->Instrs[P]) ||
          selfMove(F.Blocks[BI]->Instrs[P]))
        Work.push_back({(uint32_t)BI, (uint32_t)P});
  DeadInstrs Dead(F);
  size_t Removed = 0;
  while (!Work.empty()) {
    auto [BI, P] = Work.back();
    Work.pop_back();
    if (Dead.marked(BI, P))
      continue;
    Dead.mark(BI, P);
    ++Removed;
    for (Reg A : F.Blocks[BI]->Instrs[P]->Args) {
      if (--Uses[A] != 0)
        continue;
      for (int S = FirstDef[A]; S >= 0; S = Sites[(size_t)S].Next) {
        const Site &D = Sites[(size_t)S];
        if (!Dead.marked(D.Block, D.Pos) &&
            deadNow(F.Blocks[D.Block]->Instrs[D.Pos]))
          Work.push_back({D.Block, D.Pos});
      }
    }
  }
  eraseInstrs(F, Dead);
  return Removed;
}

size_t virgil::ssa::runSsaDce(IrFunction &F, SsaInfo &Info) {
  (void)Info;
  return removeDeadDefs(F, /*SelfMoves=*/false);
}

//===----------------------------------------------------------------------===//
// Destruction
//===----------------------------------------------------------------------===//

void virgil::ssa::destroySsa(IrModule &M, IrFunction &F, SsaInfo &Info,
                             SsaPassStats &Stats) {
  // Congruence-class register assignment. Untainted values collapse
  // onto their original variable's register; tainted values get a
  // fresh singleton.
  std::vector<Reg> Singleton(F.RegTypes.size(), NoReg);
  auto classReg = [&](Reg R) -> Reg {
    if (!Info.tainted(R))
      return Info.origVar(R);
    if (Singleton[R] == NoReg)
      Singleton[R] = F.newReg(F.RegTypes[R]);
    return Singleton[R];
  };

  // Tainted *parameters* still carry a caller-provided value, which a
  // fresh register wouldn't: copy it on entry. (A tainted non-param
  // original register is never written, so its fresh singleton reads
  // the same frame default and needs no copy.)
  std::vector<IrInstr *> EntryCopies;
  for (Reg P = 0; P != F.NumParams; ++P) {
    if (!Info.tainted(P))
      continue;
    Reg Fresh = classReg(P);
    auto *Mv = M.Nodes.make<IrInstr>();
    Mv->Op = Opcode::Move;
    Mv->Dsts = {Fresh};
    Mv->Args = {P};
    Mv->Ty = F.RegTypes[P];
    EntryCopies.push_back(Mv);
  }

  // Phi elimination: per in-edge parallel copies between class
  // registers, critical edges split, copies sequentialized. The edge
  // lists are computed once: a split only redirects an edge into a
  // block already handled, so every later block's list stays current.
  size_t OrigBlockCount = F.Blocks.size();
  std::vector<std::vector<PredEdge>> AllPreds;
  for (size_t BI = 0; BI != OrigBlockCount; ++BI) {
    IrBlock *B = F.Blocks[BI];
    std::vector<IrInstr *> Phis;
    for (IrInstr *I : B->Instrs) {
      if (I->Op != Opcode::Phi)
        break;
      Phis.push_back(I);
    }
    if (Phis.empty())
      continue;
    if (AllPreds.empty())
      AllPreds = computePredEdges(F);
    const std::vector<PredEdge> &Preds = AllPreds[BI];
    for (size_t Pos = 0; Pos != Preds.size(); ++Pos) {
      IrBlock *P = Preds[Pos].Pred;
      struct Copy {
        Reg Dst, Src;
        Type *Ty;
      };
      std::vector<Copy> Copies;
      for (IrInstr *Phi : Phis) {
        assert(Phi->Args.size() == Preds.size() &&
               "phi arity out of sync with predecessors");
        Reg D = classReg(Phi->Dsts[0]);
        Reg S = classReg(Phi->Args[Pos]);
        if (D != S)
          Copies.push_back({D, S, Phi->Ty});
      }
      if (Copies.empty())
        continue;
      // Split the edge when the predecessor has another successor:
      // copies must run only on this edge.
      IrBlock *Site = P;
      if (P->Succ0 && P->Succ1) {
        auto *E = M.Nodes.make<IrBlock>((uint32_t)F.Blocks.size());
        F.Blocks.push_back(E);
        auto *Jump = M.Nodes.make<IrInstr>();
        Jump->Op = Opcode::Br;
        E->Instrs.push_back(Jump);
        E->Succ0 = B;
        if (Preds[Pos].SuccIdx == 0)
          P->Succ0 = E;
        else
          P->Succ1 = E;
        Site = E;
      }
      // Sequentialize the parallel copy: emit copies whose
      // destination no other pending copy still reads; break cycles
      // by saving a destination into a temp.
      std::vector<IrInstr *> Seq;
      auto emit = [&](Reg D, Reg S, Type *Ty) {
        auto *Mv = M.Nodes.make<IrInstr>();
        Mv->Op = Opcode::Move;
        Mv->Dsts = {D};
        Mv->Args = {S};
        Mv->Ty = Ty;
        Seq.push_back(Mv);
        ++Stats.EdgeCopies;
      };
      while (!Copies.empty()) {
        bool Progress = false;
        for (size_t I = 0; I != Copies.size();) {
          Reg D = Copies[I].Dst;
          bool Read = false;
          for (size_t J = 0; J != Copies.size(); ++J)
            if (J != I && Copies[J].Src == D)
              Read = true;
          if (Read) {
            ++I;
            continue;
          }
          emit(Copies[I].Dst, Copies[I].Src, Copies[I].Ty);
          Copies.erase(Copies.begin() + I);
          Progress = true;
        }
        if (!Progress) {
          // Cycle: free one destination via a temp.
          Reg D = Copies[0].Dst;
          Reg T = F.newReg(F.RegTypes[D]);
          emit(T, D, Copies[0].Ty);
          for (Copy &C : Copies)
            if (C.Src == D)
              C.Src = T;
        }
      }
      // Insert before the site's terminator.
      assert(!Site->Instrs.empty() && "block without terminator");
      Site->Instrs.insert(Site->Instrs.end() - 1, Seq.begin(), Seq.end());
    }
    // Drop the phis.
    B->Instrs.erase(B->Instrs.begin(),
                    B->Instrs.begin() + (ptrdiff_t)Phis.size());
  }

  // Rewrite every remaining register through its class.
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs) {
      for (Reg &A : I->Args)
        A = classReg(A);
      for (Reg &D : I->Dsts)
        D = classReg(D);
    }
  if (!EntryCopies.empty()) {
    auto &Entry = F.Blocks[0]->Instrs;
    Entry.insert(Entry.begin(), EntryCopies.begin(), EntryCopies.end());
  }
}

//===----------------------------------------------------------------------===//
// Register compaction
//===----------------------------------------------------------------------===//

size_t virgil::ssa::compactRegisters(IrFunction &F) {
  size_t NumRegs = F.RegTypes.size();
  std::vector<char> Used(NumRegs, 0);
  for (Reg P = 0; P != F.NumParams && P < NumRegs; ++P)
    Used[P] = 1;
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs) {
      for (Reg A : I->Args)
        Used[A] = 1;
      for (Reg D : I->Dsts)
        Used[D] = 1;
    }
  std::vector<Reg> Map(NumRegs, NoReg);
  std::vector<Type *> NewTypes;
  NewTypes.reserve(NumRegs);
  for (size_t R = 0; R != NumRegs; ++R)
    if (Used[R]) {
      Map[R] = (Reg)NewTypes.size();
      NewTypes.push_back(F.RegTypes[R]);
    }
  if (NewTypes.size() == NumRegs)
    return 0;
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs) {
      for (Reg &A : I->Args)
        A = Map[A];
      for (Reg &D : I->Dsts)
        D = Map[D];
    }
  size_t Dropped = NumRegs - NewTypes.size();
  F.RegTypes = std::move(NewTypes);
  return Dropped;
}
