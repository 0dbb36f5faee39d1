//===- ssa/LoadStoreElim.cpp - Dominance-based load/store elimination -----===//
///
/// Three memory optimizations over the SSA form, all driven by the
/// shared dominator tree:
///
/// * Redundant load elimination: a FieldGet whose (SSA base, field)
///   was read or written by a dominating access — with no intervening
///   call or same-field store — reuses the dominating value; same for
///   GlobalGet per global index. Deleting the load is trap-safe: the
///   base is the *same SSA value* the dominating access already
///   null-checked, so the check it carried is provably redundant too.
///
/// * Same-block dead-store kill: a FieldSet/GlobalSet overwritten by a
///   later store to the same (base, index) with only pure instructions
///   between dies. The purity requirement excludes calls and loads
///   (which could observe the killed store) and trapping instructions
///   (removing the store's own null check must not let a *different*
///   trap fire first and change the reported failure).
///
/// * Redundant NullCheck removal: a check dominated by any null-
///   checking access of the same SSA value is a no-op.
///
/// The walk is EarlyCSE-style: availability tables are scoped to the
/// dominator subtree (undo logs restore them on exit), while clobber
/// clocks — per-field, per-global, and one for calls — are monotonic
/// and never rolled back, so a clobber inside an earlier sibling's
/// subtree correctly invalidates facts an ancestor recorded. Aliasing
/// is structural: distinct field indices never alias, arrays never
/// alias fields, fields never alias globals; any call clobbers all
/// memory.
///
/// Soundness of the clock scheme depends on visit order: dominator-
/// tree children are ordered by RPO (see DomTree::compute), so when a
/// block is entered every predecessor reached by a forward edge — and
/// therefore every store on an acyclic path from a dominating access —
/// has already been scanned and bumped its clocks. The one exception
/// is a back edge: its source is scanned *after* the loop header, so a
/// block with an unvisited predecessor treats the loop body as an
/// unknown clobber and raises the all-memory barrier on entry.
/// Non-null facts are exempt: they describe SSA values, which cannot
/// become null again once proven non-null.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

using namespace virgil;
using namespace virgil::ssa;

namespace {

struct Avail {
  Reg R = NoReg;
  uint64_t T = 0; ///< Clock at which the fact was established.
};

bool isCall(Opcode Op) {
  switch (Op) {
  case Opcode::CallFunc:
  case Opcode::CallVirtual:
  case Opcode::CallIndirect:
  case Opcode::CallBuiltin:
    return true;
  default:
    return false;
  }
}

/// Does executing \p Op prove Args[0] (its base operand) is non-null?
bool nullChecksBase(Opcode Op) {
  switch (Op) {
  case Opcode::FieldGet:
  case Opcode::FieldSet:
  case Opcode::NullCheck:
  case Opcode::ArrayGet:
  case Opcode::ArraySet:
  case Opcode::ArrayLen:
  case Opcode::BoundsCheck:
    return true;
  default:
    return false;
  }
}

/// Same-block dead-store kill (see file comment for the safety rule).
/// A store closes every other kill window before opening its own, so
/// at most one store is pending at a time.
size_t killDeadStores(IrFunction &F, DeadInstrs &Dead, OptStats &Stats) {
  size_t Killed = 0;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const auto &Instrs = F.Blocks[BI]->Instrs;
    const IrInstr *Pending = nullptr;
    size_t PendingPos = 0;
    for (size_t P = 0; P != Instrs.size(); ++P) {
      const IrInstr *I = Instrs[P];
      if (I->Op == Opcode::FieldSet || I->Op == Opcode::GlobalSet) {
        if (Pending && Pending->Op == I->Op && Pending->Index == I->Index &&
            (I->Op == Opcode::GlobalSet || Pending->Args[0] == I->Args[0])) {
          Dead.mark(BI, PendingPos);
          ++Killed;
          ++Stats.StoresKilled;
        }
        Pending = I;
        PendingPos = P;
        continue;
      }
      if (I->Op == Opcode::GlobalGet) {
        // Pure, but it observes the global: only that window closes.
        if (Pending && Pending->Op == Opcode::GlobalSet &&
            Pending->Index == I->Index)
          Pending = nullptr;
        continue;
      }
      if (!isPure(I->Op))
        Pending = nullptr;
    }
  }
  return Killed;
}

/// Grows \p V so index \p I exists.
template <typename T> T &at(std::vector<T> &V, size_t I) {
  if (V.size() <= I)
    V.resize(I + 1);
  return V[I];
}

} // namespace

size_t virgil::ssa::runLoadStoreElim(IrModule &M, IrFunction &F,
                                     const DomTree &DT, SsaInfo &Info,
                                     OptStats &Stats) {
  (void)M;
  if (F.Blocks.empty())
    return 0;

  DeadInstrs Dead(F);
  size_t Changes = killDeadStores(F, Dead, Stats);
  Replacements Repl;

  // Scoped state (undone on subtree exit). Field facts hang off their
  // base register in short chains (one link per field read or written
  // through that base); global facts and non-null bits are indexed
  // directly.
  struct FieldFact {
    int Index;
    Avail A;
    int Next;
  };
  std::vector<FieldFact> Facts;
  std::vector<int> FactHead(F.RegTypes.size(), -1);
  std::vector<Avail> GlobalAvail;
  std::vector<char> NonNull(F.RegTypes.size(), 0);
  // Monotonic clobber clocks (never undone), by field / global index.
  std::vector<uint64_t> FieldClobber, GlobalClobber;
  uint64_t CallClobber = 0;
  uint64_t Clock = 0;

  struct UndoRec {
    enum Kind : uint8_t { NewFact, OldFact, OldGlobal, NonNullBit } K;
    size_t Slot; ///< Base register, fact, global index, or register.
    Avail Old;
  };
  std::vector<UndoRec> Undo;

  auto findField = [&](Reg Base, int Idx) -> FieldFact * {
    for (int L = FactHead[Base]; L >= 0; L = Facts[(size_t)L].Next)
      if (Facts[(size_t)L].Index == Idx)
        return &Facts[(size_t)L];
    return nullptr;
  };
  auto setField = [&](Reg Base, int Idx, Reg R) {
    Avail New{R, ++Clock};
    if (FieldFact *Fact = findField(Base, Idx)) {
      Undo.push_back({UndoRec::OldFact, (size_t)(Fact - Facts.data()),
                      Fact->A});
      Fact->A = New;
      return;
    }
    Facts.push_back({Idx, New, FactHead[Base]});
    FactHead[Base] = (int)Facts.size() - 1;
    Undo.push_back({UndoRec::NewFact, Base, {}});
  };
  auto setGlobal = [&](int Idx, Reg R) {
    Avail &G = at(GlobalAvail, (size_t)Idx);
    Undo.push_back({UndoRec::OldGlobal, (size_t)Idx, G});
    G = {R, ++Clock};
  };
  auto addNonNull = [&](Reg R) {
    if (!NonNull[R]) {
      NonNull[R] = 1;
      Undo.push_back({UndoRec::NonNullBit, R, {}});
    }
  };
  auto undoTo = [&](size_t Mark) {
    while (Undo.size() > Mark) {
      const UndoRec &U = Undo.back();
      switch (U.K) {
      case UndoRec::NewFact:
        FactHead[U.Slot] = Facts.back().Next;
        Facts.pop_back();
        break;
      case UndoRec::OldFact:
        Facts[U.Slot].A = U.Old;
        break;
      case UndoRec::OldGlobal:
        GlobalAvail[U.Slot] = U.Old;
        break;
      case UndoRec::NonNullBit:
        NonNull[U.Slot] = 0;
        break;
      }
      Undo.pop_back();
    }
  };
  auto clobberOf = [](const std::vector<uint64_t> &Clocks, int Idx) {
    return (size_t)Idx < Clocks.size() ? Clocks[(size_t)Idx] : 0;
  };
  auto valid = [&](const Avail &A, uint64_t Clobber) {
    return A.R != NoReg && A.T > Clobber && A.T > CallClobber;
  };

  struct Frame {
    int Block;
    size_t NextChild = 0;
    size_t UndoMark = 0;
  };
  std::vector<Frame> Stack;
  std::vector<char> Visited(DT.numBlocks(), 0);
  Stack.push_back({0, 0, 0});
  bool Enter = true;
  while (!Stack.empty()) {
    Frame &Fr = Stack.back();
    if (Enter) {
      Fr.UndoMark = Undo.size();
      Visited[(size_t)Fr.Block] = 1;
      // Loop header: some predecessor (the back edge's source) hasn't
      // been scanned yet, so its stores aren't in the clocks — treat
      // the loop body as clobbering all memory.
      for (const PredEdge &E : DT.preds(Fr.Block)) {
        int PI = E.PredIdx;
        if (PI >= 0 && DT.reachable(PI) && !Visited[(size_t)PI]) {
          CallClobber = ++Clock;
          break;
        }
      }
      size_t BI = (size_t)Fr.Block;
      IrBlock *B = F.Blocks[BI];
      for (size_t Pos = 0; Pos != B->Instrs.size(); ++Pos) {
        IrInstr *I = B->Instrs[Pos];
        if (Dead.marked(BI, Pos))
          continue; // A killed store contributes no facts.
        switch (I->Op) {
        case Opcode::FieldGet: {
          Reg Base = I->Args[0];
          FieldFact *Fact = findField(Base, I->Index);
          if (Fact && valid(Fact->A, clobberOf(FieldClobber, I->Index))) {
            Repl.add(F, I->Dsts[0], Fact->A.R);
            Dead.mark(BI, Pos);
            ++Stats.LoadsEliminated;
            ++Changes;
            break;
          }
          setField(Base, I->Index, I->Dsts[0]);
          addNonNull(Base);
          break;
        }
        case Opcode::FieldSet: {
          at(FieldClobber, (size_t)I->Index) = ++Clock;
          setField(I->Args[0], I->Index, I->Args[1]);
          addNonNull(I->Args[0]);
          break;
        }
        case Opcode::GlobalGet: {
          if ((size_t)I->Index < GlobalAvail.size() &&
              valid(GlobalAvail[(size_t)I->Index],
                    clobberOf(GlobalClobber, I->Index))) {
            Repl.add(F, I->Dsts[0], GlobalAvail[(size_t)I->Index].R);
            Dead.mark(BI, Pos);
            ++Stats.LoadsEliminated;
            ++Changes;
            break;
          }
          setGlobal(I->Index, I->Dsts[0]);
          break;
        }
        case Opcode::GlobalSet: {
          at(GlobalClobber, (size_t)I->Index) = ++Clock;
          setGlobal(I->Index, I->Args[0]);
          break;
        }
        case Opcode::NullCheck: {
          Reg Base = I->Args[0];
          if (NonNull[Base]) {
            Dead.mark(BI, Pos);
            ++Stats.NullChecksRemoved;
            ++Changes;
            break;
          }
          addNonNull(Base);
          break;
        }
        case Opcode::NewObject:
        case Opcode::NewArray:
        case Opcode::ConstString:
          // Freshly allocated references are never null.
          addNonNull(I->Dsts[0]);
          break;
        default:
          if (isCall(I->Op))
            CallClobber = ++Clock;
          else if (nullChecksBase(I->Op) && !I->Args.empty())
            addNonNull(I->Args[0]);
          break;
        }
      }
      Enter = false;
    }
    const auto &Kids = DT.children(Stack.back().Block);
    if (Stack.back().NextChild < Kids.size()) {
      int C = Kids[Stack.back().NextChild++];
      Stack.push_back({C, 0, 0});
      Enter = true;
      continue;
    }
    undoTo(Stack.back().UndoMark);
    Stack.pop_back();
  }

  applyReplacements(F, Repl, Info);
  eraseInstrs(F, Dead);
  return Changes;
}
