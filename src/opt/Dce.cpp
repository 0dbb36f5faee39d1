//===- opt/Dce.cpp - Dead code and unreachable block elimination ----------===//
///
/// Removes pure instructions whose results are never read anywhere in
/// the function (global liveness over registers, to a fixpoint), drops
/// blocks unreachable from the entry, and merges straight-line block
/// chains. Each step is linear in the function: reachability and
/// predecessor counts are vectors by block position, every chain
/// collapses into its head in one walk, and dead instructions go
/// through the use-count worklist the SSA sweep uses.
///
//===----------------------------------------------------------------------===//

#include "ir/PassScope.h"
#include "opt/PassManager.h"
#include "ssa/Ssa.h"

#include <vector>

using namespace virgil;

namespace {

/// Drops the blocks not in \p Keep (by position), preserving order.
void keepBlocks(IrFunction *F, const std::vector<char> &Keep) {
  size_t Out = 0;
  for (size_t I = 0; I != F->Blocks.size(); ++I)
    if (Keep[I])
      F->Blocks[Out++] = F->Blocks[I];
  F->Blocks.resize(Out);
}

/// Returns the instructions-plus-blocks change count; sets \p CfgChanged
/// when blocks were removed or merged.
size_t dceFunction(IrFunction *F, OptStats &Stats, bool &CfgChanged) {
  size_t Changes = 0;

  // 1. Unreachable blocks.
  ssa::BlockIndex Index(F->Blocks);
  std::vector<char> Reached(F->Blocks.size(), 0);
  std::vector<IrBlock *> Work{F->Blocks[0]};
  Reached[0] = 1;
  size_t NumReached = 1;
  while (!Work.empty()) {
    IrBlock *B = Work.back();
    Work.pop_back();
    for (IrBlock *S : {B->Succ0, B->Succ1}) {
      int SI = S ? Index(S) : -1;
      if (SI >= 0 && !Reached[(size_t)SI]) {
        Reached[(size_t)SI] = 1;
        ++NumReached;
        Work.push_back(S);
      }
    }
  }
  if (NumReached != F->Blocks.size()) {
    size_t Dropped = F->Blocks.size() - NumReached;
    keepBlocks(F, Reached);
    Stats.BlocksRemoved += Dropped;
    Changes += Dropped;
    Index.reset(F->Blocks);
  }

  // 2. Merge straight-line chains: B -> S where S has exactly one
  // predecessor. Splicing S into B hands B S's terminator and
  // successors and leaves every predecessor count as it was, so the
  // blocks that get absorbed are exactly the first scan's merge
  // targets, and each chain folds into its head in one walk.
  size_t N = F->Blocks.size();
  std::vector<int> Preds(N, 0);
  for (IrBlock *B : F->Blocks)
    for (IrBlock *S : {B->Succ0, B->Succ1})
      if (int SI = S ? Index(S) : -1; SI >= 0)
        ++Preds[(size_t)SI];
  auto mergeTarget = [&](const IrBlock *B) -> int {
    if (!B->Succ0 || B->Succ1 || B->Succ0 == B)
      return -1;
    int S = Index(B->Succ0);
    if (S <= 0 || Preds[(size_t)S] != 1) // Never absorb the entry.
      return -1;
    if (B->Instrs.empty() || B->Instrs.back()->Op != Opcode::Br)
      return -1;
    return S;
  };
  std::vector<char> Kept(N, 1);
  size_t Absorbed = 0;
  for (IrBlock *B : F->Blocks)
    if (int S = mergeTarget(B); S >= 0) {
      Kept[(size_t)S] = 0;
      ++Absorbed;
    }
  if (Absorbed) {
    for (size_t I = 0; I != N; ++I) {
      if (!Kept[I])
        continue; // Absorbed by the head of its chain.
      IrBlock *B = F->Blocks[I];
      for (int S; (S = mergeTarget(B)) >= 0;) {
        IrBlock *Next = F->Blocks[(size_t)S];
        B->Instrs.pop_back();
        B->Instrs.insert(B->Instrs.end(), Next->Instrs.begin(),
                         Next->Instrs.end());
        B->Succ0 = Next->Succ0;
        B->Succ1 = Next->Succ1;
      }
    }
    keepBlocks(F, Kept);
    Stats.BlocksRemoved += Absorbed;
    Changes += Absorbed;
  }
  CfgChanged = Changes != 0;

  // 3. Dead pure instructions and self-moves, to a fixpoint.
  size_t Removed = ssa::removeDeadDefs(*F, /*SelfMoves=*/true);
  Stats.InstrsRemoved += Removed;
  return Changes + Removed;
}

} // namespace

size_t virgil::eliminateDeadCode(IrModule &M, OptStats &Stats,
                                 ssa::DominatorAnalysis *DomA,
                                 PassScope *Scope) {
  size_t Changes = 0;
  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    IrFunction *F = M.Functions[FI];
    if (F->Blocks.empty() || !visits(Scope, FI))
      continue;
    bool CfgChanged = false;
    size_t N = dceFunction(F, Stats, CfgChanged);
    if (CfgChanged && DomA)
      DomA->invalidate(F);
    if (N)
      markChanged(Scope, FI);
    Changes += N;
  }
  return Changes;
}
