//===- ssa/SsaPasses.cpp - The staged module-wide SSA sandwich ------------===//
///
/// Drives the sandwich for every function of the module in stages —
/// build everywhere, then SCCP everywhere, then load/store elimination
/// everywhere, then DCE + destruction + register compaction — rather
/// than function-at-a-time, so `--dump-ir=<pass>` can print the whole
/// module in SSA form at each stage boundary. When strict-SSA
/// verification is enabled (Debug builds, VIRGIL_SSA_VERIFY=on, or the
/// differential-fuzz oracle) every function is re-verified after every
/// SSA-form stage, and a violation aborts the process — the fuzzer
/// classifies that as a crash and reduces the input.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

#include "ir/IrVerifier.h"

#include <cstdio>
#include <cstdlib>

using namespace virgil;
using namespace virgil::ssa;

namespace {

void maybeVerify(const IrModule &M, const IrFunction &F, const char *Stage) {
  if (!ssaVerifyEnabled())
    return;
  auto Problems = verifyFunctionSsa(M, F);
  if (Problems.empty())
    return;
  std::fprintf(stderr,
               "virgil: strict-SSA verification failed after %s in '%s':\n",
               Stage, F.Name.c_str());
  for (const std::string &P : Problems)
    std::fprintf(stderr, "  %s\n", P.c_str());
  std::abort();
}

/// SSA construction assumes the entry block has no predecessors (the
/// implicit function-entry edge must not meet a backedge in a phi). A
/// lowered body whose first block is also a loop header gets a fresh
/// forwarding entry.
bool ensureVirginEntry(IrModule &M, IrFunction &F) {
  if (F.Blocks.empty())
    return false;
  IrBlock *Entry = F.Blocks[0];
  bool HasPred = false;
  for (IrBlock *B : F.Blocks)
    if (B->Succ0 == Entry || B->Succ1 == Entry)
      HasPred = true;
  if (!HasPred)
    return false;
  auto *E = M.Nodes.make<IrBlock>((uint32_t)F.Blocks.size());
  auto *Jump = M.Nodes.make<IrInstr>();
  Jump->Op = Opcode::Br;
  E->Instrs.push_back(Jump);
  E->Succ0 = Entry;
  F.Blocks.insert(F.Blocks.begin(), E);
  return true;
}

} // namespace

size_t virgil::ssa::runSsaPasses(
    IrModule &M, DominatorAnalysis &DomA, SsaPassStats &Stats,
    const std::function<void(const char *)> &DumpAfter, PassScope *Scope) {
  // Shared modules redirect metadata to equivalence representatives;
  // optimizer passes must not touch them (same guard as every pass).
  if (M.Shared)
    return 0;

  struct FnState {
    IrFunction *F;
    size_t Index;    ///< Position in M.Functions.
    size_t RegsIn;   ///< Register count before construction.
    bool Changed;    ///< Anything beyond the identity round trip.
    SsaInfo Info;
  };
  std::vector<FnState> Fns;
  Fns.reserve(M.Functions.size());

  // Stage 1: construction.
  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    IrFunction *F = M.Functions[FI];
    if (F->Blocks.empty() || !visits(Scope, FI))
      continue;
    bool CfgChanged = removeUnreachableBlocks(*F) != 0;
    CfgChanged |= ensureVirginEntry(M, *F);
    if (CfgChanged)
      DomA.invalidate(F);
    Fns.push_back({F, FI, F->RegTypes.size(), CfgChanged, {}});
    Stats.PhisPlaced += buildSsa(M, *F, DomA.get(F), Fns.back().Info);
    maybeVerify(M, *F, "ssa construction");
  }
  if (DumpAfter)
    DumpAfter("ssa");

  size_t Changes = 0;

  // Stage 2: sparse conditional constant propagation. Folded branches
  // change the CFG (edges dropped, unreachable blocks deleted), so the
  // tree is recomputed before the next dominance consumer.
  for (FnState &S : Fns) {
    size_t Folded0 = Stats.BranchesFolded;
    size_t N = runSccp(M, *S.F, DomA.get(S.F), S.Info, Stats);
    Changes += N;
    S.Changed |= N != 0;
    if (Stats.BranchesFolded != Folded0)
      DomA.invalidate(S.F);
    maybeVerify(M, *S.F, "sccp");
  }
  if (DumpAfter)
    DumpAfter("sccp");

  // Stage 3: dominance-based load/store elimination.
  for (FnState &S : Fns) {
    size_t N = runLoadStoreElim(M, *S.F, DomA.get(S.F), S.Info, Stats);
    Changes += N;
    S.Changed |= N != 0;
    maybeVerify(M, *S.F, "loadelim");
  }
  if (DumpAfter)
    DumpAfter("loadelim");

  // Stage 4: sweep dead SSA values (so they place no edge copies),
  // destruct, and compact the register file. The tree stays valid
  // unless destruction split a critical edge. A function none of the
  // stages rewrote comes back byte-identical — every value returns to
  // its variable's register and no copy is placed — unless the
  // compaction dropped a register it had not been using.
  for (FnState &S : Fns) {
    size_t Swept = runSsaDce(*S.F, S.Info);
    Stats.InstrsRemoved += Swept;
    Changes += Swept;
    size_t Blocks0 = S.F->Blocks.size(), Copies0 = Stats.EdgeCopies;
    destroySsa(M, *S.F, S.Info, Stats);
    compactRegisters(*S.F);
    if (S.F->Blocks.size() != Blocks0)
      DomA.invalidate(S.F);
    if (S.Changed || Swept || Stats.EdgeCopies != Copies0 ||
        S.F->Blocks.size() != Blocks0 || S.F->RegTypes.size() != S.RegsIn)
      markChanged(Scope, S.Index);
  }
  return Changes;
}
