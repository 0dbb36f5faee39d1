//===- ssa/Ssa.h - SSA mid-tier over the three-address IR -------*- C++ -*-===//
///
/// \file
/// The SSA sandwich the optimizer pipeline runs between the dense
/// passes: a shared dominator analysis (Cooper/Harvey/Kennedy tree +
/// dominance frontiers), pruned-SSA construction over the existing
/// three-address IR, two sparse passes (SCCP and dominance-based
/// load/store elimination), and phi elimination back out of SSA.
///
/// SSA form is strictly internal to the sandwich: `Opcode::Phi`
/// appears after buildSsa() and is gone after destroySsa(), so the
/// interpreters, BcPrepare, and the bytecode emitter never see it.
/// Out-of-SSA uses variable congruence classes: values keep their
/// original variable's register unless an optimization extended their
/// live range (RAUW "taints" them into a fresh singleton class), which
/// preserves the conventional-SSA property the copy placement relies
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SSA_SSA_H
#define VIRGIL_SSA_SSA_H

#include "core/Counters.h"
#include "ir/Ir.h"
#include "ir/PassScope.h"

#include <functional>
#include <memory>
#include <vector>

namespace virgil {
namespace ssa {

/// Block -> position lookup over one block list: (block, position)
/// pairs sorted by address, so building it is one small sort and a
/// lookup is a binary search, with no per-block node allocation.
/// Positions go stale when the list changes.
class BlockIndex {
public:
  BlockIndex() = default;
  explicit BlockIndex(const std::vector<IrBlock *> &Blocks) { reset(Blocks); }
  void reset(const std::vector<IrBlock *> &Blocks);
  /// Position of \p B in the list, or -1 when it is not there.
  int operator()(const IrBlock *B) const;

private:
  std::vector<std::pair<const IrBlock *, int>> Sorted;
};

/// One CFG in-edge: \p Pred (at position \p PredIdx of the block list
/// the edges were computed over) jumps here through its \p SuccIdx
/// slot (0 = Succ0, 1 = Succ1). Phi argument positions follow the
/// canonical enumeration order: predecessors by position in
/// IrFunction::Blocks, Succ0 edge before Succ1 edge for a block that
/// branches here twice.
struct PredEdge {
  IrBlock *Pred = nullptr;
  int SuccIdx = 0;
  int PredIdx = -1;
};

/// Canonical predecessor-edge lists for every block of \p F, indexed by
/// block position (structural edges — unreachable predecessors
/// included, so phi arity stays in sync with what the CFG says rather
/// than with what executes).
std::vector<std::vector<PredEdge>> computePredEdges(const IrFunction &F);

/// Dominator tree + dominance frontiers for one function, computed
/// with the Cooper/Harvey/Kennedy RPO-intersection algorithm. Block
/// identity is positional: indices are positions in F.Blocks at
/// compute() time, so any pass that adds or removes blocks or edges
/// must invalidate the tree (see DominatorAnalysis).
class DomTree {
public:
  void compute(const IrFunction &F);

  size_t numBlocks() const { return Blocks.size(); }
  IrBlock *block(int I) const { return Blocks[(size_t)I]; }
  int indexOf(const IrBlock *B) const { return Index(B); }
  /// Position of block \p I's successor in slot \p SuccIdx, -1 if none.
  int succ(int I, int SuccIdx) const {
    return Succs[(size_t)I * 2 + (size_t)SuccIdx];
  }
  bool reachable(int I) const { return RpoPos[(size_t)I] >= 0; }
  bool reachable(const IrBlock *B) const {
    int I = indexOf(B);
    return I >= 0 && reachable(I);
  }
  /// Immediate dominator (block index), -1 for the entry and for
  /// unreachable blocks.
  int idom(int I) const { return Idom[(size_t)I]; }
  const std::vector<int> &children(int I) const {
    return Children[(size_t)I];
  }
  const std::vector<int> &frontier(int I) const {
    return Frontier[(size_t)I];
  }
  /// Structural predecessor edges in canonical phi-argument order.
  const std::vector<PredEdge> &preds(int I) const {
    return Preds[(size_t)I];
  }
  /// Reachable block indices in reverse postorder (entry first).
  const std::vector<int> &rpo() const { return Rpo; }

  /// Same blocks, immediate dominators and reverse postorder?
  bool sameShape(const DomTree &O) const {
    return Blocks == O.Blocks && Idom == O.Idom && Rpo == O.Rpo;
  }

  /// Does block \p A dominate block \p B? Reflexive; false if either
  /// block is unreachable.
  bool dominates(int A, int B) const {
    if (!reachable(A) || !reachable(B))
      return false;
    return DfsIn[(size_t)A] <= DfsIn[(size_t)B] &&
           DfsOut[(size_t)B] <= DfsOut[(size_t)A];
  }
  bool dominates(const IrBlock *A, const IrBlock *B) const {
    int IA = indexOf(A), IB = indexOf(B);
    return IA >= 0 && IB >= 0 && dominates(IA, IB);
  }

private:
  std::vector<IrBlock *> Blocks;
  BlockIndex Index;
  std::vector<int> Succs; ///< Two successor positions per block.
  std::vector<std::vector<PredEdge>> Preds;
  std::vector<int> Rpo;
  std::vector<int> RpoPos; ///< Block index -> RPO position, -1 if unreachable.
  std::vector<int> Idom;
  std::vector<std::vector<int>> Children;
  std::vector<std::vector<int>> Frontier;
  std::vector<int> DfsIn, DfsOut; ///< Dom-tree intervals for O(1) queries.
};

/// Memoizing per-function dominator analysis shared across the passes
/// of one optimizeModule() invocation — Escape, the CHA devirtualizer,
/// and the SSA sandwich all consume the same tree instead of
/// re-deriving dominators per invocation. Passes that change the CFG
/// (inlining, DCE's block surgery, the sandwich itself) invalidate
/// exactly the functions whose blocks or edges they changed;
/// instruction-level rewrites don't disturb block-level dominance and
/// need no invalidation. Trees are cached by function id, and an
/// invalidated tree keeps its storage for the next computation.
///
/// When strict-SSA verification is on (see ssaVerifyEnabled) a cache
/// hit recomputes the tree and aborts, naming the function, if the
/// cached one is stale: a missed invalidation fails loudly instead of
/// feeding a pass wrong dominance.
class DominatorAnalysis {
public:
  const DomTree &get(const IrFunction *F);
  void invalidate(const IrFunction *F) {
    if (F->id() < Cache.size() && Cache[F->id()].F == F)
      Cache[F->id()].Valid = false;
  }

private:
  struct Entry {
    const IrFunction *F = nullptr;
    bool Valid = false;
    std::unique_ptr<DomTree> Tree;
  };
  std::vector<Entry> Cache;
};

/// Per-function SSA bookkeeping, alive from buildSsa() to
/// destroySsa().
struct SsaInfo {
  /// Registers >= FirstSsaReg were created by renaming; registers
  /// below it are the original variables (parameters keep their
  /// numbers; a use of an original non-parameter register means no
  /// definition reaches it on any path, i.e. the frame default).
  Reg FirstSsaReg = 0;
  /// For renamed registers: the original variable each is a version
  /// of (indexed by reg - FirstSsaReg).
  std::vector<Reg> OrigOfSsa;
  /// Values whose live range an optimization extended (RAUW targets).
  /// They leave their variable's congruence class and get a fresh
  /// singleton register at destruction; everything untainted keeps the
  /// conventional-SSA non-interference guarantee of its class.
  std::vector<char> Tainted;

  /// Registers created after renaming (destruction's fresh singletons
  /// and cycle temps) are not versions of anything: they map to
  /// themselves.
  Reg origVar(Reg R) const {
    if (R < FirstSsaReg)
      return R;
    size_t I = R - FirstSsaReg;
    return I < OrigOfSsa.size() ? OrigOfSsa[I] : R;
  }
  bool tainted(Reg R) const {
    return R < Tainted.size() && Tainted[R];
  }
  void taint(Reg R) {
    if (Tainted.size() <= R)
      Tainted.resize(R + 1, 0);
    Tainted[R] = 1;
  }
};

/// Deletes blocks unreachable from the entry (the sandwich runs this
/// first so construction sees a clean CFG). Returns blocks removed.
size_t removeUnreachableBlocks(IrFunction &F);

/// Pruned-SSA construction: places phis at iterated dominance
/// frontiers of definitions, pruned by liveness, then renames every
/// definition to a fresh register via a dominator-tree walk. Returns
/// the number of phis placed.
size_t buildSsa(IrModule &M, IrFunction &F, const DomTree &DT,
                SsaInfo &Info);

/// Sparse conditional constant propagation over SSA form: folds the
/// post-specialization cast/query/branch chains (paper §3.3) in one
/// flow-sensitive pass, propagates copies globally (Move RAUW), and
/// rewires statically-decided branches. Returns rewrites performed.
size_t runSccp(IrModule &M, IrFunction &F, const DomTree &DT,
               SsaInfo &Info, OptStats &Stats);

/// Dominance-based load/store elimination for fields and globals:
/// redundant FieldGet/GlobalGet reuse (scoped availability over the
/// dominator tree with monotonic clobber clocks), same-block dead
/// store kill, and redundant NullCheck removal. Returns rewrites.
size_t runLoadStoreElim(IrModule &M, IrFunction &F, const DomTree &DT,
                        SsaInfo &Info, OptStats &Stats);

/// Deletes pure definitions none of whose results is read, chains
/// included, with one use-count worklist; with \p SelfMoves also every
/// `x = move x`. A register may have several definitions (the dense
/// DCE runs on three-address code). The survivors are exactly those of
/// a repeat-until-quiet sweep. Returns instructions removed.
size_t removeDeadDefs(IrFunction &F, bool SelfMoves);

/// Deletes pure SSA definitions (including phis) with no remaining
/// uses via removeDeadDefs. Run before destruction so dead values place
/// no edge copies. Returns instructions removed.
size_t runSsaDce(IrFunction &F, SsaInfo &Info);

/// Phi elimination back to three-address form: assigns every SSA value
/// its congruence-class register (original variable, or a fresh
/// singleton when tainted), splits critical edges that need copies,
/// and sequentializes each edge's parallel copy (cycle-safe). After
/// this no Opcode::Phi remains.
void destroySsa(IrModule &M, IrFunction &F, SsaInfo &Info,
                OptStats &Stats);

/// Renumbers live registers densely (parameters keep 0..NumParams-1)
/// and drops dead RegTypes entries, bounding the frame growth SSA
/// renaming caused. Returns registers dropped.
size_t compactRegisters(IrFunction &F);

/// Whole-module sandwich: build -> SCCP -> load/store elim -> SSA-DCE
/// -> destruct -> compact for every function \p Scope visits (all
/// when null). \p DumpAfter (optional) is invoked with "ssa", "sccp",
/// and "loadelim" while the module is still in SSA form, for
/// --dump-ir=<pass>. Returns total rewrites (the pass manager's change
/// count); marks in \p Scope every function that did not come back
/// byte-identical.
size_t runSsaPasses(IrModule &M, DominatorAnalysis &DomA,
                    OptStats &Stats,
                    const std::function<void(const char *)> &DumpAfter =
                        std::function<void(const char *)>(),
                    PassScope *Scope = nullptr);

/// Strict-SSA verification toggle: on by default in Debug builds (or
/// with VIRGIL_SSA_VERIFY=on), forced on by the differential-fuzz
/// oracle. When enabled the sandwich verifies every function after
/// every SSA-form pass and aborts on a violation.
bool ssaVerifyEnabled();
void setSsaVerifyEnabled(bool Enabled);

} // namespace ssa
} // namespace virgil

#endif // VIRGIL_SSA_SSA_H
