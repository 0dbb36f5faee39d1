//===- ssa/SsaInternal.h - Helpers shared by the SSA passes -----*- C++ -*-===//
///
/// \file
/// Internal plumbing shared by SsaBuilder, Sccp, and LoadStoreElim:
/// batched replace-all-uses (which taints targets, see Ssa.h) and
/// batched instruction deletion, both over vectors indexed by register
/// or by instruction position.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SSA_SSAINTERNAL_H
#define VIRGIL_SSA_SSAINTERNAL_H

#include "ssa/Ssa.h"

namespace virgil {
namespace ssa {

/// Pending replace-all-uses: Repl[r] is r's replacement, NoReg when r
/// keeps its uses. Empty until the first replacement is recorded.
class Replacements {
public:
  void add(const IrFunction &F, Reg From, Reg To) {
    if (Repl.empty())
      Repl.assign(F.RegTypes.size(), NoReg);
    Repl[From] = To;
  }
  bool empty() const { return Repl.empty(); }
  Reg operator[](Reg R) const { return R < Repl.size() ? Repl[R] : NoReg; }
  size_t size() const { return Repl.size(); }

private:
  std::vector<Reg> Repl;
};

/// Rewrites every argument (including phi arguments) of \p F through
/// \p Repl, resolving chains (a->b, b->c applies a->c). Each final
/// replacement target is tainted in \p Info: the replacement extended
/// its live range, so it must leave its variable's congruence class
/// at destruction.
void applyReplacements(IrFunction &F, const Replacements &Repl,
                       SsaInfo &Info);

/// Instructions marked for deletion, addressed by block position and
/// position within the block as of construction. Mark before any
/// instruction moves; eraseInstrs() then drops them in one pass.
class DeadInstrs {
public:
  explicit DeadInstrs(const IrFunction &F) : Base(F.Blocks.size() + 1, 0) {
    for (size_t B = 0; B != F.Blocks.size(); ++B)
      Base[B + 1] = Base[B] + F.Blocks[B]->Instrs.size();
  }
  void mark(size_t Block, size_t Pos) {
    if (Flags.empty())
      Flags.assign(Base.back(), 0);
    Flags[Base[Block] + Pos] = 1;
  }
  bool marked(size_t Block, size_t Pos) const {
    return !Flags.empty() && Flags[Base[Block] + Pos];
  }
  bool empty() const { return Flags.empty(); }

private:
  std::vector<size_t> Base; ///< First flag of each block.
  std::vector<char> Flags;
};

/// Erases the marked instructions from their blocks.
void eraseInstrs(IrFunction &F, const DeadInstrs &Dead);

} // namespace ssa
} // namespace virgil

#endif // VIRGIL_SSA_SSAINTERNAL_H
