//===- ir/PassScope.h - Which functions a module pass visits ----*- C++ -*-===//
///
/// \file
/// The per-function contract between the optimizer's pass manager and
/// its module passes: which functions one pass run visits, and which of
/// them it changed. Both are flags by position in IrModule::Functions.
/// A pass run without a scope visits every function and reports
/// nothing, which is what standalone callers (tests, tools) get.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_IR_PASSSCOPE_H
#define VIRGIL_IR_PASSSCOPE_H

#include "ir/Ir.h"

#include <vector>

namespace virgil {

struct PassScope {
  /// Visit[i]: the pass runs on Functions[i]. Empty: on every function.
  std::vector<char> Visit;
  /// Changed[i]: the pass changed Functions[i]'s IR. The owner sizes
  /// it to the function count and clears it before each run.
  std::vector<char> Changed;
  /// Callees[i]: the functions Functions[i] calls directly, as of the
  /// last inlineCalls visit of it (the only pass that fills it, since
  /// its decisions also read its callees).
  std::vector<std::vector<const IrFunction *>> Callees;

  bool visits(size_t I) const { return Visit.empty() || Visit[I]; }
  void markChanged(size_t I) {
    if (I < Changed.size())
      Changed[I] = 1;
  }
  /// Functions[I]'s callee list, emptied for a new visit to fill.
  std::vector<const IrFunction *> &calleesOf(size_t I) {
    if (Callees.size() <= I)
      Callees.resize(I + 1);
    Callees[I].clear();
    return Callees[I];
  }
};

/// visits()/markChanged() for an optional scope.
inline bool visits(const PassScope *S, size_t I) {
  return !S || S->visits(I);
}
inline void markChanged(PassScope *S, size_t I) {
  if (S)
    S->markChanged(I);
}

} // namespace virgil

#endif // VIRGIL_IR_PASSSCOPE_H
