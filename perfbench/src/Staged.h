//===- perfbench/src/Staged.h - Stage-by-stage traced compile ---*- C++ -*-===//
///
/// \file
/// The traced run's compiler: the same public calls, in the same order
/// and with the same options, as virgil::Compiler::compile with default
/// CompilerOptions (core/Compiler.cpp), each wrapped in a span. The
/// benchmark checks that its serializeModule output is byte-identical
/// to Compiler::compile's for every program, so a reordering of the
/// real pipeline fails loudly instead of being silently mis-measured.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STAGED_H
#define PERFBENCH_STAGED_H

#include "Common.h"

#include "ast/Ast.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Source.h"
#include "support/StringInterner.h"

#include <memory>

namespace perfbench {

/// Self times (ms) of one staged compile. Verifier calls are carved
/// out of their stage into VerifyMs; the two optimizeModule calls are
/// OptMono/OptNorm. Count is the traced run's own IR counting, kept
/// apart so it never inflates a compiler stage.
struct StageTimes {
  double Parse = 0, Sema = 0, Lower = 0, Mono = 0, OptMono = 0,
         Normalize = 0, OptNorm = 0, Share = 0, Verify = 0, Emit = 0,
         Count = 0;
  /// Root span: the whole staged compile, counting included.
  double Wall = 0;

  double stageSum() const {
    return Parse + Sema + Lower + Mono + OptMono + Normalize + OptNorm +
           Share + Verify + Emit + Count;
  }
  double optMs() const { return OptMono + OptNorm; }
};

/// Owns every stage's artifacts, declared in virgil::Program's order so
/// they are destroyed the same way (the bytecode refers to the types).
struct StagedProgram {
  virgil::TypeStore Types;
  virgil::StringInterner Idents;
  virgil::Arena AstNodes;
  std::unique_ptr<virgil::SourceFile> File;
  virgil::DiagEngine Diags;
  virgil::Module *Ast = nullptr;
  std::unique_ptr<virgil::Sema> TheSema;
  std::unique_ptr<virgil::IrModule> PolyIr;
  std::unique_ptr<virgil::IrModule> MonoIr;
  std::unique_ptr<virgil::IrModule> NormIr;
  std::unique_ptr<virgil::BcModule> Bytecode;

  StageTimes Times;
  virgil::MonoStats Mono;
  virgil::ShareStats Share;
  virgil::OptStats OptMono;
  virgil::OptStats OptNorm;
  /// IrStats instruction counts before minus after each optimizeModule
  /// (negative if the optimizer grew the module, e.g. by inlining).
  int64_t InstrsRemoved = 0;
};

/// Compiles \p Src stage by stage, recording spans under id \p Id in
/// \p Log. Null (with \p Err set) on any stage failure.
std::unique_ptr<StagedProgram> compileStaged(const Source &Src, SpanLog &Log,
                                             uint64_t Id, std::string *Err);

/// Executed-code size: bytecode instructions over all functions.
uint64_t bytecodeInstrs(const virgil::BcModule &M);

} // namespace perfbench

#endif // PERFBENCH_STAGED_H
