//===- core/Compiler.h - Public compiler API --------------------*- C++ -*-===//
///
/// \file
/// The library's front door. A Compiler turns Virgil-core source text
/// into a Program, which holds every pipeline stage:
///
///   source --parse/sema--> typed AST
///          --lower-------> polymorphic IR      (interpretable: the
///                                               paper's baseline)
///          --mono--------> monomorphic IR      (§4.3)
///          --opt---------> optimized mono IR   (fold/inline/devirt)
///          --normalize---> tuple-free IR       (§4.2)
///          --opt---------> optimized normal IR
///          --emit--------> bytecode            (VM target)
///
/// Each stage stays accessible so examples, tests, and the benchmark
/// harness can execute the same program under any strategy and compare
/// results and costs.
///
/// \code
///   virgil::Compiler Compiler;
///   std::string Error;
///   auto Program = Compiler.compile("demo", Source, &Error);
///   if (!Program) { ... report Error ... }
///   virgil::VmResult R = Program->runVm();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_CORE_COMPILER_H
#define VIRGIL_CORE_COMPILER_H

#include "interp/Interpreter.h"
#include "ir/IrStats.h"
#include "mono/Monomorphizer.h"
#include "mono/ShareSpecializations.h"
#include "normalize/Normalizer.h"
#include "opt/PassManager.h"
#include "sema/TypeChecker.h"
#include "vm/Vm.h"

#include <memory>
#include <string>

namespace virgil {

struct CompilerOptions {
  /// Stop after lowering (Program keeps only the polymorphic IR).
  bool StopAfterLower = false;
  /// Run the optimizer after monomorphization and after normalization.
  bool Optimize = true;
  OptOptions Opt;
  /// Run the IR verifier between stages; internal errors become
  /// compile errors.
  bool Verify = true;
  /// Merge specializations with identical normalized bodies after
  /// opt-norm (bounds §4.3 code expansion; observationally invisible).
  /// Defaults from the share row of FeatureAxes (core/FeatureAxis.h).
  bool ShareSpecializations = axisDefault(Axis::Share) != 0;
  /// When non-empty, print the IR (via IrPrinter) to stdout after every
  /// run of the named optimizer pass — `virgilc --dump-ir=<pass>`.
  /// Accepts the OptOptions::DumpAfter names; "ssa"/"sccp"/"loadelim"
  /// dump while the module is still in SSA form, with phis visible.
  std::string DumpIrAfter;
};

struct PipelineStats {
  MonoStats Mono;
  ShareStats Share;
  NormalizeStats Norm;
  OptStats OptAfterMono;
  OptStats OptAfterNorm;
  IrStats Poly;
  IrStats MonoIr;
  IrStats NormIr;
  PhaseTimings Timings;
};

/// A successfully compiled program with all its stages.
class Program {
public:
  Program();
  ~Program();
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// The checked AST and semantic tables.
  Module &ast() { return *Ast; }
  Resolver &resolver() { return TheSema->resolver(); }
  TypeStore &types() { return Types; }

  IrModule &polyIr() { return *PolyIr; }
  bool hasMonoIr() const { return MonoIr != nullptr; }
  IrModule &monoIr() { return *MonoIr; }
  bool hasNormIr() const { return NormIr != nullptr; }
  IrModule &normIr() { return *NormIr; }
  bool hasBytecode() const { return Bytecode != nullptr; }
  BcModule &bytecode() { return *Bytecode; }

  const PipelineStats &stats() const { return Stats; }

  /// Executes under the paper's baseline strategy: the polymorphic
  /// interpreter with runtime type arguments and dynamic tuple checks.
  InterpResult interpret();

  /// Executes the monomorphized (but still tuple-carrying) IR in the
  /// interpreter — isolates the cost of runtime type arguments.
  InterpResult interpretMono();

  /// Executes the normalized IR in the interpreter — isolates boxed
  /// tuples vs scalars under the same execution engine.
  InterpResult interpretNorm();

  /// Executes the compiled bytecode on the VM (the "native" strategy).
  /// \p Opts selects the execution-engine configuration (dispatch mode,
  /// fusion, inline caches) — the defaults are the fast path.
  VmResult runVm(VmOptions Opts = VmOptions());

private:
  friend class Compiler;

  TypeStore Types;
  StringInterner Idents;
  Arena AstNodes;
  std::unique_ptr<SourceFile> File;
  DiagEngine Diags;
  Module *Ast = nullptr;
  std::unique_ptr<Sema> TheSema;
  std::unique_ptr<IrModule> PolyIr;
  std::unique_ptr<IrModule> MonoIr;
  std::unique_ptr<IrModule> NormIr;
  std::unique_ptr<BcModule> Bytecode;
  PipelineStats Stats;
};

class Compiler {
public:
  explicit Compiler(CompilerOptions Options = CompilerOptions())
      : Options(Options) {}

  /// Compiles \p Source; on failure returns null and stores rendered
  /// diagnostics in \p ErrorOut (if non-null).
  std::unique_ptr<Program> compile(const std::string &Name,
                                   const std::string &Source,
                                   std::string *ErrorOut = nullptr);

  CompilerOptions &options() { return Options; }

private:
  CompilerOptions Options;
};

} // namespace virgil

#endif // VIRGIL_CORE_COMPILER_H
