//===- perfbench/src/Staged.cpp -------------------------------------------===//

#include "Staged.h"

#include "ir/IrVerifier.h"
#include "lower/Lower.h"
#include "parse/Parser.h"
#include "vm/BytecodeEmitter.h"

namespace perfbench {

using namespace virgil;

uint64_t bytecodeInstrs(const BcModule &M) {
  uint64_t N = 0;
  for (const BcFunction &F : M.Functions)
    N += F.Code.size();
  return N;
}

std::unique_ptr<StagedProgram> compileStaged(const Source &Src, SpanLog &Log,
                                             uint64_t Id, std::string *Err) {
  // Default CompilerOptions, exactly as Compiler::compile reads them.
  const CompilerOptions Options;
  auto P = std::make_unique<StagedProgram>();
  StageTimes &T = P->Times;
  ScopedSpan Root(Log, Id, "compile");
  const int R = Root.index();

  auto failed = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return nullptr;
  };
  // Runs the IR verifier in its own span under the current stage span.
  auto verify = [&](const IrModule &M, int Stage, const char *After) {
    ScopedSpan S(Log, Id, "ir.verify", Stage);
    auto Problems = verifyModule(M);
    T.Verify += S.finish();
    if (Problems.empty())
      return true;
    if (Err)
      *Err = std::string("internal error after ") + After + ": " + Problems[0];
    return false;
  };
  // A stage's self time: its span minus the verifier spans inside it.
  auto selfMs = [&](ScopedSpan &S, double VerifyBefore) {
    return S.finish() - (T.Verify - VerifyBefore);
  };
  auto count = [&](const IrModule &M) {
    ScopedSpan S(Log, Id, "trace.count", R);
    size_t N = computeStats(M).NumInstrs;
    T.Count += S.finish();
    return N;
  };

  // Each stage's locals live in an inner block, so their destructors
  // run inside the stage's span, as they run inside Compiler::compile.
  {
    ScopedSpan S(Log, Id, "parse", R);
    {
      P->File = std::make_unique<SourceFile>(Src.Name, Src.Text);
      P->Diags.setFile(P->File.get());
      Parser TheParser(*P->File, P->AstNodes, P->Idents, P->Diags);
      P->Ast = TheParser.parseModule();
      if (P->Diags.hasErrors())
        return failed(P->Diags.render());
    }
    T.Parse = selfMs(S, T.Verify);
  }
  {
    ScopedSpan S(Log, Id, "sema", R);
    P->TheSema = std::make_unique<Sema>(*P->Ast, P->Types, P->Idents,
                                        P->Diags, P->AstNodes);
    if (!P->TheSema->run())
      return failed(P->Diags.render());
    T.Sema = selfMs(S, T.Verify);
  }
  {
    ScopedSpan S(Log, Id, "lower", R);
    double V0 = T.Verify;
    P->PolyIr = std::make_unique<IrModule>(P->Types);
    {
      Lowerer Lower(P->TheSema->resolver(), *P->PolyIr);
      if (!Lower.run())
        return failed("lowering failed");
    }
    if (Options.Verify && !verify(*P->PolyIr, S.index(), "lowering"))
      return nullptr;
    (void)computeStats(*P->PolyIr);
    T.Lower = selfMs(S, V0);
  }
  {
    ScopedSpan S(Log, Id, "mono", R);
    double V0 = T.Verify;
    {
      Monomorphizer Mono(*P->PolyIr);
      P->MonoIr = Mono.run();
      if (!P->MonoIr)
        return failed("monomorphization exceeded the instantiation cap");
      P->Mono = Mono.stats();
    }
    if (Options.Verify &&
        !verify(*P->MonoIr, S.index(), "monomorphization"))
      return nullptr;
    T.Mono = selfMs(S, V0);
  }
  size_t Before = count(*P->MonoIr);
  {
    ScopedSpan S(Log, Id, "opt.mono", R);
    if (Options.Optimize)
      P->OptMono = optimizeModule(*P->MonoIr, Options.Opt);
    size_t After = computeStats(*P->MonoIr).NumInstrs;
    P->InstrsRemoved += (int64_t)Before - (int64_t)After;
    T.OptMono = selfMs(S, T.Verify);
  }
  {
    ScopedSpan S(Log, Id, "normalize", R);
    double V0 = T.Verify;
    {
      Normalizer Norm(*P->MonoIr);
      P->NormIr = Norm.run();
    }
    if (Options.Verify &&
        !verify(*P->NormIr, S.index(), "normalization"))
      return nullptr;
    T.Normalize = selfMs(S, V0);
  }
  Before = count(*P->NormIr);
  {
    ScopedSpan S(Log, Id, "opt.norm", R);
    if (Options.Optimize)
      P->OptNorm = optimizeModule(*P->NormIr, Options.Opt);
    T.OptNorm = selfMs(S, T.Verify);
  }
  P->InstrsRemoved += (int64_t)Before - (int64_t)count(*P->NormIr);
  {
    ScopedSpan S(Log, Id, "share", R);
    double V0 = T.Verify;
    if (Options.ShareSpecializations) {
      P->Share = shareSpecializations(*P->NormIr);
      if (Options.Verify &&
          !verify(*P->NormIr, S.index(), "specialization sharing"))
        return nullptr;
    }
    (void)computeStats(*P->NormIr);
    T.Share = selfMs(S, V0);
  }
  {
    ScopedSpan S(Log, Id, "emit", R);
    P->Bytecode = emitBytecode(*P->NormIr);
    T.Emit = selfMs(S, T.Verify);
  }
  T.Wall = Root.finish();
  return P;
}

} // namespace perfbench
