//===- mono/ShareSpecializations.cpp --------------------------------------===//

#include "mono/ShareSpecializations.h"

#include "support/Casting.h"
#include "types/TypeRelations.h"
#include "vm/Bytecode.h"

#include <cassert>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

using namespace virgil;

namespace {

/// Builds the canonical structural key of one function body: everything
/// the bytecode emitter or the normalized-IR interpreter can observe
/// about it, *except* direct CallFunc targets (handled by partition
/// refinement). Two functions with equal keys and pairwise-equivalent
/// callees compile to byte-identical bodies.
class BodyKey {
public:
  BodyKey(const IrModule &M, TypeRelations &Rels) : M(M), Rels(Rels) {}

  std::vector<uint64_t> build(const IrFunction &F,
                              std::vector<const IrFunction *> &CalleesOut) {
    Key.clear();
    CalleesOut.clear();

    push(F.NumParams);
    push(F.RegTypes.size());
    // Exact slot-kind vectors: merged bodies must present identical
    // register maps to the VM's GC stack scanner.
    for (Type *T : F.RegTypes)
      push((uint64_t)slotKindOf(T));
    push(F.RetTypes.size());
    for (Type *T : F.RetTypes)
      push((uint64_t)slotKindOf(T));

    // Block indices are positional so physically different but
    // isomorphic CFGs with the same layout compare equal.
    std::unordered_map<const IrBlock *, uint64_t> BlockIdx;
    for (size_t I = 0; I != F.Blocks.size(); ++I)
      BlockIdx[F.Blocks[I]] = I;

    push(F.Blocks.size());
    for (const IrBlock *B : F.Blocks) {
      push(B->Instrs.size());
      for (const IrInstr *I : B->Instrs)
        encode(F, *I, CalleesOut);
      push(B->Succ0 ? BlockIdx.at(B->Succ0) + 1 : 0);
      push(B->Succ1 ? BlockIdx.at(B->Succ1) + 1 : 0);
    }
    return std::move(Key);
  }

private:
  void push(uint64_t V) { Key.push_back(V); }
  void pushType(const Type *T) { push((uint64_t)(uintptr_t)T); }

  void encode(const IrFunction &F, const IrInstr &I,
              std::vector<const IrFunction *> &CalleesOut) {
    push((uint64_t)I.Op);
    push(I.Dsts.size());
    for (Reg R : I.Dsts)
      push(R);
    push(I.Args.size());
    for (Reg R : I.Args)
      push(R);
    push((uint64_t)I.Index);
    push((uint64_t)I.IntConst);

    switch (I.Op) {
    case Opcode::NewObject:
      // Allocation sites pin class identity: the object's dynamic type
      // is observable through casts/queries, so specializations that
      // allocate different classes can never share.
      pushType(I.TypeOperand);
      break;
    case Opcode::NewArray: {
      // Array headers carry only the element kind (mirroring the
      // emitter's ElemKind); the precise element type is not
      // runtime-observable — array casts are classified statically at
      // their own use sites.
      const Type *Elem = cast<ArrayType>(I.TypeOperand)->elem();
      push(Elem->isVoid() ? ~1ull : (uint64_t)slotKindOf(Elem));
      break;
    }
    case Opcode::ConstNull:
    case Opcode::Eq:
    case Opcode::Ne:
      // Bit-pattern semantics depend only on the slot kind.
      push(I.Ty ? (uint64_t)slotKindOf(I.Ty) : ~0ull);
      break;
    case Opcode::CallFunc:
      // Keyed modulo the equivalence under construction: record the
      // callee for refinement, not its identity.
      CalleesOut.push_back(I.Callee);
      break;
    case Opcode::MakeClosure:
      // Closure values expose function identity (equality, CastFunc /
      // QueryFunc through the callee's source type), so the exact
      // callee is part of the key. MakeClosure callees are also in the
      // Taken set and thus never merged themselves.
      push((uint64_t)I.Callee->id());
      break;
    case Opcode::TypeCast:
    case Opcode::TypeQuery: {
      // Everything the emitter bakes from static types: the target
      // type's identity, the three-valued classification, the source
      // kind (nullability of statically-failing casts), and the
      // subtype bit that splits QueryNonNull from a dynamic query.
      Type *From = F.RegTypes[I.Args[0]];
      Type *To = I.TypeOperand;
      pushType(To);
      push((uint64_t)From->kind());
      TypeRel Rel = I.Op == Opcode::TypeCast ? Rels.castRel(From, To)
                                             : Rels.queryRel(From, To);
      push((uint64_t)Rel);
      if (I.Op == Opcode::TypeQuery && Rel == TypeRel::Dynamic)
        push(Rels.isSubtype(From, To) ? 1 : 0);
      break;
    }
    default:
      break;
    }
  }

  const IrModule &M;
  TypeRelations &Rels;
  std::vector<uint64_t> Key;
};

size_t countInstrs(const IrModule &M) {
  size_t N = 0;
  for (const IrFunction *F : M.Functions)
    for (const IrBlock *B : F->Blocks)
      N += B->Instrs.size();
  return N;
}

} // namespace

ShareStats virgil::shareSpecializations(IrModule &M) {
  assert(M.Monomorphized && M.Normalized &&
         "sharing requires a normalized monomorphic module");
  ShareStats Stats;
  Stats.FunctionsBefore = M.Functions.size();
  Stats.InstrsBefore = countInstrs(M);

  size_t N = M.Functions.size();

  // --- Taken set: functions whose identity escapes into values. ------
  // Every MakeClosure callee, plus every vtable entry at a slot some
  // *bound* virtual MakeClosure resolves through (the resolved impl is
  // stored in the closure, so all candidate impls become observable).
  std::set<const IrFunction *> Taken;
  std::set<int> BoundVirtualSlots;
  for (const IrFunction *F : M.Functions)
    for (const IrBlock *B : F->Blocks)
      for (const IrInstr *I : B->Instrs)
        if (I->Op == Opcode::MakeClosure) {
          Taken.insert(I->Callee);
          if (!I->Args.empty() && I->Callee->Slot >= 0)
            BoundVirtualSlots.insert(I->Callee->Slot);
        }
  for (int Slot : BoundVirtualSlots)
    for (const IrClass *C : M.Classes)
      if ((size_t)Slot < C->VTable.size() && C->VTable[Slot])
        Taken.insert(C->VTable[Slot]);

  // --- Initial partition by structural body key. ---------------------
  TypeRelations Rels(*M.Types);
  BodyKey Keyer(M, Rels);
  std::vector<std::vector<uint32_t>> CalleeIds(N);
  std::vector<uint32_t> Class(N);
  {
    std::map<std::vector<uint64_t>, uint32_t> KeyClasses;
    for (size_t I = 0; I != N; ++I) {
      IrFunction *F = M.Functions[I];
      assert(F->id() == I && "function ids must be table positions");
      std::vector<const IrFunction *> Callees;
      std::vector<uint64_t> Key = Keyer.build(*F, Callees);
      if (Taken.count(F)) {
        // Identity-observable: force a singleton class.
        Key.push_back(~0ull);
        Key.push_back(F->id());
      }
      for (const IrFunction *C : Callees)
        CalleeIds[I].push_back(C->id());
      auto It = KeyClasses.emplace(std::move(Key),
                                   (uint32_t)KeyClasses.size());
      Class[I] = It.first->second;
    }
  }

  // --- Refine by callee classes until fixpoint. ----------------------
  // Classic partition refinement: split any class whose members call
  // into different classes at some position. Class count only grows,
  // bounded by N, so this terminates.
  for (;;) {
    std::map<std::vector<uint32_t>, uint32_t> SigClasses;
    std::vector<uint32_t> Next(N);
    for (size_t I = 0; I != N; ++I) {
      std::vector<uint32_t> Sig;
      Sig.reserve(CalleeIds[I].size() + 1);
      Sig.push_back(Class[I]);
      for (uint32_t C : CalleeIds[I])
        Sig.push_back(Class[C]);
      auto It = SigClasses.emplace(std::move(Sig),
                                   (uint32_t)SigClasses.size());
      Next[I] = It.first->second;
    }
    bool Stable = SigClasses.size() ==
                  (size_t)(std::set<uint32_t>(Class.begin(), Class.end())
                               .size());
    Class = std::move(Next);
    if (Stable)
      break;
  }

  // --- Pick representatives (lowest id wins) and redirect. -----------
  std::map<uint32_t, IrFunction *> RepOfClass;
  for (size_t I = 0; I != N; ++I)
    if (!RepOfClass.count(Class[I]))
      RepOfClass[Class[I]] = M.Functions[I]; // ids ascend with I
  auto rep = [&](IrFunction *F) -> IrFunction * {
    return F ? RepOfClass[Class[F->id()]] : nullptr;
  };

  for (IrFunction *F : M.Functions) {
    if (rep(F) != F)
      continue; // body will be dropped; no need to rewrite it
    for (IrBlock *B : F->Blocks)
      for (IrInstr *I : B->Instrs)
        if (I->Callee)
          I->Callee = rep(I->Callee);
  }
  for (IrClass *C : M.Classes)
    for (IrFunction *&Entry : C->VTable)
      Entry = rep(Entry);
  M.Main = rep(M.Main);
  M.Init = rep(M.Init);

  // --- Compact the function table and renumber. ----------------------
  std::vector<IrFunction *> Kept;
  Kept.reserve(N);
  for (IrFunction *F : M.Functions)
    if (rep(F) == F)
      Kept.push_back(F);
  for (size_t I = 0; I != Kept.size(); ++I)
    Kept[I]->renumber((uint32_t)I);
  M.Functions = std::move(Kept);
  M.Shared = true;

  Stats.FunctionsAfter = M.Functions.size();
  Stats.BodiesShared = Stats.FunctionsBefore - Stats.FunctionsAfter;
  Stats.InstrsAfter = countInstrs(M);
  return Stats;
}
