//===- asmgen/TableAssembler.cpp ------------------------------------------===//

#include "asmgen/TableAssembler.h"

#include "analyzer/FrozenIndex.h"
#include "analyzer/ModifierTypes.h"
#include "analyzer/Signature.h"
#include "asmgen/AsmCore.h"
#include "sass/Printer.h"
#include "support/Telemetry.h"

using namespace dcb;
using namespace dcb::asmgen;
using namespace dcb::analyzer;

namespace {

/// Formats the one failure an assembly attempt produces. Deliberately a
/// separate, never-inlined step: the success path does no string work at
/// all, and both the frozen and the string-map path fail with byte-equal
/// messages.
Expected<BitString> assembleFail(const EncodingDatabase &Db,
                                 const sass::Instruction &Inst,
                                 const std::string &Msg) {
  return Failure("assemble (" + std::string(archName(Db.arch())) + "): " +
                 Msg + " in '" + sass::printInstruction(Inst) + "'");
}

/// The unary operators an operand can carry, in application order.
struct UnaryCase {
  bool Present;
  char Ch;
  const char *What;
};

/// Original string-map interpreter, kept as the unfrozen fallback (and as
/// the baseline the throughput bench compares the frozen path against).
Expected<BitString> assembleWithMaps(const EncodingDatabase &Db,
                                     const sass::Instruction &Inst,
                                     uint64_t Pc) {
  auto fail = [&](const std::string &Msg) {
    return assembleFail(Db, Inst, Msg);
  };

  const OperationRec *Op = Db.lookup(operationKey(Inst));
  if (!Op)
    return fail("unknown operation " + operationKey(Inst));

  BitString Word(Db.wordBits());

  // 1. Opcode bits (every still-consistent bit of the operation record).
  applyPattern(Word, Op->Opcode);

  // 2. Opcode-attached modifiers, matched by (name, same-type occurrence)
  //    so PSETP.AND.OR and PSETP.OR.AND encode differently (§III-A).
  std::map<std::string, unsigned> TypeCounts;
  for (const std::string &Mod : Inst.Modifiers) {
    unsigned Occurrence = TypeCounts[modifierType(Mod)]++;
    auto It = Op->Mods.find({Mod, Occurrence});
    if (It == Op->Mods.end())
      return fail("unknown modifier '." + Mod + "'");
    applyPattern(Word, It->second);
  }

  // 3. Operands: attached modifiers, unary operators and named tokens
  //    first; value components last so the most variable information wins
  //    any stale overlap.
  const unsigned WordBytes = Db.wordBits() / 8;
  for (size_t I = 0; I < Inst.Operands.size(); ++I) {
    const sass::Operand &Operand = Inst.Operands[I];
    const OperandRec &Rec = Op->Operands[I];

    for (const std::string &Mod : Operand.Mods) {
      auto It = Rec.Mods.find(Mod);
      if (It == Rec.Mods.end())
        return fail("unknown operand modifier '." + Mod + "'");
      applyPattern(Word, It->second);
    }

    UnaryCase Unaries[] = {
        {Operand.Negated && Operand.Kind != sass::OperandKind::IntImm, '-',
         "negation"},
        {Operand.Complemented, '~', "bitwise complement"},
        {Operand.Absolute, '|', "absolute value"},
        {Operand.LogicalNot, '!', "logical negation"},
    };
    for (const UnaryCase &U : Unaries) {
      if (!U.Present)
        continue;
      auto It = Rec.Unaries.find(U.Ch);
      if (It == Rec.Unaries.end())
        return fail(std::string("unlearned unary ") + U.What);
      applyPattern(Word, It->second);
    }

    std::string Token = tokenName(Operand);
    if (!Token.empty()) {
      auto It = Rec.Tokens.find(Token);
      if (It == Rec.Tokens.end())
        return fail("unlearned token '" + Token + "'");
      applyPattern(Word, It->second);
      continue;
    }

    for (unsigned Comp = 0; Comp < Rec.Comps.size(); ++Comp) {
      CompValue Value;
      if (!componentValue(Operand, Comp, Pc, WordBytes, Value))
        continue;
      std::vector<WindowRef> Windows = collectWindows(
          Rec.Comps[Comp], interpKindsFor(Rec.SigChar, Comp, Op->Mnemonic));
      if (!writeComponentWindows(Word, Windows.data(), Windows.size(),
                                 Value))
        return fail("operand " + std::to_string(I) + " component " +
                    std::to_string(Comp) + " fits no learned field");
    }
  }

  // 4. The conditional guard, last (Fig. 7).
  CompValue GuardValue;
  GuardValue.Int = (Inst.GuardNegated ? 8 : 0) |
                   static_cast<int64_t>(Inst.GuardPredicate);
  GuardValue.InstAddr = Pc;
  GuardValue.WordBytes = WordBytes;
  std::vector<WindowRef> GuardWindows =
      collectWindows(Op->Guard, {InterpKind::Plain});
  if (!writeComponentWindows(Word, GuardWindows.data(), GuardWindows.size(),
                             GuardValue))
    return fail("guard fits no learned field");

  return Word;
}

/// Frozen-index fast path: integer operation key, id-keyed modifier/token
/// lookup, precomputed windows. No heap allocation and no string traffic on
/// the success path; failures reproduce assembleWithMaps' messages exactly.
Expected<BitString> assembleWithIndex(const EncodingDatabase &Db,
                                      const FrozenIndex &Idx,
                                      const sass::Instruction &Inst,
                                      uint64_t Pc) {
  auto fail = [&](const std::string &Msg) {
    return assembleFail(Db, Inst, Msg);
  };

  const FrozenOperation *Op = Idx.lookup(operationKeyId(Inst));
  if (!Op)
    return fail("unknown operation " + operationKey(Inst));

  SymbolTable &Syms = SymbolTable::global();
  BitString Word(Db.wordBits());
  auto apply = [&Word](const PackedPattern &P) {
    applyPatternWords(Word, P.Value, P.Mask, P.NumWords);
  };

  // 1. Opcode bits.
  apply(Op->Opcode);

  // 2. Opcode-attached modifiers: the occurrence index counts previous
  //    modifiers of the same *type* (same as the map path's
  //    modifierType()-keyed counting — FrozenMod::Type interns exactly
  //    that), tracked in a stack table since real instructions carry only
  //    a handful of modifiers.
  constexpr size_t MaxTrackedTypes = 32;
  SymbolId SeenTypes[MaxTrackedTypes];
  unsigned SeenCounts[MaxTrackedTypes];
  size_t NumSeenTypes = 0;
  if (Inst.Modifiers.size() > MaxTrackedTypes)
    return assembleWithMaps(Db, Inst, Pc); // Absurd input; stay correct.
  const bool HaveSyms = Inst.ModifierSyms.size() == Inst.Modifiers.size();
  for (size_t MI = 0; MI < Inst.Modifiers.size(); ++MI) {
    // Parser-built instructions carry interned ids; others (hand-built
    // ASTs, decoder output) resolve by allocation-free probe — a miss
    // means the spelling was never learned anywhere.
    SymbolId Id = HaveSyms ? Inst.ModifierSyms[MI]
                           : Syms.find(Inst.Modifiers[MI]);
    SymbolId Type = Op->modType(Id);
    if (Type == InvalidSymbolId)
      return fail("unknown modifier '." + Inst.Modifiers[MI] + "'");
    unsigned Occurrence = 0;
    size_t T = 0;
    for (; T < NumSeenTypes; ++T)
      if (SeenTypes[T] == Type) {
        Occurrence = ++SeenCounts[T] - 1;
        break;
      }
    if (T == NumSeenTypes) {
      SeenTypes[NumSeenTypes] = Type;
      SeenCounts[NumSeenTypes] = 1;
      ++NumSeenTypes;
    }
    const PackedPattern *Pattern = Op->findMod(Id, Occurrence);
    if (!Pattern)
      return fail("unknown modifier '." + Inst.Modifiers[MI] + "'");
    apply(*Pattern);
  }

  // 3. Operands.
  const unsigned WordBytes = Db.wordBits() / 8;
  for (size_t I = 0; I < Inst.Operands.size(); ++I) {
    const sass::Operand &Operand = Inst.Operands[I];
    const FrozenOperand &Rec = Op->Operands[I];

    for (const std::string &Mod : Operand.Mods) {
      const PackedPattern *Pattern = Rec.findMod(Syms.find(Mod));
      if (!Pattern)
        return fail("unknown operand modifier '." + Mod + "'");
      apply(*Pattern);
    }

    UnaryCase Unaries[] = {
        {Operand.Negated && Operand.Kind != sass::OperandKind::IntImm, '-',
         "negation"},
        {Operand.Complemented, '~', "bitwise complement"},
        {Operand.Absolute, '|', "absolute value"},
        {Operand.LogicalNot, '!', "logical negation"},
    };
    for (const UnaryCase &U : Unaries) {
      if (!U.Present)
        continue;
      const PackedPattern &Pattern =
          Rec.Unaries[FrozenIndex::unarySlot(U.Ch)];
      if (!Pattern)
        return fail(std::string("unlearned unary ") + U.What);
      apply(Pattern);
    }

    char TokenBuf[4];
    std::string_view Token = tokenView(Operand, TokenBuf);
    if (!Token.empty()) {
      const PackedPattern *Pattern = Rec.findToken(Syms.find(Token));
      if (!Pattern)
        return fail("unlearned token '" + std::string(Token) + "'");
      apply(*Pattern);
      continue;
    }

    for (unsigned Comp = 0; Comp < Rec.CompWindows.size(); ++Comp) {
      CompValue Value;
      if (!componentValue(Operand, Comp, Pc, WordBytes, Value))
        continue;
      const std::vector<WindowRef> &Windows = Rec.CompWindows[Comp];
      if (!writeComponentWindows(Word, Windows.data(), Windows.size(),
                                 Value))
        return fail("operand " + std::to_string(I) + " component " +
                    std::to_string(Comp) + " fits no learned field");
    }
  }

  // 4. The conditional guard, last (Fig. 7).
  CompValue GuardValue;
  GuardValue.Int = (Inst.GuardNegated ? 8 : 0) |
                   static_cast<int64_t>(Inst.GuardPredicate);
  GuardValue.InstAddr = Pc;
  GuardValue.WordBytes = WordBytes;
  if (!writeComponentWindows(Word, Op->GuardWindows.data(),
                             Op->GuardWindows.size(), GuardValue))
    return fail("guard fits no learned field");

  return Word;
}

} // namespace

Expected<BitString> asmgen::assembleInstruction(const EncodingDatabase &Db,
                                                const sass::Instruction &Inst,
                                                uint64_t Pc) {
  if (const FrozenIndex *Idx = Db.frozen())
    return assembleWithIndex(Db, *Idx, Inst, Pc);
  return assembleWithMaps(Db, Inst, Pc);
}

std::vector<Expected<BitString>>
asmgen::assembleProgram(const EncodingDatabase &Db,
                        const std::vector<AsmJob> &Jobs,
                        const BatchOptions &Options) {
  DCB_SPAN("asmgen.assembleProgram");
  static telemetry::Counter &AsmJobs =
      telemetry::counter("asmgen.assemble.jobs");
  static telemetry::Histogram &AsmBatchSize =
      telemetry::histogram("asmgen.assemble.batch_size");
  AsmJobs.add(Jobs.size());
  AsmBatchSize.record(Jobs.size());
  const FrozenIndex &Idx = Db.freeze();
  // Expected<> has no empty state; fill the slots with placeholder
  // successes, each overwritten exactly once by its own index.
  std::vector<Expected<BitString>> Results(
      Jobs.size(), Expected<BitString>(BitString()));
  TaskPool Pool(Options.lanesFor(Jobs.size()));
  parallelForChunked(
      Pool, Jobs.size(), Options.ChunkSize,
      [&](size_t I) {
        Results[I] = assembleWithIndex(Db, Idx, *Jobs[I].Inst, Jobs[I].Pc);
      },
      "asmgen.assemble.chunk");
  return Results;
}

unsigned asmgen::reassembleKernel(const EncodingDatabase &Db,
                                  const ListingKernel &Kernel,
                                  std::vector<std::string> *Mismatches) {
  Db.freeze();
  unsigned Identical = 0;
  for (const ListingInst &Pair : Kernel.Insts) {
    Expected<BitString> Word =
        assembleInstruction(Db, Pair.Inst, Pair.Address);
    if (Word.hasValue() && *Word == Pair.Binary) {
      ++Identical;
      continue;
    }
    if (Mismatches) {
      std::string Note = Pair.AsmText;
      Note += Word.hasValue() ? " [wrong bits]" : " [" + Word.message() + "]";
      Mismatches->push_back(std::move(Note));
    }
  }
  return Identical;
}
