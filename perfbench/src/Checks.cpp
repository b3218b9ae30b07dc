//===- perfbench/src/Checks.cpp - Output checks apart from the code -------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "encoder/Encoder.h"
#include "isa/Spec.h"
#include "sass/CtrlInfo.h"
#include "sass/Printer.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/SampleGen.h"

#include <set>

using namespace dcb;
using namespace perfbench;

std::optional<BitString> perfbench::wordAt(const std::vector<uint8_t> &Code,
                                           uint64_t Addr, unsigned Bits) {
  unsigned Bytes = Bits / 8;
  if (Addr % Bytes != 0 || Addr + Bytes > Code.size())
    return std::nullopt;
  return BitString::fromBytes(Code.data() + Addr, Bytes);
}

static std::string at(const std::string &Kernel, uint64_t Addr) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "@0x%llx",
                static_cast<unsigned long long>(Addr));
  return Kernel + Buf;
}

std::string perfbench::checkListingAgainstCode(const analyzer::Listing &L,
                                               const KernelCodeMap &Code) {
  const isa::ArchSpec &Spec = isa::getArchSpec(L.A);
  const unsigned Bits = archWordBits(L.A);
  std::set<std::string> Shown;
  for (const analyzer::ListingKernel &K : L.Kernels) {
    auto It = Code.find(K.Name);
    if (It == Code.end())
      return "listing shows unknown kernel " + K.Name;
    if (!Shown.insert(K.Name).second)
      return "listing shows kernel " + K.Name + " twice";
    const std::vector<uint8_t> &Bytes = It->second;
    std::set<uint64_t> Seen;
    for (const analyzer::ListingInst &I : K.Insts) {
      std::optional<BitString> Word = wordAt(Bytes, I.Address, Bits);
      if (!Word || !Seen.insert(I.Address).second)
        return at(K.Name, I.Address) + ": address outside the code or repeated";
      if (I.Binary != *Word)
        return at(K.Name, I.Address) + ": listing shows 0x" +
               I.Binary.toHex() + ", cubin has 0x" + Word->toHex();
      Expected<BitString> Enc =
          encoder::encodeInstruction(Spec, I.Inst, I.Address);
      if (!Enc)
        return at(K.Name, I.Address) + ": oracle cannot encode '" +
               sass::printInstruction(I.Inst) + "': " + Enc.message();
      if (*Enc != *Word)
        return at(K.Name, I.Address) + ": '" + sass::printInstruction(I.Inst) +
               "' encodes to 0x" + Enc->toHex() + ", cubin has 0x" +
               Word->toHex();
    }
    for (const analyzer::ListingSchi &S : K.Schis) {
      std::optional<BitString> Word = wordAt(Bytes, S.Address, Bits);
      if (!Word || !Seen.insert(S.Address).second || S.Word != *Word)
        return at(K.Name, S.Address) + ": SCHI word differs from the cubin";
    }
    if (Seen.size() * (Bits / 8) != Bytes.size())
      return K.Name + ": listing shows " + std::to_string(Seen.size()) +
             " words, cubin has " + std::to_string(Bytes.size() / (Bits / 8));
  }
  if (Shown.size() != Code.size())
    return "listing shows " + std::to_string(Shown.size()) + " of " +
           std::to_string(Code.size()) + " kernels";
  return "";
}

/// The SCHI word that must carry \p Ctrl (one entry per instruction slot of
/// the group), laid out as the documented formats: Kepler keeps fixed
/// marker bits and one dispatch byte per slot, Maxwell three 21-bit groups.
static BitString expectedSchi(SchiKind Kind,
                              const std::vector<const sass::CtrlInfo *> &Ctrl) {
  BitString Word(64);
  if (Kind == SchiKind::Maxwell) {
    for (unsigned S = 0; S < Ctrl.size(); ++S)
      Word.setField(S * 21, 21, sass::packMaxwellGroup(*Ctrl[S]));
    return Word;
  }
  unsigned Base = Kind == SchiKind::Kepler30 ? 4 : 2;
  if (Kind == SchiKind::Kepler30) {
    Word.setField(0, 4, 7);
    Word.setField(60, 4, 2);
  } else {
    Word.setField(58, 6, 2);
  }
  for (unsigned S = 0; S < Ctrl.size(); ++S)
    Word.setField(Base + S * 8, 8, sass::encodeKeplerDispatch(*Ctrl[S]));
  return Word;
}

std::string perfbench::checkRewrittenKernel(const ir::Kernel &K,
                                            const std::vector<uint8_t> &Code) {
  Expected<std::vector<vendor::DecodedWord>> Decoded =
      vendor::decodeKernelCode(K.A, K.Name, Code);
  if (!Decoded)
    return K.Name + ": oracle cannot decode the rewritten code: " +
           Decoded.message();

  std::vector<const ir::Inst *> Flat;
  std::vector<size_t> BlockStart;
  for (const ir::Block &B : K.Blocks) {
    BlockStart.push_back(Flat.size());
    for (const ir::Inst &I : B.Insts)
      Flat.push_back(&I);
  }
  std::vector<const vendor::DecodedWord *> Insts, Schis;
  for (const vendor::DecodedWord &W : *Decoded)
    (W.IsSchi ? Schis : Insts).push_back(&W);

  const SchiKind Schi = archSchiKind(K.A);
  const unsigned Group = schiGroupSize(Schi);
  if (Insts.size() < Flat.size() ||
      Insts.size() - Flat.size() >= std::max(1u, Group - 1))
    return K.Name + ": rewritten code has " + std::to_string(Insts.size()) +
           " instructions, transformed IR has " + std::to_string(Flat.size());

  const isa::ArchSpec &Spec = isa::getArchSpec(K.A);
  sass::CtrlInfo PadCtrl;
  std::vector<const sass::CtrlInfo *> Ctrl;
  for (size_t I = 0; I < Insts.size(); ++I) {
    const vendor::DecodedWord &W = *Insts[I];
    std::string Want = "NOP;";
    Ctrl.push_back(&PadCtrl);
    if (I < Flat.size()) {
      sass::Instruction Expect = Flat[I]->Asm;
      int Target = Flat[I]->TargetBlock;
      if (Target >= 0) {
        if (static_cast<size_t>(Target) >= BlockStart.size() ||
            BlockStart[Target] >= Insts.size())
          return at(K.Name, W.Address) + ": branch to a missing block";
        Expect.Operands.back() = sass::Operand::makeIntImm(
            static_cast<int64_t>(Insts[BlockStart[Target]]->Address));
      }
      Want = sass::printInstruction(Expect);
      Ctrl.back() = &Flat[I]->Ctrl;
    }
    std::string Got = sass::printInstruction(W.Inst);
    if (Got != Want)
      return at(K.Name, W.Address) + ": oracle decodes '" + Got +
             "', transformed IR has '" + Want + "'";
    Expected<BitString> Enc = encoder::encodeInstruction(Spec, W.Inst, W.Address);
    if (!Enc || *Enc != W.Word)
      return at(K.Name, W.Address) + ": word 0x" + W.Word.toHex() +
             " does not re-encode to itself";
  }

  if (Group > 1 && Schis.size() * (Group - 1) != Insts.size())
    return K.Name + ": SCHI words do not cover the instructions";
  for (size_t G = 0; G < Schis.size(); ++G) {
    std::vector<const sass::CtrlInfo *> Slots(
        Ctrl.begin() + G * (Group - 1), Ctrl.begin() + (G + 1) * (Group - 1));
    if (Schis[G]->Word != expectedSchi(Schi, Slots))
      return at(K.Name, Schis[G]->Address) + ": SCHI word 0x" +
             Schis[G]->Word.toHex() + " does not carry the IR's control info";
  }
  return "";
}

std::string perfbench::expectedAsmOutput(
    const std::vector<uint8_t> &Code,
    const std::vector<uint64_t> &InstAddresses, unsigned WordBits) {
  std::string Out;
  for (uint64_t Addr : InstAddresses) {
    std::optional<BitString> Word = wordAt(Code, Addr, WordBits);
    Out += "0x" + (Word ? Word->toHex() : std::string("??")) + "\n";
  }
  return Out;
}

static std::string checkOkReply(const JsonValue &Reply, const char *Op) {
  std::string Status = Reply.str("status");
  if (Status != "ok")
    return std::string(Op) + " reply status '" + Status + "': " +
           Reply.str("error");
  if (Reply.str("op") != Op)
    return std::string(Op) + " reply for op '" + Reply.str("op") + "'";
  const JsonValue *Errors = Reply.get("errors");
  if (Errors && !Errors->Items.empty())
    return std::string(Op) + " reply carries " +
           std::to_string(Errors->Items.size()) + " errors, first: " +
           Errors->Items.front().Str;
  if (Reply.num("exit") != 0)
    return std::string(Op) + " reply exit code is not 0";
  return "";
}

std::string perfbench::checkAsmReply(const JsonValue &Reply,
                                     const std::string &Expected) {
  if (std::string E = checkOkReply(Reply, "asm"); !E.empty())
    return E;
  const std::string Output = Reply.str("output");
  if (Output == Expected)
    return "";
  size_t Line = 0, P = 0;
  while (P < Output.size() && P < Expected.size() && Output[P] == Expected[P])
    Line += Output[P++] == '\n';
  return "asm reply differs from the oracle's words at line " +
         std::to_string(Line + 1);
}

std::string perfbench::checkDisasmReply(const JsonValue &Reply,
                                        const KernelCodeMap &Code) {
  if (std::string E = checkOkReply(Reply, "disasm"); !E.empty())
    return E;
  Expected<analyzer::Listing> L = analyzer::parseListing(Reply.str("output"));
  if (!L)
    return "disasm reply does not parse as a listing: " + L.message();
  return checkListingAgainstCode(*L, Code);
}

HeldOutSample perfbench::makeHeldOutSample(Arch A, unsigned PerForm,
                                           uint64_t Seed) {
  const isa::ArchSpec &Spec = isa::getArchSpec(A);
  const unsigned WordBytes = archWordBits(A) / 8;
  Rng R(Seed);
  HeldOutSample S;
  uint64_t Index = 0;
  for (const isa::InstrSpec &Form : Spec.Instrs) {
    for (unsigned K = 0; K < PerForm; ++K, ++Index) {
      uint64_t Pc = Index * WordBytes;
      sass::Instruction Inst = vendor::randomInstruction(Spec, Form, R, Pc);
      Expected<BitString> Ref = encoder::encodeInstruction(Spec, Inst, Pc);
      if (!Ref) {
        ++S.Unencodable;
        continue;
      }
      S.Insts.push_back(std::move(Inst));
      S.Pcs.push_back(Pc);
      S.Ref.push_back(Ref.takeValue());
    }
  }
  return S;
}

HeldOutScore
perfbench::scoreHeldOut(const HeldOutSample &S,
                        const std::vector<Expected<BitString>> &Words) {
  HeldOutScore Score;
  for (size_t I = 0; I < S.Ref.size(); ++I) {
    if (I >= Words.size() || !Words[I])
      ++Score.Rejected;
    else if (*Words[I] == S.Ref[I])
      ++Score.Exact;
    else
      ++Score.Wrong;
  }
  return Score;
}

unsigned perfbench::countSuiteMismatches(
    const analyzer::Listing &L, const KernelCodeMap &Code,
    const std::vector<Expected<BitString>> &Words, std::string &First) {
  const unsigned Bits = archWordBits(L.A);
  unsigned Bad = 0;
  size_t Idx = 0;
  for (const analyzer::ListingKernel &K : L.Kernels) {
    auto It = Code.find(K.Name);
    for (const analyzer::ListingInst &I : K.Insts) {
      const Expected<BitString> *W = Idx < Words.size() ? &Words[Idx] : nullptr;
      ++Idx;
      std::optional<BitString> Want;
      if (It != Code.end())
        Want = wordAt(It->second, I.Address, Bits);
      if (W && *W && Want && **W == *Want)
        continue;
      if (Bad++ == 0)
        First = at(K.Name, I.Address) + ": '" +
                sass::printInstruction(I.Inst) + "' " +
                (!W || !*W ? std::string("rejected")
                           : "assembles to 0x" + (*W)->toHex());
    }
  }
  return Bad;
}
