//===- perfbench/tests/ChecksTest.cpp - The benchmark's checks fire -------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each test runs a check on a correct output (it must pass), then on the
// same output with one corruption (it must fire): a bit flipped in a
// rewritten cubin's code, a wrong word in a served reply, and a learned
// database record altered so held-out instances mis-encode.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "analyzer/Signature.h"
#include "asmgen/TableAssembler.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "serve/Server.h"
#include "transform/Passes.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace dcb;
using namespace perfbench;

namespace {

const analyzer::EncodingDatabase &sm35Db() {
  static const analyzer::EncodingDatabase Db =
      learnDatabase(compileSuite(Arch::SM35));
  return Db;
}

/// One sm_35 suite kernel compiled on its own.
vendor::CompiledKernel compileOne(size_t Index) {
  Expected<vendor::CompiledKernel> K = vendor::NvccSim(Arch::SM35)
      .compileKernel(workloads::buildSuite(Arch::SM35).at(Index));
  EXPECT_TRUE(K.hasValue());
  return K.takeValue();
}

std::vector<uint8_t> imageOf(const vendor::CompiledKernel &K) {
  elf::Cubin C(Arch::SM35);
  C.addKernel(K.Section);
  return C.serialize();
}

/// Lifts, clears R9/R10 before exit and emits, as the rewrite workload does.
std::pair<ir::Kernel, std::vector<uint8_t>>
rewrite(const std::vector<uint8_t> &Image) {
  Expected<std::string> Text = vendor::disassembleImage(Image);
  EXPECT_TRUE(Text.hasValue());
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  EXPECT_TRUE(L.hasValue());
  Expected<ir::Program> P = ir::buildProgram(*L);
  EXPECT_TRUE(P.hasValue());
  std::vector<transform::Pass> Pipeline = {
      {"clear-regs", [](ir::Kernel &K) {
         transform::clearRegistersBeforeExit(K, {9, 10});
       }}};
  EXPECT_TRUE(transform::runPasses(P->Kernels[0], Pipeline).ok());
  Expected<std::vector<uint8_t>> New = ir::emitProgram(sm35Db(), *P, Image);
  EXPECT_TRUE(New.hasValue());
  Expected<elf::Cubin> C = elf::Cubin::deserialize(*New);
  EXPECT_TRUE(C.hasValue());
  return {P->Kernels[0], C->kernels()[0].Code};
}

} // namespace

TEST(PerfbenchChecks, BitFlippedInRewrittenCodeIsCaught) {
  auto [K, Code] = rewrite(imageOf(compileOne(0)));
  ASSERT_EQ(checkRewrittenKernel(K, Code), "");
  // Word 0 is a SCHI word on sm_35, word 1 an instruction: every single-bit
  // flip in either must be caught.
  for (unsigned Bit = 0; Bit < 128; ++Bit) {
    std::vector<uint8_t> Bad = Code;
    Bad[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    EXPECT_NE(checkRewrittenKernel(K, Bad), "") << "bit " << Bit;
  }
}

TEST(PerfbenchChecks, WrongWordInServedRepliesIsCaught) {
  vendor::CompiledKernel K = compileOne(1);
  std::vector<uint8_t> Image = imageOf(K);
  Expected<std::string> Listing = vendor::disassembleImage(Image);
  ASSERT_TRUE(Listing.hasValue());

  serve::ServerOptions Opts;
  Opts.Jobs = 1;
  serve::Server Server(Opts, sm35Db());
  ASSERT_FALSE(Server.start());
  std::unique_ptr<LineConn> Conn = LineConn::connect(Server.port());
  ASSERT_TRUE(Conn);
  auto ask = [&](const std::string &Op, const std::vector<uint8_t> &Data) {
    std::string Reply;
    EXPECT_TRUE(Conn->send("{\"op\":\"" + Op + "\",\"data_b64\":\"" +
                           base64(Data) + "\"}"));
    EXPECT_TRUE(Conn->recvLine(Reply));
    std::optional<JsonValue> J = parseJson(Reply);
    EXPECT_TRUE(J.has_value()) << Reply;
    return J.value_or(JsonValue());
  };

  JsonValue Asm = ask("asm", {Listing->begin(), Listing->end()});
  const std::string Expect =
      expectedAsmOutput(K.Section.Code, K.InstAddresses, 64);
  ASSERT_EQ(checkAsmReply(Asm, Expect), "");
  std::string &Out = Asm.Fields["output"].Str;
  size_t Digit = Out.find('\n', Out.size() / 2) - 1; // Low hex digit of a word.
  Out[Digit] = Out[Digit] == '0' ? '1' : '0';
  EXPECT_NE(checkAsmReply(Asm, Expect), "");

  KernelCodeMap Code{{K.Section.Name, K.Section.Code}};
  JsonValue Disasm = ask("disasm", Image);
  ASSERT_EQ(checkDisasmReply(Disasm, Code), "");
  std::string &Text = Disasm.Fields["output"].Str;
  size_t Hex = Text.find("/* 0x", Text.size() / 2);
  ASSERT_NE(Hex, std::string::npos) << Text;
  Text[Hex + 20] = Text[Hex + 20] == '0' ? '1' : '0';
  EXPECT_NE(checkDisasmReply(Disasm, Code), "");
}

TEST(PerfbenchChecks, AlteredDatabaseRecordRaisesHeldOutFailures) {
  HeldOutSample S = makeHeldOutSample(Arch::SM35, 20, 12345);
  std::vector<asmgen::AsmJob> Jobs;
  for (size_t I = 0; I < S.Insts.size(); ++I)
    Jobs.push_back({&S.Insts[I], S.Pcs[I]});
  analyzer::EncodingDatabase Db = sm35Db();
  HeldOutScore Before = scoreHeldOut(S, asmgen::assembleProgram(Db, Jobs));
  ASSERT_GT(Before.Exact, 0u);

  // Alter one opcode bit of the record behind the first exact instance.
  size_t First = 0;
  std::vector<Expected<BitString>> Words = asmgen::assembleProgram(Db, Jobs);
  while (!(Words[First] && *Words[First] == S.Ref[First]))
    ++First;
  analyzer::OperationRec &Rec =
      Db.operations().at(analyzer::operationKey(S.Insts[First]));
  unsigned Bit = 0;
  while (!Rec.Opcode.Bits[Bit])
    ++Bit;
  Rec.Opcode.Binary.flip(Bit);

  HeldOutScore After = scoreHeldOut(S, asmgen::assembleProgram(Db, Jobs));
  EXPECT_GT(After.failures(), Before.failures());
  EXPECT_LT(After.Exact, Before.Exact);
}
