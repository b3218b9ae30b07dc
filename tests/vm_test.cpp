//===- tests/vm_test.cpp - SASS interpreter --------------------------------===//

#include "vm/Vm.h"

#include "analyzer/IsaAnalyzer.h"
#include "ir/Builder.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace dcb;
using namespace dcb::vm;

namespace {

/// Builds a kernel, compiles it with the oracle, and returns its IR.
ir::Kernel makeIr(Arch A, vendor::KernelBuilder K) {
  vendor::NvccSim Nvcc(A);
  Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(K);
  EXPECT_TRUE(Compiled.hasValue()) << Compiled.message();
  Expected<std::string> Text =
      vendor::disassembleKernelCode(A, K.name(), Compiled->Section.Code);
  EXPECT_TRUE(Text.hasValue()) << Text.message();
  Expected<analyzer::Listing> L = analyzer::parseListing(
      "code for " + std::string(archName(A)) + "\n" + *Text);
  EXPECT_TRUE(L.hasValue()) << L.message();
  Expected<ir::Kernel> Kern = ir::buildKernel(A, L->Kernels.front());
  EXPECT_TRUE(Kern.hasValue()) << Kern.message();
  return Kern.takeValue();
}

void setConst32(Memory &Mem, unsigned Bank, size_t Offset, uint32_t Value) {
  auto &BankData = Mem.ConstBanks[Bank];
  if (BankData.size() < Offset + 4)
    BankData.resize(Offset + 4, 0);
  std::memcpy(BankData.data() + Offset, &Value, 4);
}

uint32_t global32(const Memory &Mem, size_t Offset) {
  uint32_t V;
  std::memcpy(&V, Mem.Global.data() + Offset, 4);
  return V;
}

void setGlobalF32(Memory &Mem, size_t Offset, float F) {
  std::memcpy(Mem.Global.data() + Offset, &F, 4);
}

float globalF32(const Memory &Mem, size_t Offset) {
  float F;
  std::memcpy(&F, Mem.Global.data() + Offset, 4);
  return F;
}

} // namespace

TEST(Vm, StraightLineArithmetic) {
  vendor::KernelBuilder K("k", Arch::SM52);
  K.ins("MOV R1, 0x5;");
  K.ins("IADD R2, R1, 0x3;");
  K.ins("IMUL R3, R2, R2;");
  K.ins("SHL R4, R3, 0x2;");
  K.ins("STG.E [RZ+0x40], R4;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM52, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(global32(Mem, 0x40), 64u * 4u); // ((5+3)^2) << 2
}

TEST(Vm, SaxpyOverGlobalMemory) {
  // y[i] = a*x[i] + y[i] for every thread i.
  vendor::KernelBuilder K("saxpy", Arch::SM35);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("MOV R5, c[0x0][0x4];");
  K.ins("IADD R5, R5, R4;");
  K.ins("LDG.E R6, [R5];");
  K.ins("MOV R7, c[0x0][0x8];");
  K.ins("IADD R7, R7, R4;");
  K.ins("LDG.E R8, [R7];");
  K.ins("FFMA R9, R6, c[0x0][0x10], R8;");
  K.ins("STG.E [R7], R9;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);

  Memory Mem;
  setConst32(Mem, 0, 0x4, 0x100);  // x base
  setConst32(Mem, 0, 0x8, 0x200);  // y base
  float A = 2.5f;
  uint32_t ABits;
  std::memcpy(&ABits, &A, 4);
  setConst32(Mem, 0, 0x10, ABits);
  for (unsigned I = 0; I < 8; ++I) {
    setGlobalF32(Mem, 0x100 + 4 * I, static_cast<float>(I));
    setGlobalF32(Mem, 0x200 + 4 * I, 1.0f);
  }

  LaunchConfig Config;
  Config.NumThreads = 8;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  for (unsigned I = 0; I < 8; ++I)
    EXPECT_FLOAT_EQ(globalF32(Mem, 0x200 + 4 * I), 2.5f * I + 1.0f) << I;
}

TEST(Vm, LoopsTerminate) {
  vendor::KernelBuilder K("loop", Arch::SM61);
  K.ins("MOV R0, RZ;");
  K.ins("MOV R1, RZ;");
  K.label("top");
  K.ins("IADD R1, R1, R0;");
  K.ins("IADD R0, R0, 0x1;");
  K.ins("ISETP.LT.AND P0, PT, R0, 0xa, PT;");
  K.branch("@P0 BRA", "top");
  K.ins("STG.E [RZ+0x10], R1;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM61, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x10), 45u); // sum 0..9
}

TEST(Vm, DivergenceReconvergesPerThread) {
  // Threads with tid < 4 take one path, the rest the other; all must
  // reconverge and store.
  for (Arch A : {Arch::SM35, Arch::SM52}) {
    vendor::KernelBuilder K("div", A);
    K.ins("S2R R0, SR_TID.X;");
    K.ins("SHL R4, R0, 0x2;");
    K.ins("ISETP.LT.AND P0, PT, R0, 0x4, PT;");
    K.branch("SSY", "join");
    K.branch("@!P0 BRA", "other");
    K.ins("MOV R5, 0x111;");
    K.reconverge();
    K.label("other");
    K.ins("MOV R5, 0x222;");
    K.reconverge();
    K.label("join");
    K.ins("STG.E [R4+0x80], R5;");
    K.exit();
    ir::Kernel Kern = makeIr(A, K);
    Memory Mem;
    LaunchConfig Config;
    Config.NumThreads = 8;
    Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
    ASSERT_TRUE(R.hasValue()) << archName(A) << ": " << R.message();
    for (unsigned I = 0; I < 8; ++I)
      EXPECT_EQ(global32(Mem, 0x80 + 4 * I), I < 4 ? 0x111u : 0x222u)
          << archName(A) << " thread " << I;
  }
}

TEST(Vm, CallAndReturn) {
  vendor::KernelBuilder K("call", Arch::SM35);
  K.ins("MOV R0, 0x7;");
  K.branch("CAL", "helper");
  K.ins("STG.E [RZ+0x20], R0;");
  K.ins("EXIT;");
  K.label("helper");
  K.ins("IADD R0, R0, 0x10;");
  K.ins("RET;");
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x20), 0x17u);
}

TEST(Vm, LocalAndSharedMemoryAreDistinct) {
  vendor::KernelBuilder K("mem", Arch::SM50);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("IADD R1, R0, 0x64;");
  K.ins("STL [R4], R1;"); // local
  K.ins("IADD R2, R0, 0xc8;");
  K.ins("STS [R4], R2;"); // shared
  K.ins("LDL R5, [R4];");
  K.ins("LDS R6, [R4];");
  K.ins("IADD R7, R5, R6;");
  K.ins("STG.E [R4+0x100], R7;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM50, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 4;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(global32(Mem, 0x100 + 4 * I), (I + 0x64) + (I + 0xc8)) << I;
}

TEST(Vm, PredicatesAndSelect) {
  vendor::KernelBuilder K("p", Arch::SM35);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("ISETP.GE.AND P0, P1, R0, 0x2, PT;");
  K.ins("MOV R2, 0x1;");
  K.ins("SEL R1, R2, 0x2, P0;");
  K.ins("@P1 IADD R1, R1, 0x10;"); // P1 = !P0.
  K.ins("STG.E [R4+0x40], R1;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 4;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x40), 0x12u);
  EXPECT_EQ(global32(Mem, 0x44), 0x12u);
  EXPECT_EQ(global32(Mem, 0x48), 0x1u);
  EXPECT_EQ(global32(Mem, 0x4c), 0x1u);
}

TEST(Vm, AtomicsSequentiallyConsistent) {
  vendor::KernelBuilder K("atom", Arch::SM61);
  K.ins("MOV R1, 0x1;");
  K.ins("ATOM.ADD R0, [RZ+0x30], R1;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM61, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 16;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x30), 16u);
}

TEST(Vm, FloatSpecialFunctions) {
  vendor::KernelBuilder K("mufu", Arch::SM35);
  K.ins("MOV32I R1, 0x40800000;"); // 4.0f
  K.ins("MUFU.RSQ R2, R1;");
  K.ins("MUFU.RCP R3, R1;");
  K.ins("STG.E [RZ+0x50], R2;");
  K.ins("STG.E [RZ+0x54], R3;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_FLOAT_EQ(globalF32(Mem, 0x50), 0.5f);
  EXPECT_FLOAT_EQ(globalF32(Mem, 0x54), 0.25f);
}

TEST(Vm, RunawayLoopsAreCaught) {
  vendor::KernelBuilder K("spin", Arch::SM35);
  K.label("top");
  K.branch("BRA", "top");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  Config.MaxStepsPerThread = 1000;
  Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("step limit"), std::string::npos);
}

TEST(Vm, UnsupportedInstructionIsReported) {
  vendor::KernelBuilder K("f2f16", Arch::SM35);
  K.ins("F2F.F16.F32 R4, R5;"); // Half precision is outside the VM's scope.
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("F2F"), std::string::npos);
}

TEST(Vm, DoubleArithmeticUsesRegisterPairs) {
  vendor::KernelBuilder K("dbl", Arch::SM35);
  K.ins("MOV R1, RZ;");
  K.ins("MOV32I R2, 0x40040000;"); // high word of 2.5
  K.ins("MOV R4, R1;");
  K.ins("MOV R5, R2;");
  K.ins("DADD R6, R4, 0.25;");
  K.ins("STG.E.64 [RZ+0x60], R6;");
  K.exit();
  // Register pair {R4,R5} holds 2.5; wait: DADD reads R4 pair.
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  // R4:R5 = 0x4004000000000000 = 2.5; 2.5 + 0.25 = 2.75.
  double D;
  std::memcpy(&D, Mem.Global.data() + 0x60, 8);
  EXPECT_DOUBLE_EQ(D, 2.75);
}

TEST(Vm, RegisterStateIsExposed) {
  vendor::KernelBuilder K("regs", Arch::SM52);
  K.ins("MOV R9, 0xab;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM52, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 2;
  Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
  ASSERT_TRUE(R.hasValue());
  ASSERT_EQ(R->size(), 2u);
  EXPECT_EQ((*R)[0].Regs[9], 0xabu);
  EXPECT_EQ((*R)[1].Regs[9], 0xabu);
  EXPECT_GT((*R)[0].Steps, 0u);
}

TEST(Vm, BitfieldExtractInsertAndPopcount) {
  vendor::KernelBuilder K("bits", Arch::SM35);
  K.ins("MOV32I R1, 0xdeadbeef;");
  K.ins("MOV32I R2, 0x804;");  // pos 4, len 8
  K.ins("BFE.U32 R3, R1, R2;"); // (0xdeadbeef >> 4) & 0xff = 0xee
  K.ins("POPC R4, R3;");
  K.ins("MOV R5, RZ;");
  K.ins("BFI R6, R3, R2, R5;"); // insert 0xee at pos 4 len 8
  K.ins("STG.E [RZ+0x10], R3;");
  K.ins("STG.E [RZ+0x14], R4;");
  K.ins("STG.E [RZ+0x18], R6;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x10), 0xeeu);
  EXPECT_EQ(global32(Mem, 0x14), 6u); // popcount(0xee)
  EXPECT_EQ(global32(Mem, 0x18), 0xee0u);
}

TEST(Vm, Lop3AppliesTruthTable) {
  vendor::KernelBuilder K("lut", Arch::SM52);
  K.ins("MOV32I R1, 0xf0f0f0f0;");
  K.ins("MOV32I R2, 0xcccccccc;");
  K.ins("MOV32I R3, 0xaaaaaaaa;");
  K.ins("LOP3 R4, R1, R2, R3, 0x96;"); // 0x96 = a^b^c
  K.ins("IADD3 R5, R1, R2, R3;");
  K.ins("STG.E [RZ+0x20], R4;");
  K.ins("STG.E [RZ+0x24], R5;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM52, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x20), 0xf0f0f0f0u ^ 0xccccccccu ^ 0xaaaaaaaau);
  EXPECT_EQ(global32(Mem, 0x24),
            0xf0f0f0f0u + 0xccccccccu + 0xaaaaaaaau);
}

TEST(Vm, PbkBrkBreaksOutOfLoops) {
  // Count iterations until the loaded bound is hit, leaving via BRK.
  for (Arch A : {Arch::SM35, Arch::SM61}) {
    vendor::KernelBuilder K("brk", A);
    K.ins("MOV R0, RZ;");
    K.branch("PBK", "out");
    K.label("loop");
    K.ins("IADD R0, R0, 0x1;");
    K.ins("ISETP.GE.AND P0, PT, R0, 0x5, PT;");
    K.ins("@P0 BRK;");
    K.branch("BRA", "loop");
    K.label("out");
    K.ins("STG.E [RZ+0x30], R0;");
    K.exit();
    ir::Kernel Kern = makeIr(A, K);
    Memory Mem;
    LaunchConfig Config;
    Config.NumThreads = 1;
    Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
    ASSERT_TRUE(R.hasValue()) << archName(A) << ": " << R.message();
    EXPECT_EQ(global32(Mem, 0x30), 5u) << archName(A);
  }
}

TEST(Vm, DfmaAndVote) {
  vendor::KernelBuilder K("dv", Arch::SM35);
  K.ins("MOV R2, RZ;");
  K.ins("MOV32I R3, 0x40000000;"); // R2:R3 = 2.0
  K.ins("DFMA R4, R2, R2, R2;");   // 2*2+2 = 6
  K.ins("STG.E.64 [RZ+0x40], R4;");
  K.ins("ISETP.EQ.AND P0, PT, RZ, RZ, PT;");
  K.ins("VOTE.ALL P1, P0;");
  K.ins("@P1 MOV R6, 0x7;");
  K.ins("STG.E [RZ+0x48], R6;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  double D;
  std::memcpy(&D, Mem.Global.data() + 0x40, 8);
  EXPECT_DOUBLE_EQ(D, 6.0);
  EXPECT_EQ(global32(Mem, 0x48), 0x7u);
}

TEST(Vm, ShiftAndConversionEdgeCases) {
  vendor::KernelBuilder K("edge", Arch::SM35);
  K.ins("MOV32I R1, 0x80000000;");
  K.ins("SHR R2, R1, 0x4;");       // arithmetic: sign-extends
  K.ins("SHR.U32 R3, R1, 0x4;");   // logical
  K.ins("MOV32I R4, 0xc0a00000;"); // -5.0f
  K.ins("F2I.S32.F32 R5, R4;");
  K.ins("I2F.S32.F32 R6, R5;");
  K.ins("MOV32I R7, 0xfffffffb;"); // -5
  K.ins("I2F.U32.F32 R8, R7;");    // unsigned: big positive
  K.ins("STG.E [RZ+0x10], R2;");
  K.ins("STG.E [RZ+0x14], R3;");
  K.ins("STG.E [RZ+0x18], R5;");
  K.ins("STG.E [RZ+0x1c], R6;");
  K.ins("STG.E [RZ+0x20], R8;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x10), 0xf8000000u);
  EXPECT_EQ(global32(Mem, 0x14), 0x08000000u);
  EXPECT_EQ(static_cast<int32_t>(global32(Mem, 0x18)), -5);
  EXPECT_FLOAT_EQ(globalF32(Mem, 0x1c), -5.0f);
  EXPECT_FLOAT_EQ(globalF32(Mem, 0x20), 4294967291.0f);
}

TEST(Vm, ImulHighHalfAndNegatedOperands) {
  vendor::KernelBuilder K("hi", Arch::SM50);
  K.ins("MOV32I R1, 0x10000;");  // 65536
  K.ins("IMUL.HI R2, R1, R1;");  // 2^32 -> high half = 1
  K.ins("IMUL R3, R1, R1;");     // low half = 0
  K.ins("MOV R4, 0x64;");
  K.ins("MOV R6, 0x6;");
  K.ins("IADD R5, -R4, R6;");    // 6 - 100 = -94
  K.ins("STG.E [RZ+0x10], R2;");
  K.ins("STG.E [RZ+0x14], R3;");
  K.ins("STG.E [RZ+0x18], R5;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM50, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x10), 1u);
  EXPECT_EQ(global32(Mem, 0x14), 0u);
  EXPECT_EQ(static_cast<int32_t>(global32(Mem, 0x18)), -94);
}

TEST(Vm, SubWordMemoryAccess) {
  vendor::KernelBuilder K("bytes", Arch::SM35);
  K.ins("MOV32I R1, 0x11223344;");
  K.ins("STG.E [RZ+0x40], R1;");
  K.ins("LDG.E.U8 R2, [RZ+0x41];");
  K.ins("LDG.E.U16 R3, [RZ+0x42];");
  K.ins("STG.E.U8 [RZ+0x50], R1;"); // stores only 0x44
  K.ins("LDG.E R4, [RZ+0x50];");
  K.ins("STG.E [RZ+0x10], R2;");
  K.ins("STG.E [RZ+0x14], R3;");
  K.ins("STG.E [RZ+0x18], R4;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 1;
  ASSERT_TRUE(run(Kern, Mem, Config).hasValue());
  EXPECT_EQ(global32(Mem, 0x10), 0x33u);
  EXPECT_EQ(global32(Mem, 0x14), 0x1122u);
  EXPECT_EQ(global32(Mem, 0x18), 0x44u);
}

TEST(Vm, ShflMovesValuesAcrossTheWarp) {
  // 8 threads in one warp: SHFL.UP by 1 shifts each thread's value from
  // its lower neighbor; lane 0 has no source, keeps its own value and
  // gets a false predicate.
  vendor::KernelBuilder K("shfl", Arch::SM35);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("IMUL R2, R0, 0x3;");
  K.ins("SHFL.UP P0, R3, R2, 0x1;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("STG.E [R4+0x40], R3;");
  K.ins("MOV R8, 0x1;");
  K.ins("SEL R5, R8, RZ, P0;");
  K.ins("STG.E [R4+0x80], R5;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  Memory Mem;
  LaunchConfig Config;
  Config.NumThreads = 8;
  Expected<std::vector<ThreadResult>> R = run(Kern, Mem, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(global32(Mem, 0x40), 0u); // Lane 0: own value (tid 0 * 3).
  EXPECT_EQ(global32(Mem, 0x80), 0u); // ...and an invalid-source flag.
  for (unsigned I = 1; I < 8; ++I) {
    EXPECT_EQ(global32(Mem, 0x40 + 4 * I), 3 * (I - 1)) << I;
    EXPECT_EQ(global32(Mem, 0x80 + 4 * I), 1u) << I;
  }
}

TEST(Vm, BarrierHandsDataBetweenWarps) {
  // Two warps of 4: every thread publishes its id to shared memory, BARs,
  // then reads its cross-warp partner's slot. Correct results require a
  // real barrier — if warp 0 simply ran to completion first, it would
  // read zeros from the slots warp 1 had not written yet.
  vendor::KernelBuilder K("bar", Arch::SM35);
  K.ins("S2R R0, SR_TID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("STS [R4], R0;");
  K.ins("BAR.SYNC 0x0;");
  K.ins("IADD R5, R0, 0x4;");
  K.ins("LOP.AND R5, R5, 0x7;"); // Partner = (tid + 4) % 8.
  K.ins("SHL R6, R5, 0x2;");
  K.ins("LDS R7, [R6];");
  K.ins("STG.E [R4+0x100], R7;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  LaunchConfig Config;
  Config.NumThreads = 8;
  Config.WarpSize = 4;
  for (int UseGrid = 0; UseGrid < 2; ++UseGrid) {
    Memory Mem;
    Expected<GridResult> R = UseGrid ? GridVm().run(Kern, Mem, Config)
                                     : RefVm().run(Kern, Mem, Config);
    ASSERT_TRUE(R.hasValue()) << R.message();
    for (unsigned I = 0; I < 8; ++I)
      EXPECT_EQ(global32(Mem, 0x100 + 4 * I), (I + 4) % 8)
          << (UseGrid ? "grid" : "ref") << " thread " << I;
    EXPECT_EQ(R->Barriers, 2u); // Two warps arrived at one BAR.SYNC.
  }
}

TEST(Vm, OobPolicySelectsWrapOrFault) {
  // Global memory is 64 KiB; a store at 0x10040 is 0x40 bytes past the
  // end. Under Wrap it aliases onto offset 0x40 and is counted; under
  // Fault the run fails, naming the access.
  vendor::KernelBuilder K("oob", Arch::SM35);
  K.ins("MOV32I R1, 0x10040;");
  K.ins("MOV32I R2, 0xabcd;");
  K.ins("STG.E [R1], R2;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  LaunchConfig Config;
  Config.NumThreads = 1;

  for (int UseGrid = 0; UseGrid < 2; ++UseGrid) {
    Memory Mem;
    Config.Oob = OobPolicy::Wrap;
    Expected<GridResult> R = UseGrid ? GridVm().run(Kern, Mem, Config)
                                     : RefVm().run(Kern, Mem, Config);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(global32(Mem, 0x40), 0xabcdu);
    EXPECT_EQ(R->MemWraps, 1u);

    Memory Mem2;
    Config.Oob = OobPolicy::Fault;
    Expected<GridResult> F = UseGrid ? GridVm().run(Kern, Mem2, Config)
                                     : RefVm().run(Kern, Mem2, Config);
    ASSERT_FALSE(F.hasValue());
    EXPECT_NE(F.message().find("out-of-bounds store"), std::string::npos)
        << F.message();
    EXPECT_EQ(global32(Mem2, 0x40), 0u); // The faulting store was dropped.
  }
}

TEST(Vm, MultiBlockGridMergesByBlockIndex) {
  // Each block stores (ctaid+1) into its own slot. Blocks run on private
  // memory images merged by ascending block index, so disjoint writes all
  // land and Threads is block-major.
  vendor::KernelBuilder K("grid", Arch::SM35);
  K.ins("S2R R0, SR_CTAID.X;");
  K.ins("SHL R4, R0, 0x2;");
  K.ins("IADD R2, R0, 0x1;");
  K.ins("STG.E [R4+0x40], R2;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  LaunchConfig Config;
  Config.NumThreads = 4;
  Config.NumBlocks = 3;
  Config.NumLanes = 0; // All cores; results are merge-order deterministic.
  Memory Mem;
  Expected<GridResult> R = GridVm().run(Kern, Mem, Config);
  ASSERT_TRUE(R.hasValue()) << R.message();
  ASSERT_EQ(R->Threads.size(), 12u);
  for (unsigned B = 0; B < 3; ++B) {
    EXPECT_EQ(global32(Mem, 0x40 + 4 * B), B + 1) << B;
    // Block-major thread order: every thread of block B saw CTAID.X == B.
    for (unsigned T = 0; T < 4; ++T)
      EXPECT_EQ(R->Threads[B * 4 + T].Regs[0], B) << B << "/" << T;
  }
}

TEST(Vm, MultiBlockConflictsGoToTheLastBlockByteByByte) {
  // Every block stores CTAID.X + 1 to 0x80 (a conflict the last block
  // wins) and the low byte of CTAID.X + 0x11 to 0x84 + CTAID.X (one byte
  // per block). All of it lands in one 64-byte chunk, next to bytes no
  // block writes, so the merge must work byte by byte inside the chunk
  // and never revert an earlier block's byte to the launch image.
  vendor::KernelBuilder K("conflict", Arch::SM35);
  K.ins("S2R R0, SR_CTAID.X;");
  K.ins("IADD R2, R0, 0x1;");
  K.ins("MOV32I R6, 0x80;");
  K.ins("STG.E [R6], R2;");
  K.ins("IADD R3, R0, 0x11;");
  K.ins("STG.E.U8 [R0+0x84], R3;");
  K.exit();
  ir::Kernel Kern = makeIr(Arch::SM35, K);
  LaunchConfig Config;
  Config.NumThreads = 2;
  Config.NumBlocks = 4;
  for (int UseGrid = 0; UseGrid < 2; ++UseGrid) {
    Memory Mem;
    Mem.Global[0x7f] = 0xaa; // Untouched neighbours keep their bytes.
    Mem.Global[0x88] = 0xbb;
    Expected<GridResult> R = UseGrid ? GridVm().run(Kern, Mem, Config)
                                     : RefVm().run(Kern, Mem, Config);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_EQ(global32(Mem, 0x80), 4u);
    EXPECT_EQ(global32(Mem, 0x84), 0x14131211u);
    EXPECT_EQ(Mem.Global[0x7f], 0xaa);
    EXPECT_EQ(Mem.Global[0x88], 0xbb);
  }
}

TEST(Vm, LocalMemoryHasItsFullSizeWhenFirstTouched) {
  // Local memory is allocated on a thread's first access, at the
  // launch's full LocalSizePerThread: the last word is in bounds, the
  // next one faults, and a thread that never touches it still runs.
  for (uint32_t Addr : {0xffcu, 0x1000u}) {
    vendor::KernelBuilder K("local", Arch::SM35);
    K.ins("S2R R0, SR_TID.X;");
    K.ins("ISETP.NE.AND P0, PT, R0, RZ, PT;");
    K.ins("MOV32I R4, " + std::to_string(Addr) + ";");
    K.ins("MOV32I R1, 0x1234;");
    K.ins("@P0 STL [R4], R1;");
    K.ins("@P0 LDL R5, [R4];");
    K.ins("STG.E [RZ+0x20], R5;");
    K.exit();
    ir::Kernel Kern = makeIr(Arch::SM35, K);
    LaunchConfig Config;
    Config.NumThreads = 2;
    Config.Oob = OobPolicy::Fault;
    for (int UseGrid = 0; UseGrid < 2; ++UseGrid) {
      Memory Mem;
      Expected<GridResult> R = UseGrid ? GridVm().run(Kern, Mem, Config)
                                       : RefVm().run(Kern, Mem, Config);
      if (Addr == 0xffc) {
        ASSERT_TRUE(R.hasValue()) << R.message();
        EXPECT_EQ(R->Threads[1].Regs[5], 0x1234u);
        EXPECT_EQ(R->Threads[0].Regs[5], 0u);
      } else {
        ASSERT_FALSE(R.hasValue());
        EXPECT_NE(R.message().find("(region size 4096)"), std::string::npos)
            << R.message();
      }
    }
  }
}
