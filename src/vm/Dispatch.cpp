//===- vm/Dispatch.cpp ----------------------------------------------------===//

#include "vm/Dispatch.h"

#include "support/Telemetry.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace dcb;
using namespace dcb::vm;
using sass::Instruction;

namespace {

CmpKind cmpKind(const std::string &Cmp) {
  if (Cmp == "LT")
    return CmpKind::LT;
  if (Cmp == "EQ")
    return CmpKind::EQ;
  if (Cmp == "LE")
    return CmpKind::LE;
  if (Cmp == "GT")
    return CmpKind::GT;
  if (Cmp == "NE")
    return CmpKind::NE;
  return CmpKind::GE;
}

LogicKind logicKind(const std::string &Op) {
  if (Op == "OR")
    return LogicKind::Or;
  if (Op == "XOR")
    return LogicKind::Xor;
  return LogicKind::And;
}

/// First width-selecting modifier wins, as the text path always read them.
uint8_t memBytes(const Instruction &Asm) {
  for (const std::string &Mod : Asm.Modifiers) {
    if (Mod == "64")
      return 8;
    if (Mod == "128")
      return 16;
    if (Mod == "U8" || Mod == "S8")
      return 1;
    if (Mod == "U16" || Mod == "S16")
      return 2;
  }
  return 4;
}

bool hasMod(const Instruction &Asm, const char *Name) {
  for (const std::string &Mod : Asm.Modifiers)
    if (Mod == Name)
      return true;
  return false;
}

} // namespace

Pre vm::predecode(const Instruction &Asm) {
  Pre P;
  const std::string &Op = Asm.Opcode;
  const auto &Mods = Asm.Modifiers;
  P.HasMods2 = Mods.size() >= 2;

  if (Op == "MOV" || Op == "MOV32I") {
    P.Kind = OpKind::Mov;
  } else if (Op == "S2R") {
    P.Kind = OpKind::S2R;
    // Predecode runs over never-executed instructions too; only classify
    // the source when it is actually there.
    static const std::string Empty;
    const std::string &Name =
        Asm.Operands.size() >= 2 ? Asm.Operands[1].Text : Empty;
    if (Name == "SR_TID.X")
      P.Sr = SrKind::TidX;
    else if (Name == "SR_CTAID.X")
      P.Sr = SrKind::CtaidX;
    else if (Name == "SR_NTID.X")
      P.Sr = SrKind::NtidX;
    else if (Name == "SR_LANEID")
      P.Sr = SrKind::LaneId;
    else if (Name == "SR_CLOCK_LO")
      P.Sr = SrKind::ClockLo;
  } else if (Op == "IADD" || Op == "IADD32I") {
    P.Kind = OpKind::IAdd;
  } else if (Op == "IMUL") {
    P.Kind = OpKind::IMul;
    P.Hi = hasMod(Asm, "HI");
  } else if (Op == "IMAD") {
    P.Kind = OpKind::IMad;
  } else if (Op == "XMAD") {
    P.Kind = OpKind::Xmad;
    P.H1A = hasMod(Asm, "H1A");
    P.H1B = hasMod(Asm, "H1B");
  } else if (Op == "IADD3") {
    P.Kind = OpKind::IAdd3;
  } else if (Op == "BFE") {
    P.Kind = OpKind::Bfe;
    P.U32 = hasMod(Asm, "U32");
  } else if (Op == "BFI") {
    P.Kind = OpKind::Bfi;
  } else if (Op == "POPC") {
    P.Kind = OpKind::Popc;
  } else if (Op == "LOP3") {
    P.Kind = OpKind::Lop3;
  } else if (Op == "IMNMX") {
    P.Kind = OpKind::Imnmx;
  } else if (Op == "FADD") {
    P.Kind = OpKind::FAdd;
  } else if (Op == "FMUL") {
    P.Kind = OpKind::FMul;
  } else if (Op == "FFMA") {
    P.Kind = OpKind::Ffma;
  } else if (Op == "FMNMX") {
    P.Kind = OpKind::Fmnmx;
  } else if (Op == "DFMA") {
    P.Kind = OpKind::Dfma;
  } else if (Op == "RRO") {
    P.Kind = OpKind::Rro;
  } else if (Op == "VOTE") {
    P.Kind = OpKind::Vote;
    const std::string &Mode = Mods.empty() ? std::string() : Mods[0];
    P.Vote = Mode == "ANY"  ? VoteKind::Any
             : Mode == "EQ" ? VoteKind::Eq
                            : VoteKind::All;
  } else if (Op == "DADD") {
    P.Kind = OpKind::DAdd;
  } else if (Op == "DMUL") {
    P.Kind = OpKind::DMul;
  } else if (Op == "MUFU") {
    P.Kind = OpKind::Mufu;
    const std::string &Fn = Mods.empty() ? std::string() : Mods[0];
    if (Fn == "COS")
      P.Mufu = MufuKind::Cos;
    else if (Fn == "SIN")
      P.Mufu = MufuKind::Sin;
    else if (Fn == "EX2")
      P.Mufu = MufuKind::Ex2;
    else if (Fn == "LG2")
      P.Mufu = MufuKind::Lg2;
    else if (Fn == "RCP")
      P.Mufu = MufuKind::Rcp;
    else if (Fn == "RSQ")
      P.Mufu = MufuKind::Rsq;
  } else if (Op == "F2F") {
    P.Kind = OpKind::F2F;
    if (P.HasMods2 && Mods[0] == "F32" && Mods[1] == "F64")
      P.F2F = F2FKind::F32F64;
    else if (P.HasMods2 && Mods[0] == "F64" && Mods[1] == "F32")
      P.F2F = F2FKind::F64F32;
  } else if (Op == "F2I") {
    P.Kind = OpKind::F2I;
  } else if (Op == "I2F") {
    P.Kind = OpKind::I2F;
    P.I2FUnsigned = !Mods.empty() && !Mods[0].empty() && Mods[0][0] == 'U';
  } else if (Op == "ISETP" || Op == "FSETP") {
    P.Kind = OpKind::Setp;
    P.FloatSetp = Op[0] == 'F';
    if (!Mods.empty())
      P.Cmp = cmpKind(Mods[0]);
    if (P.HasMods2)
      P.L1 = logicKind(Mods[1]);
  } else if (Op == "PSETP") {
    P.Kind = OpKind::Psetp;
    if (!Mods.empty())
      P.L1 = logicKind(Mods[0]);
    if (P.HasMods2)
      P.L2 = logicKind(Mods[1]);
  } else if (Op == "SEL") {
    P.Kind = OpKind::Sel;
  } else if (Op == "LOP") {
    P.Kind = OpKind::Lop;
    if (!Mods.empty())
      P.L1 = logicKind(Mods[0]);
  } else if (Op == "SHL") {
    P.Kind = OpKind::Shl;
  } else if (Op == "SHR") {
    P.Kind = OpKind::Shr;
    P.U32 = hasMod(Asm, "U32");
  } else if (Op == "LD" || Op == "LDG" || Op == "LDL" || Op == "LDS") {
    P.Kind = OpKind::Load;
    P.MemBytes = memBytes(Asm);
    P.Region = Op == "LDL"   ? RegionKind::Local
               : Op == "LDS" ? RegionKind::Shared
                             : RegionKind::Global;
  } else if (Op == "ST" || Op == "STG" || Op == "STL" || Op == "STS") {
    P.Kind = OpKind::Store;
    P.MemBytes = memBytes(Asm);
    P.Region = Op == "STL"   ? RegionKind::Local
               : Op == "STS" ? RegionKind::Shared
                             : RegionKind::Global;
  } else if (Op == "LDC") {
    P.Kind = OpKind::Ldc;
    P.MemBytes = memBytes(Asm);
  } else if (Op == "ATOM") {
    P.Kind = OpKind::Atom;
    const std::string &Kind = Mods.empty() ? std::string() : Mods[0];
    if (Kind == "ADD")
      P.Atom = AtomKind::Add;
    else if (Kind == "MIN")
      P.Atom = AtomKind::Min;
    else if (Kind == "MAX")
      P.Atom = AtomKind::Max;
    else if (Kind == "EXCH")
      P.Atom = AtomKind::Exch;
    else if (Kind == "AND")
      P.Atom = AtomKind::And;
    else if (Kind == "OR")
      P.Atom = AtomKind::Or;
    else if (Kind == "XOR")
      P.Atom = AtomKind::Xor;
  } else if (Op == "TEX") {
    P.Kind = OpKind::Tex;
  } else if (Op == "SHFL") {
    P.Kind = OpKind::Shfl;
    const std::string &Mode = Mods.empty() ? std::string() : Mods[0];
    if (Mode == "IDX")
      P.Shfl = ShflKind::Idx;
    else if (Mode == "UP")
      P.Shfl = ShflKind::Up;
    else if (Mode == "DOWN")
      P.Shfl = ShflKind::Down;
    else if (Mode == "BFLY")
      P.Shfl = ShflKind::Bfly;
  } else if (Op == "BRA") {
    P.Kind = OpKind::Bra;
  } else if (Op == "CAL") {
    P.Kind = OpKind::Cal;
  } else if (Op == "RET") {
    P.Kind = OpKind::Ret;
  } else if (Op == "SSY") {
    P.Kind = OpKind::Ssy;
  } else if (Op == "PBK") {
    P.Kind = OpKind::Pbk;
  } else if (Op == "BRK") {
    P.Kind = OpKind::Brk;
  } else if (Op == "SYNC") {
    P.Kind = OpKind::Sync;
  } else if (Op == "EXIT") {
    P.Kind = OpKind::Exit;
  } else if (Op == "BAR") {
    // Only BAR.SYNC blocks; BAR.ARV (arrive-only) and the RED forms stay
    // no-ops under this memory model.
    P.Kind = !Mods.empty() && Mods[0] == "SYNC" ? OpKind::Bar : OpKind::Nop;
  } else if (Op == "NOP" || Op == "MEMBAR" || Op == "DEPBAR" ||
             Op == "TEXDEPBAR") {
    P.Kind = OpKind::Nop;
    // The ".S" reconvergence modifier on NOP behaves like SYNC.
    P.RejoinS = Op == "NOP" && hasMod(Asm, "S");
  }
  return P;
}

std::string vm::oobDescription(const MemFault &Fault, bool IsStore) {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%llx",
                static_cast<unsigned long long>(Fault.Addr));
  return std::string("out-of-bounds ") + (IsStore ? "store" : "load") +
         " of " + std::to_string(Fault.Bytes) + " bytes at 0x" + Hex +
         " (region size " + std::to_string(Fault.RegionSize) + ")";
}

Expected<bool> vm::validateLaunch(const Memory &Mem, unsigned WarpSize) {
  assert(!Mem.Global.empty() && !Mem.Shared.empty() &&
         "memory regions must be non-empty");
  (void)Mem;
  if (WarpSize < 1 || WarpSize > 32)
    return Failure("vm: warp size must be between 1 and 32, got " +
                   std::to_string(WarpSize));
  return true;
}

void vm::mergeBlocks(Memory &Mem, std::vector<BlockState> &Blocks,
                     GridResult &Out) {
  VmStats Total;
  for (BlockState &B : Blocks) {
    for (unsigned Tid = 0; Tid < B.NumThreads; ++Tid) {
      ThreadResult R;
      const size_t RegBase = static_cast<size_t>(Tid) * 256;
      const size_t PredBase = static_cast<size_t>(Tid) * 7;
      R.Regs.assign(B.Regs.begin() + RegBase, B.Regs.begin() + RegBase + 256);
      R.Preds.resize(7);
      for (unsigned I = 0; I < 7; ++I)
        R.Preds[I] = B.Preds[PredBase + I] != 0;
      R.Steps = B.Steps[Tid];
      Out.Threads.push_back(std::move(R));
    }
    Total.Issues += B.Stats.Issues;
    Total.LaneSteps += B.Stats.LaneSteps;
    Total.MemWraps += B.Stats.MemWraps;
    Total.Barriers += B.Stats.Barriers;
    Total.SharedConflicts += B.Stats.SharedConflicts;
    ++Total.Blocks;
  }

  if (Blocks.size() == 1) {
    Mem.Global = std::move(Blocks[0].Global);
    Mem.Shared = std::move(Blocks[0].Shared);
  } else if (!Blocks.empty()) {
    // Merge by block index: every byte a block changed relative to the
    // launch-initial image lands in ascending order, so later blocks win
    // conflicts — the same discipline encodeProgram uses for kernels.
    // A chunk no block touched costs one memcmp per block; only chunks
    // that differ are merged byte by byte, against a saved copy of the
    // chunk's initial bytes once an earlier block has overwritten them.
    constexpr size_t Chunk = 64;
    uint8_t Init[Chunk];
    std::vector<uint8_t> &G = Mem.Global;
    for (size_t Off = 0; Off < G.size(); Off += Chunk) {
      const size_t Len = std::min(Chunk, G.size() - Off);
      const uint8_t *Base = G.data() + Off;
      for (const BlockState &B : Blocks) {
        const uint8_t *Src = B.Global.data() + Off;
        if (std::memcmp(Src, Base, Len) == 0)
          continue;
        if (Base != Init) {
          std::memcpy(Init, Base, Len);
          Base = Init;
        }
        for (size_t I = 0; I < Len; ++I)
          if (Src[I] != Init[I])
            G[Off + I] = Src[I];
      }
    }
    Mem.Shared = std::move(Blocks.back().Shared);
  }

  Out.Issues = Total.Issues;
  Out.LaneSteps = Total.LaneSteps;
  Out.MemWraps = Total.MemWraps;
  Out.Barriers = Total.Barriers;
  Out.SharedConflicts = Total.SharedConflicts;

  telemetry::counter("vm.issues").add(Total.Issues);
  telemetry::counter("vm.lane_steps").add(Total.LaneSteps);
  telemetry::counter("vm.mem_wraps").add(Total.MemWraps);
  telemetry::counter("vm.barriers").add(Total.Barriers);
  telemetry::counter("vm.blocks").add(Total.Blocks);
  telemetry::counter("vm.shared_conflicts").add(Total.SharedConflicts);
}
