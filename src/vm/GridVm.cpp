//===- vm/GridVm.cpp - Predecoded, block-parallel VM tier -----------------===//
//
// The fast tier. Each kernel is packed ONCE into PInst records — Pre
// classification, guard, branch target and up to five packed operands with
// constant banks resolved to pointers — and then executed through a
// function table indexed by OpKind. The hot path touches no strings, no
// std::map, and no sass::Operand; it shares the warp scheduler and every
// scalar expression with RefVm (Dispatch.h), which is what makes the two
// tiers bit-identical. Blocks run concurrently on lanes of the process-wide
// TaskPool into private BlockStates and merge deterministically by block
// index.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/TaskPool.h"
#include "support/Telemetry.h"
#include "vm/Dispatch.h"

#include <array>
#include <cmath>

using namespace dcb;
using namespace dcb::vm;
using ir::Inst;
using ir::Kernel;
using sass::Operand;
using sass::OperandKind;

namespace {

// --- Packed operands ------------------------------------------------------

/// Packed operand category. Collapses the sass::OperandKind cases onto what
/// the evaluators distinguish; SpecialReg/TexShape/TexChannel/etc. fold to
/// Other with their value32 image precomputed.
enum class PK : uint8_t { Reg, PredOp, Imm, FImm, Const, Mem, Other };

struct POp {
  PK Kind = PK::Other;
  bool Neg = false, Abs = false, Comp = false, Not = false;
  bool HasReg = false; ///< Const with a register index.
  int64_t Reg = -1;    ///< Register/predicate id; Const index register.
  int64_t Imm = 0;     ///< Mem offset, Const offset, Tex shape/channel.
  double F = 0;        ///< FloatImm payload.
  uint32_t Imm32 = 0;  ///< Precomputed value32 for Imm/FImm/Mem/Other.
  uint32_t Raw32 = 0;  ///< Same, without unary flags (valueF32's base).
  const std::vector<uint8_t> *Bank = nullptr; ///< Resolved const bank.
};

/// One packed instruction: everything a step needs, contiguous.
struct PInst {
  Pre P;
  GuardRef G;
  int64_t Target = -1;
  const Inst *Src = nullptr;
  uint8_t NumOps = 0;
  POp Ops[5];
};

struct GridKernel {
  std::vector<PInst> Insts;
};

POp packOp(const Operand &Op, const Memory &Mem) {
  POp O;
  O.Neg = Op.Negated;
  O.Abs = Op.Absolute;
  O.Comp = Op.Complemented;
  O.Not = Op.LogicalNot;
  switch (Op.Kind) {
  case OperandKind::Register:
    O.Kind = PK::Reg;
    O.Reg = Op.Value[0];
    break;
  case OperandKind::Predicate:
    O.Kind = PK::PredOp;
    O.Reg = Op.Value[0];
    break;
  case OperandKind::IntImm:
    O.Kind = PK::Imm;
    O.Imm = Op.Value[0];
    O.Raw32 = static_cast<uint32_t>(Op.Value[0]);
    break;
  case OperandKind::FloatImm:
    O.Kind = PK::FImm;
    O.F = Op.FValue;
    O.Raw32 = scalar::fromFloat(static_cast<float>(Op.FValue));
    break;
  case OperandKind::ConstMem: {
    O.Kind = PK::Const;
    auto It = Mem.ConstBanks.find(static_cast<unsigned>(Op.Value[0]));
    O.Bank = It == Mem.ConstBanks.end() ? nullptr : &It->second;
    O.Imm = Op.Value[1];
    O.HasReg = Op.HasRegister;
    O.Reg = Op.Value[2];
    break;
  }
  case OperandKind::Memory:
    O.Kind = PK::Mem;
    O.Reg = Op.Value[0];
    O.Imm = Op.Value[1];
    break;
  default:
    // SpecialReg, TexShape, TexChannel, Barrier, BitSet: value32 sees 0.
    O.Kind = PK::Other;
    O.Imm = Op.Value[0];
    break;
  }
  // value32's unary-flag rules, folded at pack time: Complemented applies
  // to any kind, Negated only to registers (evaluated live).
  O.Imm32 = O.Comp ? ~O.Raw32 : O.Raw32;
  return O;
}

GridKernel packKernel(const ir::FlatKernel &Flat, const Memory &Mem) {
  DCB_SPAN("vm.predecode");
  GridKernel GK;
  GK.Insts.reserve(Flat.size());
  for (size_t Pc = 0; Pc < Flat.size(); ++Pc) {
    const Inst *I = Flat.Insts[Pc];
    PInst PI;
    PI.P = predecode(I->Asm);
    PI.G = {I->Asm.GuardPredicate, I->Asm.GuardNegated};
    PI.Target = Flat.targetPc(Pc);
    PI.Src = I;
    const auto &Ops = I->Asm.Operands;
    PI.NumOps = static_cast<uint8_t>(Ops.size() < 5 ? Ops.size() : 5);
    for (unsigned K = 0; K < PI.NumOps; ++K)
      PI.Ops[K] = packOp(Ops[K], Mem);
    GK.Insts.push_back(std::move(PI));
  }
  return GK;
}

// --- Packed evaluation ----------------------------------------------------
//
// Structural mirrors of the oracle's value32/valueF32/valueF64/predValue,
// operating on POp instead of sass::Operand — including the historical
// quirks (ConstMem skips unary flags; valueF64 re-applies Abs/Neg on top of
// valueF32 for non-register sources). See docs/VM.md.

struct Ctx {
  BlockState &B;
  const PInst &I;
  uint32_t Mask;
  uint32_t Base;
  unsigned Lanes;
  MemFault Fault;
  bool FaultStore = false;
  const char *Why = nullptr;
};

inline uint32_t loadConst32(Ctx &C, const POp &Op, unsigned Tid,
                            unsigned Bytes, uint64_t &Out) {
  if (!Op.Bank || Op.Bank->empty()) {
    Out = 0;
    return 0;
  }
  uint64_t Addr =
      static_cast<uint64_t>(Op.Imm) +
      (Op.HasReg ? C.B.reg(Tid, Op.Reg) : 0);
  // Constant banks always wrap regardless of policy (matching RefVm), so
  // operand evaluation can never fault mid-expression.
  Out = loadMem(*Op.Bank, Addr, Bytes, OobPolicy::Wrap, C.B.Stats.MemWraps,
                C.Fault);
  return static_cast<uint32_t>(Out);
}

inline uint32_t value32(Ctx &C, unsigned Tid, const POp &Op) {
  switch (Op.Kind) {
  case PK::Reg: {
    uint32_t V = C.B.reg(Tid, Op.Reg);
    if (Op.Comp)
      V = ~V;
    if (Op.Neg)
      V = static_cast<uint32_t>(-static_cast<int32_t>(V));
    return V;
  }
  case PK::Const: {
    uint64_t Out;
    return loadConst32(C, Op, Tid, 4, Out);
  }
  default:
    return Op.Imm32; // Precomputed, flags folded.
  }
}

/// value32 without unary flags — valueF32's raw base.
inline uint32_t raw32(Ctx &C, unsigned Tid, const POp &Op) {
  switch (Op.Kind) {
  case PK::Reg:
    return C.B.reg(Tid, Op.Reg);
  case PK::Const: {
    uint64_t Out;
    return loadConst32(C, Op, Tid, 4, Out);
  }
  default:
    return Op.Raw32;
  }
}

inline float valueF32(Ctx &C, unsigned Tid, const POp &Op) {
  float F;
  if (Op.Kind == PK::FImm)
    F = static_cast<float>(Op.F);
  else
    F = scalar::asFloat(raw32(C, Tid, Op));
  if (Op.Abs)
    F = std::fabs(F);
  if (Op.Neg && Op.Kind != PK::FImm)
    F = -F;
  return F;
}

inline double valueF64(Ctx &C, unsigned Tid, const POp &Op) {
  double D;
  if (Op.Kind == PK::FImm)
    D = Op.F;
  else if (Op.Kind == PK::Reg)
    D = scalar::asDouble(C.B.reg64(Tid, Op.Reg));
  else
    D = static_cast<double>(valueF32(C, Tid, Op));
  if (Op.Abs)
    D = std::fabs(D);
  if (Op.Neg && Op.Kind != PK::FImm)
    D = -D;
  return D;
}

inline bool predValue(Ctx &C, unsigned Tid, const POp &Op) {
  bool V = C.B.pred(Tid, Op.Reg);
  return Op.Not ? !V : V;
}

inline uint64_t memAddress(Ctx &C, unsigned Tid, const POp &Op) {
  return C.B.reg(Tid, Op.Reg) + static_cast<uint64_t>(Op.Imm);
}

// --- Handlers -------------------------------------------------------------
//
// One function per data OpKind, dispatched through a table — no switch and
// no string in sight. Each handler loops over the issue mask itself (the
// warp-wide ops need the whole mask anyway). Returning false reports either
// the latched memory fault or Ctx.Why.

using Handler = bool (*)(Ctx &);

/// Applies \p Fn(Tid) to every lane in the issue mask.
template <class Fn> inline bool forLanes(Ctx &C, Fn &&Body) {
  for (uint32_t Bits = C.Mask; Bits; Bits &= Bits - 1) {
    unsigned Tid = C.Base + static_cast<unsigned>(__builtin_ctz(Bits));
    if (!Body(Tid))
      return false;
  }
  return true;
}

inline bool checkMem(Ctx &C, bool IsStore) {
  if (!C.Fault.Faulted)
    return true;
  C.FaultStore = IsStore;
  return false;
}

bool hMov(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg, value32(C, Tid, C.I.Ops[1]));
    return true;
  });
}

bool hS2R(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint32_t V = 0;
    switch (C.I.P.Sr) {
    case SrKind::TidX:
      V = Tid;
      break;
    case SrKind::CtaidX:
      V = C.B.Ctaid;
      break;
    case SrKind::NtidX:
      V = C.B.NumThreads;
      break;
    case SrKind::LaneId:
      V = Tid % C.B.WarpSize;
      break;
    case SrKind::ClockLo:
      V = static_cast<uint32_t>(C.B.Steps[Tid]);
      break;
    case SrKind::Zero:
      break;
    }
    C.B.setReg(Tid, C.I.Ops[0].Reg, V);
    return true;
  });
}

bool hIAdd(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               value32(C, Tid, C.I.Ops[1]) + value32(C, Tid, C.I.Ops[2]));
    return true;
  });
}

bool hIMul(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint64_t Product = static_cast<uint64_t>(value32(C, Tid, C.I.Ops[1])) *
                       value32(C, Tid, C.I.Ops[2]);
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               C.I.P.Hi ? static_cast<uint32_t>(Product >> 32)
                        : static_cast<uint32_t>(Product));
    return true;
  });
}

bool hIMad(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               value32(C, Tid, C.I.Ops[1]) * value32(C, Tid, C.I.Ops[2]) +
                   value32(C, Tid, C.I.Ops[3]));
    return true;
  });
}

bool hXmad(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::xmad(value32(C, Tid, C.I.Ops[1]),
                            value32(C, Tid, C.I.Ops[2]),
                            value32(C, Tid, C.I.Ops[3]), C.I.P.H1A,
                            C.I.P.H1B));
    return true;
  });
}

bool hIAdd3(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               value32(C, Tid, C.I.Ops[1]) + value32(C, Tid, C.I.Ops[2]) +
                   value32(C, Tid, C.I.Ops[3]));
    return true;
  });
}

bool hBfe(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::bfe(value32(C, Tid, C.I.Ops[1]),
                           value32(C, Tid, C.I.Ops[2]), C.I.P.U32));
    return true;
  });
}

bool hBfi(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::bfi(value32(C, Tid, C.I.Ops[1]),
                           value32(C, Tid, C.I.Ops[2]),
                           value32(C, Tid, C.I.Ops[3])));
    return true;
  });
}

bool hPopc(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               static_cast<uint32_t>(
                   __builtin_popcount(value32(C, Tid, C.I.Ops[1]))));
    return true;
  });
}

bool hLop3(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::lop3(value32(C, Tid, C.I.Ops[1]),
                            value32(C, Tid, C.I.Ops[2]),
                            value32(C, Tid, C.I.Ops[3]),
                            value32(C, Tid, C.I.Ops[4])));
    return true;
  });
}

bool hImnmx(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    int32_t A = static_cast<int32_t>(value32(C, Tid, C.I.Ops[1]));
    int32_t B = static_cast<int32_t>(value32(C, Tid, C.I.Ops[2]));
    bool TakeMin = predValue(C, Tid, C.I.Ops[3]);
    int32_t Min = A < B ? A : B, Max = A > B ? A : B;
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               static_cast<uint32_t>(TakeMin ? Min : Max));
    return true;
  });
}

bool hFAdd(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::fadd(valueF32(C, Tid, C.I.Ops[1]),
                            valueF32(C, Tid, C.I.Ops[2])));
    return true;
  });
}

bool hFMul(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::fmul(valueF32(C, Tid, C.I.Ops[1]),
                            valueF32(C, Tid, C.I.Ops[2])));
    return true;
  });
}

bool hFfma(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::ffma(valueF32(C, Tid, C.I.Ops[1]),
                            valueF32(C, Tid, C.I.Ops[2]),
                            valueF32(C, Tid, C.I.Ops[3])));
    return true;
  });
}

bool hFmnmx(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::fmnmx(valueF32(C, Tid, C.I.Ops[1]),
                             valueF32(C, Tid, C.I.Ops[2]),
                             predValue(C, Tid, C.I.Ops[3])));
    return true;
  });
}

bool hDfma(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg64(Tid, C.I.Ops[0].Reg,
                 scalar::dfma(valueF64(C, Tid, C.I.Ops[1]),
                              valueF64(C, Tid, C.I.Ops[2]),
                              valueF64(C, Tid, C.I.Ops[3])));
    return true;
  });
}

bool hRro(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::fromFloat(valueF32(C, Tid, C.I.Ops[1])));
    return true;
  });
}

bool hDAdd(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg64(Tid, C.I.Ops[0].Reg,
                 scalar::dadd(valueF64(C, Tid, C.I.Ops[1]),
                              valueF64(C, Tid, C.I.Ops[2])));
    return true;
  });
}

bool hDMul(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg64(Tid, C.I.Ops[0].Reg,
                 scalar::dmul(valueF64(C, Tid, C.I.Ops[1]),
                              valueF64(C, Tid, C.I.Ops[2])));
    return true;
  });
}

bool hMufu(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::mufu(C.I.P.Mufu, valueF32(C, Tid, C.I.Ops[1])));
    return true;
  });
}

bool hF2F(Ctx &C) {
  if (C.I.P.F2F == F2FKind::Other) {
    C.Why = "unhandled F2F format pair";
    return false;
  }
  return forLanes(C, [&](unsigned Tid) {
    if (C.I.P.F2F == F2FKind::F32F64)
      C.B.setReg(Tid, C.I.Ops[0].Reg,
                 scalar::fromFloat(
                     static_cast<float>(valueF64(C, Tid, C.I.Ops[1]))));
    else
      C.B.setReg64(Tid, C.I.Ops[0].Reg,
                   scalar::fromDouble(
                       static_cast<double>(valueF32(C, Tid, C.I.Ops[1]))));
    return true;
  });
}

bool hF2I(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               static_cast<uint32_t>(
                   static_cast<int32_t>(valueF32(C, Tid, C.I.Ops[1]))));
    return true;
  });
}

bool hI2F(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint32_t Raw = value32(C, Tid, C.I.Ops[1]);
    float F = C.I.P.I2FUnsigned
                  ? static_cast<float>(Raw)
                  : static_cast<float>(static_cast<int32_t>(Raw));
    C.B.setReg(Tid, C.I.Ops[0].Reg, scalar::fromFloat(F));
    return true;
  });
}

bool hSetp(Ctx &C) {
  if (!C.I.P.HasMods2) {
    C.Why = "missing comparison or logic modifier";
    return false;
  }
  return forLanes(C, [&](unsigned Tid) {
    bool Test;
    if (C.I.P.FloatSetp)
      Test = scalar::compareF(C.I.P.Cmp, valueF32(C, Tid, C.I.Ops[2]),
                              valueF32(C, Tid, C.I.Ops[3]));
    else
      Test = scalar::compareI(
          C.I.P.Cmp, static_cast<int32_t>(value32(C, Tid, C.I.Ops[2])),
          static_cast<int32_t>(value32(C, Tid, C.I.Ops[3])));
    bool Combined =
        scalar::logic(C.I.P.L1, Test, predValue(C, Tid, C.I.Ops[4]));
    C.B.setPred(Tid, C.I.Ops[0].Reg, Combined);
    C.B.setPred(Tid, C.I.Ops[1].Reg, !Combined);
    return true;
  });
}

bool hPsetp(Ctx &C) {
  if (!C.I.P.HasMods2) {
    C.Why = "missing logic modifier";
    return false;
  }
  return forLanes(C, [&](unsigned Tid) {
    bool V = scalar::logic(
        C.I.P.L2,
        scalar::logic(C.I.P.L1, predValue(C, Tid, C.I.Ops[2]),
                      predValue(C, Tid, C.I.Ops[3])),
        predValue(C, Tid, C.I.Ops[4]));
    C.B.setPred(Tid, C.I.Ops[0].Reg, V);
    C.B.setPred(Tid, C.I.Ops[1].Reg, !V);
    return true;
  });
}

bool hSel(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               predValue(C, Tid, C.I.Ops[3]) ? value32(C, Tid, C.I.Ops[1])
                                             : value32(C, Tid, C.I.Ops[2]));
    return true;
  });
}

bool hLop(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint32_t A = value32(C, Tid, C.I.Ops[1]);
    uint32_t B = value32(C, Tid, C.I.Ops[2]);
    uint32_t V = C.I.P.L1 == LogicKind::Or    ? (A | B)
                 : C.I.P.L1 == LogicKind::Xor ? (A ^ B)
                                              : (A & B);
    C.B.setReg(Tid, C.I.Ops[0].Reg, V);
    return true;
  });
}

bool hShl(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               value32(C, Tid, C.I.Ops[1])
                   << (value32(C, Tid, C.I.Ops[2]) & 31));
    return true;
  });
}

bool hShr(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint32_t Amount = value32(C, Tid, C.I.Ops[2]) & 31;
    if (C.I.P.U32)
      C.B.setReg(Tid, C.I.Ops[0].Reg, value32(C, Tid, C.I.Ops[1]) >> Amount);
    else
      C.B.setReg(Tid, C.I.Ops[0].Reg,
                 static_cast<uint32_t>(
                     static_cast<int32_t>(value32(C, Tid, C.I.Ops[1])) >>
                     Amount));
    return true;
  });
}

bool hLoad(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    std::vector<uint8_t> &Region = C.B.regionFor(C.I.P.Region, Tid);
    uint64_t Addr = memAddress(C, Tid, C.I.Ops[1]);
    unsigned Bytes = C.I.P.MemBytes;
    if (C.I.P.Region == RegionKind::Shared)
      C.B.noteSharedAccess(Tid, Addr, Bytes, /*IsStore=*/false);
    if (Bytes <= 4)
      C.B.setReg(Tid, C.I.Ops[0].Reg,
                 static_cast<uint32_t>(loadMem(Region, Addr, Bytes, C.B.Oob,
                                               C.B.Stats.MemWraps,
                                               C.Fault)));
    else if (Bytes == 8)
      C.B.setReg64(Tid, C.I.Ops[0].Reg,
                   loadMem(Region, Addr, 8, C.B.Oob, C.B.Stats.MemWraps,
                           C.Fault));
    else
      for (unsigned K = 0; K < 4; ++K)
        C.B.setReg(Tid, C.I.Ops[0].Reg + K,
                   static_cast<uint32_t>(loadMem(Region, Addr + 4 * K, 4,
                                                 C.B.Oob,
                                                 C.B.Stats.MemWraps,
                                                 C.Fault)));
    return checkMem(C, false);
  });
}

bool hStore(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    std::vector<uint8_t> &Region = C.B.regionFor(C.I.P.Region, Tid);
    uint64_t Addr = memAddress(C, Tid, C.I.Ops[0]);
    unsigned Bytes = C.I.P.MemBytes;
    if (C.I.P.Region == RegionKind::Shared)
      C.B.noteSharedAccess(Tid, Addr, Bytes, /*IsStore=*/true);
    if (Bytes <= 4)
      storeMem(Region, Addr, Bytes, C.B.reg(Tid, C.I.Ops[1].Reg), C.B.Oob,
               C.B.Stats.MemWraps, C.Fault);
    else if (Bytes == 8)
      storeMem(Region, Addr, 8, C.B.reg64(Tid, C.I.Ops[1].Reg), C.B.Oob,
               C.B.Stats.MemWraps, C.Fault);
    else
      for (unsigned K = 0; K < 4; ++K)
        storeMem(Region, Addr + 4 * K, 4, C.B.reg(Tid, C.I.Ops[1].Reg + K),
                 C.B.Oob, C.B.Stats.MemWraps, C.Fault);
    return checkMem(C, true);
  });
}

bool hLdc(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint64_t V;
    loadConst32(C, C.I.Ops[1], Tid, C.I.P.MemBytes, V);
    if (C.I.P.MemBytes == 8)
      C.B.setReg64(Tid, C.I.Ops[0].Reg, V);
    else
      C.B.setReg(Tid, C.I.Ops[0].Reg, static_cast<uint32_t>(V));
    return true;
  });
}

bool hAtom(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    uint64_t Addr = memAddress(C, Tid, C.I.Ops[1]);
    uint32_t Old = static_cast<uint32_t>(loadMem(
        C.B.Global, Addr, 4, C.B.Oob, C.B.Stats.MemWraps, C.Fault));
    if (!checkMem(C, false))
      return false;
    uint32_t Src = C.B.reg(Tid, C.I.Ops[2].Reg);
    storeMem(C.B.Global, Addr, 4, scalar::atomApply(C.I.P.Atom, Old, Src),
             C.B.Oob, C.B.Stats.MemWraps, C.Fault);
    C.B.setReg(Tid, C.I.Ops[0].Reg, Old);
    return checkMem(C, true);
  });
}

bool hTex(Ctx &C) {
  return forLanes(C, [&](unsigned Tid) {
    C.B.setReg(Tid, C.I.Ops[0].Reg,
               scalar::texHash(value32(C, Tid, C.I.Ops[1]), C.I.Ops[2].Imm,
                               C.I.Ops[3].Imm));
    return true;
  });
}

bool hVote(Ctx &C) {
  bool All = true, Any = false, Eq = true, First = true, FirstVal = false;
  forLanes(C, [&](unsigned Tid) {
    bool S = predValue(C, Tid, C.I.Ops[1]);
    All = All && S;
    Any = Any || S;
    if (First) {
      FirstVal = S;
      First = false;
    } else {
      Eq = Eq && S == FirstVal;
    }
    return true;
  });
  bool Out = C.I.P.Vote == VoteKind::Any  ? Any
             : C.I.P.Vote == VoteKind::Eq ? Eq
                                          : All;
  return forLanes(C, [&](unsigned Tid) {
    C.B.setPred(Tid, C.I.Ops[0].Reg, Out);
    return true;
  });
}

bool hShfl(Ctx &C) {
  if (C.I.P.Shfl == ShflKind::None) {
    C.Why = "unhandled SHFL mode";
    return false;
  }
  uint32_t Src[32] = {0};
  int64_t Sel[32] = {0};
  for (uint32_t Bits = C.Mask; Bits; Bits &= Bits - 1) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
    Src[L] = C.B.reg(C.Base + L, C.I.Ops[2].Reg);
    Sel[L] = value32(C, C.Base + L, C.I.Ops[3]);
  }
  for (uint32_t Bits = C.Mask; Bits; Bits &= Bits - 1) {
    unsigned L = static_cast<unsigned>(__builtin_ctz(Bits));
    int64_t S = 0;
    switch (C.I.P.Shfl) {
    case ShflKind::Idx:
      S = Sel[L];
      break;
    case ShflKind::Up:
      S = static_cast<int64_t>(L) - Sel[L];
      break;
    case ShflKind::Down:
      S = static_cast<int64_t>(L) + Sel[L];
      break;
    case ShflKind::Bfly:
      S = static_cast<int64_t>(L) ^ (Sel[L] & 31);
      break;
    case ShflKind::None:
      break;
    }
    bool Valid = S >= 0 && S < static_cast<int64_t>(C.Lanes) &&
                 ((C.Mask >> S) & 1) != 0;
    C.B.setReg(C.Base + L, C.I.Ops[1].Reg, Valid ? Src[S] : Src[L]);
    C.B.setPred(C.Base + L, C.I.Ops[0].Reg, Valid);
  }
  return true;
}

constexpr size_t NUM_OP_KINDS = static_cast<size_t>(OpKind::Unknown) + 1;

std::array<Handler, NUM_OP_KINDS> buildTable() {
  std::array<Handler, NUM_OP_KINDS> T{};
  auto Set = [&T](OpKind K, Handler H) { T[static_cast<size_t>(K)] = H; };
  Set(OpKind::Mov, hMov);
  Set(OpKind::S2R, hS2R);
  Set(OpKind::IAdd, hIAdd);
  Set(OpKind::IMul, hIMul);
  Set(OpKind::IMad, hIMad);
  Set(OpKind::Xmad, hXmad);
  Set(OpKind::IAdd3, hIAdd3);
  Set(OpKind::Bfe, hBfe);
  Set(OpKind::Bfi, hBfi);
  Set(OpKind::Popc, hPopc);
  Set(OpKind::Lop3, hLop3);
  Set(OpKind::Imnmx, hImnmx);
  Set(OpKind::FAdd, hFAdd);
  Set(OpKind::FMul, hFMul);
  Set(OpKind::Ffma, hFfma);
  Set(OpKind::Fmnmx, hFmnmx);
  Set(OpKind::Dfma, hDfma);
  Set(OpKind::Rro, hRro);
  Set(OpKind::Vote, hVote);
  Set(OpKind::DAdd, hDAdd);
  Set(OpKind::DMul, hDMul);
  Set(OpKind::Mufu, hMufu);
  Set(OpKind::F2F, hF2F);
  Set(OpKind::F2I, hF2I);
  Set(OpKind::I2F, hI2F);
  Set(OpKind::Setp, hSetp);
  Set(OpKind::Psetp, hPsetp);
  Set(OpKind::Sel, hSel);
  Set(OpKind::Lop, hLop);
  Set(OpKind::Shl, hShl);
  Set(OpKind::Shr, hShr);
  Set(OpKind::Load, hLoad);
  Set(OpKind::Store, hStore);
  Set(OpKind::Ldc, hLdc);
  Set(OpKind::Atom, hAtom);
  Set(OpKind::Tex, hTex);
  Set(OpKind::Shfl, hShfl);
  return T;
}

const std::array<Handler, NUM_OP_KINDS> &handlerTable() {
  static const std::array<Handler, NUM_OP_KINDS> Table = buildTable();
  return Table;
}

// --- The machine plugged into the shared scheduler ------------------------

class GridMachine {
public:
  explicit GridMachine(const GridKernel &GK)
      : GK(GK), Table(handlerTable()) {}

  size_t size() const { return GK.Insts.size(); }
  const Pre &pre(size_t Pc) const { return GK.Insts[Pc].P; }
  const Inst &inst(size_t Pc) const { return *GK.Insts[Pc].Src; }
  GuardRef guard(size_t Pc) const { return GK.Insts[Pc].G; }
  int64_t target(size_t Pc) const { return GK.Insts[Pc].Target; }

  Expected<bool> execData(BlockState &B, size_t Pc, const Pre &P,
                          uint32_t Mask, uint32_t Base, unsigned Lanes) {
    const PInst &I = GK.Insts[Pc];
    Handler H = Table[static_cast<size_t>(P.Kind)];
    if (!H)
      return vmUnsupported(I.Src->Asm,
                           "unimplemented opcode " + I.Src->Asm.Opcode);
    Ctx C{B, I, Mask, Base, Lanes, MemFault(), false, nullptr};
    if (H(C))
      return true;
    if (C.Fault.Faulted)
      return vmUnsupported(I.Src->Asm,
                           oobDescription(C.Fault, C.FaultStore));
    return vmUnsupported(I.Src->Asm, C.Why ? C.Why : "unsupported input");
  }

private:
  const GridKernel &GK;
  const std::array<Handler, NUM_OP_KINDS> &Table;
};

} // namespace

Expected<GridResult> GridVm::run(const Kernel &K, Memory &Mem,
                                 const LaunchConfig &Config) {
  Expected<bool> Valid = validateLaunch(Mem, Config.WarpSize);
  if (!Valid)
    return Valid.takeError();

  const ir::FlatKernel Flat = ir::flattenKernel(K);
  const GridKernel GK = packKernel(Flat, Mem);

  const unsigned NumBlocks = Config.NumBlocks ? Config.NumBlocks : 1;
  std::vector<BlockState> Blocks(NumBlocks);
  std::vector<std::string> Errors(NumBlocks);

  {
    DCB_SPAN("vm.grid_run");
    auto RunBlock = [&](unsigned, size_t Idx) {
      BlockState &B = Blocks[Idx];
      B.init(Mem, Config.NumThreads, Config.WarpSize,
             Config.BlockId + static_cast<uint32_t>(Idx),
             Config.MaxStepsPerThread, Config.LocalSizePerThread,
             Config.Oob, Config.WatchShared);
      GridMachine Machine(GK);
      Expected<bool> R = runBlockWarps(Machine, B);
      if (!R)
        Errors[Idx] = R.message();
      else
        ++B.Stats.Blocks;
    };
    // A one-lane launch runs inline and never creates the process pool.
    if (NumBlocks == 1 || TaskPool::resolveThreads(Config.NumLanes) == 1)
      for (size_t Idx = 0; Idx < NumBlocks; ++Idx)
        RunBlock(0, Idx);
    else
      TaskPool::process().parallelFor(NumBlocks, RunBlock, Config.NumLanes);
  }

  // Deterministic error selection: the lowest failing block wins, whatever
  // order the lanes finished in.
  for (const std::string &E : Errors)
    if (!E.empty())
      return Failure(E);

  GridResult Out;
  mergeBlocks(Mem, Blocks, Out);
  return Out;
}
