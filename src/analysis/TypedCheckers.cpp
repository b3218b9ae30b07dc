//===- analysis/TypedCheckers.cpp -----------------------------------------===//
//
// The bounds/race half of this file is an abstract interpreter over the
// VM's own semantics: per launch context (tid, ctaid) each register holds
// either an exactly-known 32-bit value or "unknown", and every transfer
// that claims knowledge routes through the same vm::predecode /
// vm::scalar code both VM tiers execute. That is the no-false-negative
// argument: whenever the VM observes an out-of-bounds access or an
// unordered shared access, the static value was either computed here
// identically (an exact MEM/RAC error) or degraded to unknown (the
// conservative MEM002/RAC003 warning). The validation test in
// tests/analysis_validation_test.cpp enforces the property corpus-wide.
//
//===----------------------------------------------------------------------===//

#include "analysis/TypedCheckers.h"

#include "analysis/Cfg.h"
#include "analysis/TypeInference.h"
#include "support/Telemetry.h"
#include "vm/Dispatch.h"

#include <algorithm>
#include <cstdio>
#include <deque>

using namespace dcb;
using namespace dcb::analysis;
using sass::Instruction;
using sass::Operand;
using sass::OperandKind;

namespace {

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

void countRules(const Report &R) {
  for (const Finding &F : R.Findings)
    telemetry::counter("analysis.rule." + F.Rule).add(1);
}

// --- Per-context abstract values -----------------------------------------

/// One slot's value in a fixed launch context: exactly known or not.
/// Known values mirror the VM bit-for-bit; anything else is Unknown.
struct AbsVal {
  enum : uint8_t { Known, Unknown };
  uint8_t S = Known;
  uint32_t V = 0;

  static AbsVal known(uint32_t V) { return {Known, V}; }
  static AbsVal unknown() { return {Unknown, 0}; }
  bool known32(uint32_t &Out) const {
    Out = V;
    return S == Known;
  }
  bool operator==(const AbsVal &O) const {
    return S == O.S && (S == Unknown || V == O.V);
  }
  bool operator!=(const AbsVal &O) const { return !(*this == O); }
};

AbsVal joinVal(AbsVal A, AbsVal B) {
  if (A.S == AbsVal::Known && B.S == AbsVal::Known && A.V == B.V)
    return A;
  return AbsVal::unknown();
}

/// The register/predicate environment of one thread in one context.
/// Slots 0..255 are general registers, 256..262 predicates (0/1).
struct Env {
  bool Reached = false;
  std::vector<AbsVal> Slots;

  static Env bottom() { return Env{false, {}}; }
  static Env entry() {
    // The VM zero-initializes registers and predicates (BlockState::init).
    return Env{true, std::vector<AbsVal>(kNumSlots, AbsVal::known(0))};
  }

  bool join(const Env &O) {
    if (!O.Reached)
      return false;
    if (!Reached) {
      *this = O;
      return true;
    }
    bool Changed = false;
    for (size_t I = 0; I < kNumSlots; ++I) {
      AbsVal J = joinVal(Slots[I], O.Slots[I]);
      Changed |= J != Slots[I];
      Slots[I] = J;
    }
    return Changed;
  }
  bool operator==(const Env &O) const {
    return Reached == O.Reached && (!Reached || Slots == O.Slots);
  }
  bool operator!=(const Env &O) const { return !(*this == O); }
};

/// Guard outcome for one instruction in one context.
enum class Guard : uint8_t { True, False, Maybe };

/// Evaluates instructions for one launch context, mirroring
/// RefMachine::execLane. Every case either reproduces the VM expression
/// exactly (through vm::scalar) or produces Unknown.
struct LaneEval {
  uint32_t Tid = 0;
  uint32_t Ctaid = 0;
  const LaunchShape &Shape;

  explicit LaneEval(const LaunchShape &Shape) : Shape(Shape) {}

  // --- Environment accessors, mirroring BlockState ----------------------
  static AbsVal reg(const Env &E, int64_t Id) {
    if (Id < 0)
      return AbsVal::known(0); // RZ.
    if (Id >= static_cast<int64_t>(kNumRegSlots))
      return AbsVal::unknown();
    return E.Slots[static_cast<size_t>(Id)];
  }
  static AbsVal reg64Lo(const Env &E, int64_t Id) { return reg(E, Id); }
  static AbsVal reg64Hi(const Env &E, int64_t Id) {
    return Id < 0 ? AbsVal::known(0) : reg(E, Id + 1);
  }
  static AbsVal pred(const Env &E, int64_t Id) {
    if (Id == 7)
      return AbsVal::known(1);
    if (Id < 0 || Id >= static_cast<int64_t>(kNumPredSlots))
      return AbsVal::unknown();
    return E.Slots[kNumRegSlots + static_cast<size_t>(Id)];
  }

  Guard GuardState = Guard::True;
  void setReg(Env &E, int64_t Id, AbsVal V) const {
    if (Id < 0 || Id >= static_cast<int64_t>(kNumRegSlots))
      return;
    AbsVal &Slot = E.Slots[static_cast<size_t>(Id)];
    Slot = GuardState == Guard::True ? V : joinVal(Slot, V);
  }
  void setReg64(Env &E, int64_t Id, AbsVal Lo, AbsVal Hi) const {
    setReg(E, Id, Lo);
    if (Id >= 0)
      setReg(E, Id + 1, Hi);
  }
  void setPred(Env &E, int64_t Id, AbsVal V) const {
    if (Id < 0 || Id >= 7)
      return;
    AbsVal &Slot = E.Slots[kNumRegSlots + static_cast<size_t>(Id)];
    Slot = GuardState == Guard::True ? V : joinVal(Slot, V);
  }

  // --- Operand evaluation, mirroring RefMachine -------------------------
  AbsVal value32(const Env &E, const Operand &Op,
                 bool ApplyUnary = true) const {
    AbsVal V = AbsVal::known(0);
    switch (Op.Kind) {
    case OperandKind::Register:
      V = reg(E, Op.Value[0]);
      break;
    case OperandKind::IntImm:
      V = AbsVal::known(static_cast<uint32_t>(Op.Value[0]));
      break;
    case OperandKind::FloatImm:
      V = AbsVal::known(
          vm::scalar::fromFloat(static_cast<float>(Op.FValue)));
      break;
    case OperandKind::ConstMem:
      // Constant-bank contents are launch data the static analysis does
      // not see.
      return AbsVal::unknown();
    default:
      break;
    }
    if (V.S == AbsVal::Unknown || !ApplyUnary)
      return V;
    if (Op.Complemented)
      V.V = ~V.V;
    if (Op.Negated && Op.Kind == OperandKind::Register)
      V.V = static_cast<uint32_t>(-static_cast<int32_t>(V.V));
    return V;
  }

  /// valueF32 mirror: returns Known with the float in \p F.
  bool valueF32(const Env &E, const Operand &Op, float &F) const {
    if (Op.Kind == OperandKind::FloatImm) {
      F = static_cast<float>(Op.FValue);
    } else {
      AbsVal V = value32(E, Op, /*ApplyUnary=*/false);
      if (V.S == AbsVal::Unknown)
        return false;
      F = vm::scalar::asFloat(V.V);
    }
    if (Op.Absolute)
      F = std::fabs(F);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      F = -F;
    return true;
  }

  bool valueF64(const Env &E, const Operand &Op, double &D) const {
    if (Op.Kind == OperandKind::FloatImm) {
      D = Op.FValue;
    } else if (Op.Kind == OperandKind::Register) {
      uint32_t Lo, Hi;
      if (!reg64Lo(E, Op.Value[0]).known32(Lo) ||
          !reg64Hi(E, Op.Value[0]).known32(Hi))
        return false;
      D = vm::scalar::asDouble(static_cast<uint64_t>(Lo) |
                               (static_cast<uint64_t>(Hi) << 32));
    } else {
      float F;
      if (!valueF32(E, Op, F))
        return false;
      D = static_cast<double>(F);
    }
    if (Op.Absolute)
      D = std::fabs(D);
    if (Op.Negated && Op.Kind != OperandKind::FloatImm)
      D = -D;
    return true;
  }

  AbsVal predValue(const Env &E, const Operand &Op) const {
    AbsVal V = pred(E, Op.Value[0]);
    if (V.S == AbsVal::Known && Op.LogicalNot)
      V.V = V.V ? 0 : 1;
    return V;
  }

  Guard guardOf(const Env &E, const Instruction &Asm) const {
    if (!Asm.hasGuard())
      return Guard::True;
    AbsVal V = pred(E, Asm.GuardPredicate);
    if (V.S == AbsVal::Unknown)
      return Guard::Maybe;
    bool Ok = V.V != 0;
    if (Asm.GuardNegated)
      Ok = !Ok;
    return Ok ? Guard::True : Guard::False;
  }

  /// Degrades every register/predicate the instruction defines to
  /// Unknown — the fallback for anything not exactly modeled.
  void smashDefs(Env &E, const Instruction &Asm) const {
    visitRegs(Asm, [&](int Slot, unsigned Width, bool IsDef) {
      if (!IsDef)
        return;
      for (unsigned Off = 0; Off < Width; ++Off) {
        unsigned S = static_cast<unsigned>(Slot) + Off;
        if (isRegSlot(static_cast<unsigned>(Slot)) && S >= kNumRegSlots)
          break;
        if (S < kNumSlots)
          E.Slots[S] = AbsVal::unknown();
      }
    });
  }

  /// One instruction's forward transfer, given its vm::predecode record
  /// \p P. Mirrors RefMachine::execLane case by case; memory contents are
  /// never tracked, so loads (and anything cross-lane) define Unknown.
  void eval(Env &E, const ir::Inst &I, const vm::Pre &P) {
    const Instruction &Asm = I.Asm;
    const auto &Ops = Asm.Operands;

    GuardState = guardOf(E, Asm);
    if (GuardState == Guard::False)
      return;

    auto bin32 = [&](size_t A, size_t B, uint32_t (*F)(uint32_t, uint32_t)) {
      uint32_t X, Y;
      if (value32(E, Ops[A]).known32(X) && value32(E, Ops[B]).known32(Y))
        setReg(E, Ops[0].Value[0], AbsVal::known(F(X, Y)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
    };
    auto fbin = [&](uint32_t (*F)(float, float)) {
      float A, B;
      if (valueF32(E, Ops[1], A) && valueF32(E, Ops[2], B))
        setReg(E, Ops[0].Value[0], AbsVal::known(F(A, B)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
    };
    auto dbin = [&](uint64_t (*F)(double, double)) {
      double A, B;
      if (valueF64(E, Ops[1], A) && valueF64(E, Ops[2], B)) {
        uint64_t R = F(A, B);
        setReg64(E, Ops[0].Value[0],
                 AbsVal::known(static_cast<uint32_t>(R)),
                 AbsVal::known(static_cast<uint32_t>(R >> 32)));
      } else {
        setReg64(E, Ops[0].Value[0], AbsVal::unknown(), AbsVal::unknown());
      }
    };

    switch (P.Kind) {
    case vm::OpKind::Mov:
      setReg(E, Ops[0].Value[0], value32(E, Ops[1]));
      break;
    case vm::OpKind::S2R: {
      AbsVal V = AbsVal::known(0);
      switch (P.Sr) {
      case vm::SrKind::TidX:
        V = AbsVal::known(Tid);
        break;
      case vm::SrKind::CtaidX:
        V = AbsVal::known(Ctaid);
        break;
      case vm::SrKind::NtidX:
        V = AbsVal::known(Shape.NumThreads);
        break;
      case vm::SrKind::LaneId:
        V = AbsVal::known(Tid % Shape.WarpSize);
        break;
      case vm::SrKind::ClockLo:
        V = AbsVal::unknown(); // Step counts are schedule state.
        break;
      case vm::SrKind::Zero:
        break;
      }
      setReg(E, Ops[0].Value[0], V);
      break;
    }
    case vm::OpKind::IAdd:
      bin32(1, 2, +[](uint32_t A, uint32_t B) { return A + B; });
      break;
    case vm::OpKind::IMul: {
      uint32_t A, B;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B)) {
        uint64_t Product = static_cast<uint64_t>(A) * B;
        setReg(E, Ops[0].Value[0],
               AbsVal::known(P.Hi ? static_cast<uint32_t>(Product >> 32)
                                  : static_cast<uint32_t>(Product)));
      } else {
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::IMad: {
      uint32_t A, B, C;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B) &&
          value32(E, Ops[3]).known32(C))
        setReg(E, Ops[0].Value[0], AbsVal::known(A * B + C));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Xmad: {
      uint32_t A, B, C;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B) &&
          value32(E, Ops[3]).known32(C))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::xmad(A, B, C, P.H1A, P.H1B)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::IAdd3: {
      uint32_t A, B, C;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B) &&
          value32(E, Ops[3]).known32(C))
        setReg(E, Ops[0].Value[0], AbsVal::known(A + B + C));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Bfe: {
      uint32_t A, B;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::bfe(A, B, P.U32)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Bfi: {
      uint32_t A, B, C;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B) &&
          value32(E, Ops[3]).known32(C))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::bfi(A, B, C)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Popc: {
      uint32_t A;
      if (value32(E, Ops[1]).known32(A))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(
                   static_cast<uint32_t>(__builtin_popcount(A))));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Lop3: {
      uint32_t A, B, C, L;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(B) &&
          value32(E, Ops[3]).known32(C) && value32(E, Ops[4]).known32(L))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::lop3(A, B, C, L)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Imnmx: {
      uint32_t A, C, Take;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(C) &&
          predValue(E, Ops[3]).known32(Take)) {
        int32_t SA = static_cast<int32_t>(A), SC = static_cast<int32_t>(C);
        int32_t Min = SA < SC ? SA : SC, Max = SA > SC ? SA : SC;
        setReg(E, Ops[0].Value[0],
               AbsVal::known(static_cast<uint32_t>(Take ? Min : Max)));
      } else {
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::FAdd:
      fbin(&vm::scalar::fadd);
      break;
    case vm::OpKind::FMul:
      fbin(&vm::scalar::fmul);
      break;
    case vm::OpKind::Ffma: {
      float A, B, C;
      if (valueF32(E, Ops[1], A) && valueF32(E, Ops[2], B) &&
          valueF32(E, Ops[3], C))
        setReg(E, Ops[0].Value[0], AbsVal::known(vm::scalar::ffma(A, B, C)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Fmnmx: {
      float A, B;
      uint32_t Take;
      if (valueF32(E, Ops[1], A) && valueF32(E, Ops[2], B) &&
          predValue(E, Ops[3]).known32(Take))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::fmnmx(A, B, Take != 0)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::Dfma: {
      double A, B, C;
      if (valueF64(E, Ops[1], A) && valueF64(E, Ops[2], B) &&
          valueF64(E, Ops[3], C)) {
        uint64_t R = vm::scalar::dfma(A, B, C);
        setReg64(E, Ops[0].Value[0],
                 AbsVal::known(static_cast<uint32_t>(R)),
                 AbsVal::known(static_cast<uint32_t>(R >> 32)));
      } else {
        setReg64(E, Ops[0].Value[0], AbsVal::unknown(), AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::Rro: {
      float A;
      if (valueF32(E, Ops[1], A))
        setReg(E, Ops[0].Value[0], AbsVal::known(vm::scalar::fromFloat(A)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::DAdd:
      dbin(&vm::scalar::dadd);
      break;
    case vm::OpKind::DMul:
      dbin(&vm::scalar::dmul);
      break;
    case vm::OpKind::Mufu: {
      float A;
      if (valueF32(E, Ops[1], A))
        setReg(E, Ops[0].Value[0], AbsVal::known(vm::scalar::mufu(P.Mufu, A)));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::F2F:
      if (P.F2F == vm::F2FKind::F32F64) {
        double A;
        if (valueF64(E, Ops[1], A))
          setReg(E, Ops[0].Value[0],
                 AbsVal::known(
                     vm::scalar::fromFloat(static_cast<float>(A))));
        else
          setReg(E, Ops[0].Value[0], AbsVal::unknown());
      } else if (P.F2F == vm::F2FKind::F64F32) {
        float A;
        if (valueF32(E, Ops[1], A)) {
          uint64_t R = vm::scalar::fromDouble(static_cast<double>(A));
          setReg64(E, Ops[0].Value[0],
                   AbsVal::known(static_cast<uint32_t>(R)),
                   AbsVal::known(static_cast<uint32_t>(R >> 32)));
        } else {
          setReg64(E, Ops[0].Value[0], AbsVal::unknown(),
                   AbsVal::unknown());
        }
      } else {
        smashDefs(E, Asm); // The VM rejects the run; stay conservative.
      }
      break;
    case vm::OpKind::F2I: {
      float A;
      // The VM casts unconditionally; out-of-range casts are not a value
      // this analysis wants to claim knowledge of, so only in-range
      // results are Known (they match the VM bit-for-bit).
      if (valueF32(E, Ops[1], A) && A >= -2147483648.0f &&
          A < 2147483648.0f)
        setReg(E, Ops[0].Value[0],
               AbsVal::known(
                   static_cast<uint32_t>(static_cast<int32_t>(A))));
      else
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      break;
    }
    case vm::OpKind::I2F: {
      uint32_t Raw;
      if (value32(E, Ops[1]).known32(Raw)) {
        float F = P.I2FUnsigned
                      ? static_cast<float>(Raw)
                      : static_cast<float>(static_cast<int32_t>(Raw));
        setReg(E, Ops[0].Value[0], AbsVal::known(vm::scalar::fromFloat(F)));
      } else {
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::Setp: {
      if (!P.HasMods2 || Ops.size() < 5) {
        smashDefs(E, Asm);
        break;
      }
      bool HaveTest = false;
      bool Test = false;
      if (P.FloatSetp) {
        float A, B;
        if (valueF32(E, Ops[2], A) && valueF32(E, Ops[3], B)) {
          Test = vm::scalar::compareF(P.Cmp, A, B);
          HaveTest = true;
        }
      } else {
        uint32_t A, B;
        if (value32(E, Ops[2]).known32(A) && value32(E, Ops[3]).known32(B)) {
          Test = vm::scalar::compareI(P.Cmp, static_cast<int32_t>(A),
                                      static_cast<int32_t>(B));
          HaveTest = true;
        }
      }
      uint32_t C;
      if (HaveTest && predValue(E, Ops[4]).known32(C)) {
        bool Combined = vm::scalar::logic(P.L1, Test, C != 0);
        setPred(E, Ops[0].Value[0], AbsVal::known(Combined ? 1 : 0));
        setPred(E, Ops[1].Value[0], AbsVal::known(Combined ? 0 : 1));
      } else {
        setPred(E, Ops[0].Value[0], AbsVal::unknown());
        setPred(E, Ops[1].Value[0], AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::Psetp: {
      uint32_t A, B, C;
      if (P.HasMods2 && Ops.size() >= 5 &&
          predValue(E, Ops[2]).known32(A) &&
          predValue(E, Ops[3]).known32(B) &&
          predValue(E, Ops[4]).known32(C)) {
        bool V = vm::scalar::logic(
            P.L2, vm::scalar::logic(P.L1, A != 0, B != 0), C != 0);
        setPred(E, Ops[0].Value[0], AbsVal::known(V ? 1 : 0));
        setPred(E, Ops[1].Value[0], AbsVal::known(V ? 0 : 1));
      } else {
        smashDefs(E, Asm);
      }
      break;
    }
    case vm::OpKind::Sel: {
      uint32_t Take;
      if (predValue(E, Ops[3]).known32(Take))
        setReg(E, Ops[0].Value[0],
               value32(E, Take ? Ops[1] : Ops[2]));
      else
        setReg(E, Ops[0].Value[0],
               joinVal(value32(E, Ops[1]), value32(E, Ops[2])));
      break;
    }
    case vm::OpKind::Lop: {
      uint32_t A, C;
      if (value32(E, Ops[1]).known32(A) && value32(E, Ops[2]).known32(C)) {
        uint32_t V = P.L1 == vm::LogicKind::Or    ? (A | C)
                     : P.L1 == vm::LogicKind::Xor ? (A ^ C)
                                                  : (A & C);
        setReg(E, Ops[0].Value[0], AbsVal::known(V));
      } else {
        setReg(E, Ops[0].Value[0], AbsVal::unknown());
      }
      break;
    }
    case vm::OpKind::Shl:
      bin32(1, 2, +[](uint32_t A, uint32_t B) { return A << (B & 31); });
      break;
    case vm::OpKind::Shr:
      if (P.U32)
        bin32(1, 2, +[](uint32_t A, uint32_t B) { return A >> (B & 31); });
      else
        bin32(1, 2, +[](uint32_t A, uint32_t B) {
          return static_cast<uint32_t>(static_cast<int32_t>(A) >> (B & 31));
        });
      break;
    case vm::OpKind::Tex: {
      uint32_t Coord;
      if (Ops.size() >= 4 && value32(E, Ops[1]).known32(Coord))
        setReg(E, Ops[0].Value[0],
               AbsVal::known(vm::scalar::texHash(Coord, Ops[2].Value[0],
                                                 Ops[3].Value[0])));
      else
        smashDefs(E, Asm);
      break;
    }
    default:
      // Loads/LDC/ATOM results (memory contents are not tracked), SHFL
      // and VOTE (cross-lane), and anything unclassified.
      smashDefs(E, Asm);
      break;
    }
  }
};

// --- The per-kernel access table ------------------------------------------

/// vm::predecode of every instruction, indexed [block][inst]. Each checker
/// call classifies its kernel once; everything below reads this table.
using PreTable = std::vector<std::vector<vm::Pre>>;

PreTable predecodeKernel(const ir::Kernel &K) {
  PreTable Pre(K.Blocks.size());
  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    Pre[B].reserve(K.Blocks[B].Insts.size());
    for (const ir::Inst &I : K.Blocks[B].Insts)
      Pre[B].push_back(vm::predecode(I.Asm));
  }
  return Pre;
}

/// One LD/ST/ATOM site with its per-context address facts.
struct Access {
  int Block = 0;
  int Inst = 0;
  uint64_t OrigAddress = ir::Inst::kNoAddress;
  const Operand *Mem = nullptr; ///< The [base+offset] operand.
  bool IsStore = false;
  vm::RegionKind Region = vm::RegionKind::Global;
  unsigned Bytes = 4;
  int Seg = -1; ///< Barrier segment id (filled for race checking).

  enum : uint8_t { Skip, KnownAddr, MayUnknown };
  std::vector<uint8_t> State; ///< Per context b * NumThreads + t.
  std::vector<uint64_t> Addr; ///< Valid where State == KnownAddr.
};

struct AccessTable {
  /// False when the kernel defeats exhaustive evaluation (CAL/RET or
  /// unknown control flow, or more contexts than LaunchShape allows);
  /// every access must then be treated as unknown-address, may-execute.
  bool Exhaustive = true;
  std::vector<Access> Accesses;
};

bool isMemOp(vm::OpKind K) {
  return K == vm::OpKind::Load || K == vm::OpKind::Store ||
         K == vm::OpKind::Atom;
}

/// Control flow the CFG-edge reachability argument does not cover.
bool defeatsEvaluation(const ir::Kernel &K, const PreTable &Pre) {
  for (size_t B = 0; B < K.Blocks.size(); ++B)
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
      const vm::OpKind Kind = Pre[B][I].Kind;
      if (Kind == vm::OpKind::Cal || Kind == vm::OpKind::Ret)
        return true;
      if (Kind == vm::OpKind::Unknown &&
          isControlMnemonic(K.Blocks[B].Insts[I].Asm.Opcode))
        return true;
    }
  return false;
}

const Operand *memOperand(const Instruction &Asm, vm::OpKind Kind) {
  size_t Idx = Kind == vm::OpKind::Store ? 0 : 1;
  if (Idx >= Asm.Operands.size() ||
      Asm.Operands[Idx].Kind != OperandKind::Memory)
    return nullptr;
  return &Asm.Operands[Idx];
}

/// The kernel's LD/ST/ATOM sites in (block, inst) order, every context
/// still MayUnknown. Cheap: no context is evaluated yet.
AccessTable collectAccesses(const ir::Kernel &K, const PreTable &Pre,
                            const LaunchShape &Shape) {
  AccessTable T;
  const size_t Contexts =
      static_cast<size_t>(Shape.NumBlocks) * Shape.NumThreads;
  T.Exhaustive = Contexts > 0 && Contexts <= Shape.MaxContexts &&
                 !defeatsEvaluation(K, Pre);

  for (size_t B = 0; B < K.Blocks.size(); ++B)
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
      const ir::Inst &Inst = K.Blocks[B].Insts[I];
      const vm::Pre &P = Pre[B][I];
      const Operand *Mem =
          isMemOp(P.Kind) ? memOperand(Inst.Asm, P.Kind) : nullptr;
      if (!Mem)
        continue;
      Access A;
      A.Block = static_cast<int>(B);
      A.Inst = static_cast<int>(I);
      A.OrigAddress = Inst.OrigAddress;
      A.Mem = Mem;
      A.IsStore = P.Kind != vm::OpKind::Load; // ATOM both loads and stores.
      A.Region =
          P.Kind == vm::OpKind::Atom ? vm::RegionKind::Global : P.Region;
      A.Bytes = P.Kind == vm::OpKind::Atom ? 4 : P.MemBytes;
      const size_t N = T.Exhaustive ? Contexts : 1;
      A.State.assign(N, Access::MayUnknown);
      A.Addr.assign(N, 0);
      T.Accesses.push_back(std::move(A));
    }
  return T;
}

/// Runs the per-context fixpoint and fills every site's State/Addr. A
/// no-op when the table is not exhaustive or has no sites.
void evaluateContexts(AccessTable &T, const ir::Kernel &K,
                      const PreTable &Pre, const LaunchShape &Shape) {
  if (!T.Exhaustive || T.Accesses.empty())
    return;

  const Cfg C = Cfg::build(K);
  const size_t N = K.Blocks.size();
  LaneEval Eval(Shape);

  for (unsigned Blk = 0; Blk < Shape.NumBlocks; ++Blk) {
    for (unsigned Tid = 0; Tid < Shape.NumThreads; ++Tid) {
      Eval.Tid = Tid;
      Eval.Ctaid = Shape.FirstBlockId + Blk;
      const size_t Ctx = static_cast<size_t>(Blk) * Shape.NumThreads + Tid;

      std::vector<Env> In(N, Env::bottom()), Out(N, Env::bottom());
      std::deque<int> Worklist;
      std::vector<bool> Queued(N, false);
      for (int B : C.Rpo) {
        Worklist.push_back(B);
        Queued[B] = true;
      }
      while (!Worklist.empty()) {
        int B = Worklist.front();
        Worklist.pop_front();
        Queued[B] = false;
        Env NewIn = B == 0 ? Env::entry() : Env::bottom();
        for (int P : C.Preds[B])
          NewIn.join(Out[P]);
        In[B] = NewIn;
        if (NewIn.Reached)
          for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I)
            Eval.eval(NewIn, K.Blocks[B].Insts[I], Pre[B][I]);
        if (NewIn != Out[B]) {
          Out[B] = std::move(NewIn);
          for (int S : K.Blocks[B].Succs) {
            if (S >= 0 && static_cast<size_t>(S) < N && !Queued[S]) {
              Queued[S] = true;
              Worklist.push_back(S);
            }
          }
        }
      }

      // Replay each block once more to read off the per-access facts.
      size_t AccIdx = 0;
      for (size_t B = 0; B < N; ++B) {
        Env Walk = In[B];
        for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
          const ir::Inst &Inst = K.Blocks[B].Insts[I];
          if (AccIdx < T.Accesses.size() &&
              T.Accesses[AccIdx].Block == static_cast<int>(B) &&
              T.Accesses[AccIdx].Inst == static_cast<int>(I)) {
            Access &A = T.Accesses[AccIdx++];
            const Guard G = Walk.Reached ? Eval.guardOf(Walk, Inst.Asm)
                                         : Guard::False;
            if (!Walk.Reached || G == Guard::False) {
              A.State[Ctx] = Access::Skip;
            } else {
              uint32_t Base;
              // memAddress mirror: the raw base register (no unary ops)
              // zero-extended, plus the literal byte offset. A Maybe
              // guard degrades to MayUnknown — the access might not
              // execute, so a concrete fault/race witness would be an
              // overclaim.
              if (G == Guard::True &&
                  LaneEval::reg(Walk, A.Mem->Value[0]).known32(Base)) {
                A.State[Ctx] = Access::KnownAddr;
                A.Addr[Ctx] = static_cast<uint64_t>(Base) +
                              static_cast<uint64_t>(A.Mem->Value[1]);
              } else {
                A.State[Ctx] = Access::MayUnknown;
              }
            }
          }
          if (Walk.Reached)
            Eval.eval(Walk, Inst, Pre[B][I]);
        }
      }
    }
  }
}

// --- Barrier intervals ----------------------------------------------------

/// The kernel's CFG partitioned into barrier-free segments, plus the two
/// reachability facts race checking needs: which segments can execute in
/// the entry epoch (E) and which in any post-release epoch (U).
struct BarrierIntervals {
  std::vector<std::vector<int>> SegOfInst; ///< [block][inst] -> segment.
  std::vector<bool> EntryEpoch;            ///< Segment in E.
  std::vector<bool> ReleaseEpoch;          ///< Segment in U.

  bool concurrent(int A, int B) const {
    return (EntryEpoch[A] && EntryEpoch[B]) ||
           (ReleaseEpoch[A] && ReleaseEpoch[B]);
  }
};

bool isFullBarrier(const ir::Inst &I, const vm::Pre &P) {
  return P.Kind == vm::OpKind::Bar && !I.Asm.hasGuard();
}

BarrierIntervals buildBarrierIntervals(const ir::Kernel &K,
                                       const PreTable &Pre) {
  BarrierIntervals BI;
  const size_t N = K.Blocks.size();
  BI.SegOfInst.resize(N);
  std::vector<int> FirstSeg(N, -1), LastSeg(N, -1);
  std::vector<int> BarrierStarts;
  int NumSegs = 0;
  for (size_t B = 0; B < N; ++B) {
    int Seg = NumSegs++;
    FirstSeg[B] = Seg;
    BI.SegOfInst[B].resize(K.Blocks[B].Insts.size());
    for (size_t I = 0; I < K.Blocks[B].Insts.size(); ++I) {
      BI.SegOfInst[B][I] = Seg;
      if (isFullBarrier(K.Blocks[B].Insts[I], Pre[B][I])) {
        // The segment after an unguarded BAR.SYNC starts a new epoch; no
        // barrier-free edge crosses the split.
        Seg = NumSegs++;
        BarrierStarts.push_back(Seg);
      }
    }
    LastSeg[B] = Seg;
  }

  std::vector<std::vector<int>> Edges(NumSegs);
  for (size_t B = 0; B < N; ++B)
    for (int S : K.Blocks[B].Succs)
      if (S >= 0 && static_cast<size_t>(S) < N)
        Edges[LastSeg[B]].push_back(FirstSeg[S]);

  auto reach = [&](const std::vector<int> &Starts) {
    std::vector<bool> Seen(NumSegs, false);
    std::deque<int> Work;
    for (int S : Starts)
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      int S = Work.front();
      Work.pop_front();
      for (int T : Edges[S])
        if (!Seen[T]) {
          Seen[T] = true;
          Work.push_back(T);
        }
    }
    return Seen;
  };

  BI.EntryEpoch = N > 0 ? reach({FirstSeg[0]})
                        : std::vector<bool>(NumSegs, false);
  BI.ReleaseEpoch = reach(BarrierStarts);
  return BI;
}

// --- Shared helpers for the checker bodies --------------------------------

Finding makeFinding(const ir::Kernel &K, const char *Rule, Severity Sev,
                    std::string Message, int Block, int Inst,
                    uint64_t Address) {
  Finding F;
  F.Rule = Rule;
  F.Sev = Sev;
  F.Message = std::move(Message);
  F.Kernel = K.Name;
  F.Block = Block;
  F.Inst = Inst;
  F.Address = Address;
  return F;
}

size_t regionSize(const LaunchShape &Shape, vm::RegionKind Region) {
  switch (Region) {
  case vm::RegionKind::Shared:
    return Shape.SharedSize;
  case vm::RegionKind::Local:
    return Shape.LocalSize;
  case vm::RegionKind::Global:
    break;
  }
  return Shape.GlobalSize;
}

const char *regionName(vm::RegionKind Region) {
  switch (Region) {
  case vm::RegionKind::Shared:
    return "shared";
  case vm::RegionKind::Local:
    return "local";
  case vm::RegionKind::Global:
    break;
  }
  return "global";
}

/// Mirror of the loadMem/storeMem fault condition, chunked exactly as the
/// VM chunks wide accesses (16-byte forms go as four 4-byte accesses).
bool accessFaults(uint64_t Addr, unsigned Bytes, size_t Size) {
  if (Size == 0)
    return false; // Empty regions read zero / drop stores.
  if (Bytes <= 8)
    return Addr + Bytes > Size;
  for (unsigned I = 0; I < 4; ++I)
    if (Addr + 4 * I + 4 > Size)
      return true;
  return false;
}

/// Do the wrapped byte footprints of two accesses into the same region
/// intersect? Mirrors the Wrap policy's per-byte modulo.
bool bytesOverlap(uint64_t A, unsigned BytesA, uint64_t B, unsigned BytesB,
                  size_t Size) {
  if (Size == 0)
    return false;
  for (unsigned I = 0; I < BytesA; ++I)
    for (unsigned J = 0; J < BytesB; ++J)
      if ((A + I) % Size == (B + J) % Size)
        return true;
  return false;
}

std::string siteLabel(const Access &A) {
  std::string S = std::string(A.IsStore ? "store" : "load") + " at BB" +
                  std::to_string(A.Block) + ":" + std::to_string(A.Inst);
  if (A.OrigAddress != ir::Inst::kNoAddress)
    S += " @" + hex(A.OrigAddress);
  return S;
}

} // namespace

// --- TYP001-004 -----------------------------------------------------------

Report analysis::checkTypes(const ir::Kernel &K) {
  DCB_SPAN("analysis.checkTypes");
  Report R;
  const TypeInference T = inferTypes(K);

  /// Expected float width of a source operand, when the opcode fixes one.
  enum class Want : uint8_t { None, F32, F64, Int };

  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    T.forEachTypeBefore(
        K, static_cast<int>(B),
        [&](int InstIdx, const std::vector<TypeMask> &Types) {
          const ir::Inst &I = K.Blocks[B].Insts[InstIdx];
          const Instruction &Asm = I.Asm;
          const vm::Pre P = vm::predecode(Asm);

          // Address-base checks: TYP001 / TYP003.
          for (const Operand &Op : Asm.Operands) {
            if (Op.Kind != OperandKind::Memory || Op.Value[0] < 0 ||
                Op.Value[0] >= static_cast<int64_t>(kNumRegSlots))
              continue;
            const unsigned Slot = static_cast<unsigned>(Op.Value[0]);
            const TypeMask M = Types[Slot];
            if (!M)
              continue;
            if (typeConflict(M)) {
              R.add(makeFinding(
                  K, "TYP003", Severity::Error,
                  slotName(Slot) + " holds conflicting types (" +
                      typeMaskName(M) +
                      ") merged at a join and is dereferenced",
                  static_cast<int>(B), InstIdx, I.OrigAddress));
            } else if ((M & kTypeFloatAny) && !(M & ~kTypeFloatAny)) {
              R.add(makeFinding(
                  K, "TYP001", Severity::Error,
                  "float-typed register " + slotName(Slot) + " (" +
                      typeMaskName(M) + ") used as a " +
                      regionName(P.Region) + " address",
                  static_cast<int>(B), InstIdx, I.OrigAddress));
            }
          }

          // Operand-width / interpretation checks: TYP002 / TYP004.
          auto wants = [&](size_t Idx) -> Want {
            switch (P.Kind) {
            case vm::OpKind::FAdd:
            case vm::OpKind::FMul:
            case vm::OpKind::Fmnmx:
              return Idx == 1 || Idx == 2 ? Want::F32 : Want::None;
            case vm::OpKind::Ffma:
              return Idx >= 1 && Idx <= 3 ? Want::F32 : Want::None;
            case vm::OpKind::Mufu:
            case vm::OpKind::Rro:
              return Idx == 1 ? Want::F32 : Want::None;
            case vm::OpKind::F2I:
              return Idx == 1 ? Want::F32 : Want::None;
            case vm::OpKind::DAdd:
            case vm::OpKind::DMul:
              return Idx == 1 || Idx == 2 ? Want::F64 : Want::None;
            case vm::OpKind::Dfma:
              return Idx >= 1 && Idx <= 3 ? Want::F64 : Want::None;
            case vm::OpKind::F2F:
              if (Idx != 1)
                return Want::None;
              return P.F2F == vm::F2FKind::F32F64 ? Want::F64
                     : P.F2F == vm::F2FKind::F64F32
                         ? Want::F32
                         : Want::None;
            case vm::OpKind::Setp:
              if (Idx != 2 && Idx != 3)
                return Want::None;
              return P.FloatSetp ? Want::F32 : Want::Int;
            case vm::OpKind::IAdd:
            case vm::OpKind::IAdd3:
            case vm::OpKind::IMul:
            case vm::OpKind::IMad:
            case vm::OpKind::Xmad:
            case vm::OpKind::Bfe:
            case vm::OpKind::Bfi:
            case vm::OpKind::Popc:
            case vm::OpKind::Lop3:
            case vm::OpKind::Lop:
            case vm::OpKind::Shl:
            case vm::OpKind::Shr:
            case vm::OpKind::Imnmx:
            case vm::OpKind::I2F:
              return Idx >= 1 ? Want::Int : Want::None;
            default:
              return Want::None;
            }
          };

          const unsigned NumDefs = defCount(Asm);
          for (size_t Idx = NumDefs; Idx < Asm.Operands.size(); ++Idx) {
            const Operand &Op = Asm.Operands[Idx];
            if (Op.Kind != OperandKind::Register || Op.Value[0] < 0 ||
                Op.Value[0] >= static_cast<int64_t>(kNumRegSlots))
              continue;
            const unsigned Slot = static_cast<unsigned>(Op.Value[0]);
            const TypeMask M = Types[Slot];
            if (!M)
              continue;
            switch (wants(Idx)) {
            case Want::F32:
              if ((M & kTypeF64) && !(M & kTypeF32))
                R.add(makeFinding(
                    K, "TYP002", Severity::Warning,
                    slotName(Slot) + " holds f64 but " + Asm.Opcode +
                        " reads it as f32 (width mismatch)",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            case Want::F64:
              if ((M & kTypeF32) && !(M & kTypeF64))
                R.add(makeFinding(
                    K, "TYP002", Severity::Warning,
                    slotName(Slot) + " holds f32 but " + Asm.Opcode +
                        " reads it as an f64 pair (width mismatch)",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            case Want::Int:
              if ((M & kTypeFloatAny) && !(M & ~kTypeFloatAny))
                R.add(makeFinding(
                    K, "TYP004", Severity::Warning,
                    "integer op " + Asm.Opcode +
                        " consumes float-typed register " + slotName(Slot) +
                        " (" + typeMaskName(M) + ")",
                    static_cast<int>(B), InstIdx, I.OrigAddress));
              break;
            case Want::None:
              break;
            }
          }
        });
  }
  countRules(R);
  return R;
}

Report analysis::checkTypes(const ir::Program &P) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkTypes(K));
  return R;
}

// --- MEM001-004 -----------------------------------------------------------

Report analysis::checkBounds(const ir::Kernel &K, const LaunchShape &Shape) {
  DCB_SPAN("analysis.checkBounds");
  Report R;
  const PreTable Pre = predecodeKernel(K);
  AccessTable T = collectAccesses(K, Pre, Shape);
  evaluateContexts(T, K, Pre, Shape);
  const TypeInference Types = inferTypes(K);

  for (const Access &A : T.Accesses) {
    const size_t Size = regionSize(Shape, A.Region);
    const char *Space = regionName(A.Region);
    const std::string Label = siteLabel(A);

    bool AnyUnknown = !T.Exhaustive;
    bool AnyKnown = false;
    bool ConstantAddr = true;
    uint64_t FirstAddr = 0;
    int FaultCtx = -1;
    int MisalignCtx = -1;
    if (T.Exhaustive) {
      for (size_t Ctx = 0; Ctx < A.State.size(); ++Ctx) {
        if (A.State[Ctx] == Access::Skip)
          continue;
        if (A.State[Ctx] == Access::MayUnknown) {
          AnyUnknown = true;
          continue;
        }
        const uint64_t Addr = A.Addr[Ctx];
        if (!AnyKnown) {
          AnyKnown = true;
          FirstAddr = Addr;
        } else if (Addr != FirstAddr) {
          ConstantAddr = false;
        }
        if (FaultCtx < 0 && accessFaults(Addr, A.Bytes, Size))
          FaultCtx = static_cast<int>(Ctx);
        if (MisalignCtx < 0 && (A.Bytes == 8 || A.Bytes == 16) &&
            Addr % A.Bytes != 0)
          MisalignCtx = static_cast<int>(Ctx);
      }
    }

    if (FaultCtx >= 0) {
      const uint64_t Addr = A.Addr[FaultCtx];
      const unsigned Tid =
          static_cast<unsigned>(FaultCtx) % Shape.NumThreads;
      const unsigned Blk =
          static_cast<unsigned>(FaultCtx) / Shape.NumThreads;
      if (ConstantAddr && !AnyUnknown) {
        R.add(makeFinding(K, "MEM001", Severity::Error,
                          std::string(Space) + " " + Label + ": constant " +
                              std::to_string(A.Bytes) + "-byte access at " +
                              hex(Addr) + " is out of bounds (region size " +
                              std::to_string(Size) + ")",
                          A.Block, A.Inst, A.OrigAddress));
      } else {
        R.add(makeFinding(
            K, "MEM002", Severity::Error,
            std::string(Space) + " " + Label + ": " +
                std::to_string(A.Bytes) + "-byte access at " + hex(Addr) +
                " (tid " + std::to_string(Tid) + ", ctaid " +
                std::to_string(Blk + Shape.FirstBlockId) +
                ") is out of bounds for the declared launch (region size " +
                std::to_string(Size) + ")",
            A.Block, A.Inst, A.OrigAddress));
      }
    } else if (AnyUnknown) {
      R.add(makeFinding(K, "MEM002", Severity::Warning,
                        std::string(Space) + " " + Label +
                            ": address is not statically analyzable; "
                            "cannot prove the access in bounds",
                        A.Block, A.Inst, A.OrigAddress));
    }

    if (FaultCtx < 0 && MisalignCtx >= 0)
      R.add(makeFinding(K, "MEM003", Severity::Warning,
                        std::string(Space) + " " + Label + ": " +
                            std::to_string(A.Bytes) +
                            "-byte access at " + hex(A.Addr[MisalignCtx]) +
                            " is not " + std::to_string(A.Bytes) +
                            "-byte aligned",
                        A.Block, A.Inst, A.OrigAddress));
  }

  // MEM004: the typed view — a register that the type lattice says points
  // into one space, dereferenced as another.
  size_t AccIdx = 0;
  for (size_t B = 0; B < K.Blocks.size(); ++B) {
    Types.forEachTypeBefore(
        K, static_cast<int>(B),
        [&](int InstIdx, const std::vector<TypeMask> &Masks) {
          while (AccIdx < T.Accesses.size() &&
                 (T.Accesses[AccIdx].Block < static_cast<int>(B) ||
                  (T.Accesses[AccIdx].Block == static_cast<int>(B) &&
                   T.Accesses[AccIdx].Inst < InstIdx)))
            ++AccIdx;
          if (AccIdx >= T.Accesses.size())
            return;
          const Access &A = T.Accesses[AccIdx];
          if (A.Block != static_cast<int>(B) || A.Inst != InstIdx)
            return;
          const ir::Inst &I = K.Blocks[B].Insts[InstIdx];
          if (A.Mem->Value[0] < 0 ||
              A.Mem->Value[0] >= static_cast<int64_t>(kNumRegSlots))
            return;
          const unsigned Slot = static_cast<unsigned>(A.Mem->Value[0]);
          const TypeMask M = Masks[Slot];
          const TypeMask Ptr = M & kTypePtrAny;
          TypeMask Bit = 0;
          switch (A.Region) {
          case vm::RegionKind::Shared:
            Bit = kTypePtrShared;
            break;
          case vm::RegionKind::Local:
            Bit = kTypePtrLocal;
            break;
          case vm::RegionKind::Global:
            Bit = kTypePtrGlobal;
            break;
          }
          if (Ptr && !(Ptr & Bit) && !typeConflict(M))
            R.add(makeFinding(K, "MEM004", Severity::Error,
                              slotName(Slot) + " is typed " +
                                  typeMaskName(M) + " but " + I.Asm.Opcode +
                                  " dereferences it as a " +
                                  regionName(A.Region) +
                                  " address (space confusion)",
                              A.Block, A.Inst, A.OrigAddress));
        });
  }

  countRules(R);
  return R;
}

Report analysis::checkBounds(const ir::Program &P, const LaunchShape &Shape) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkBounds(K, Shape));
  return R;
}

// --- RAC001-003 -----------------------------------------------------------

Report analysis::checkRaces(const ir::Kernel &K, const LaunchShape &Shape) {
  DCB_SPAN("analysis.checkRaces");
  Report R;

  const PreTable Pre = predecodeKernel(K);
  AccessTable T = collectAccesses(K, Pre, Shape);
  std::vector<Access *> Shared;
  for (Access &A : T.Accesses)
    if (A.Region == vm::RegionKind::Shared)
      Shared.push_back(&A);
  bool AnyStore = false;
  for (const Access *A : Shared)
    AnyStore |= A->IsStore;
  if (Shared.empty() || !AnyStore || Shape.NumThreads < 2) {
    countRules(R);
    return R;
  }
  evaluateContexts(T, K, Pre, Shape);

  const BarrierIntervals BI = buildBarrierIntervals(K, Pre);
  for (Access *A : Shared)
    A->Seg = BI.SegOfInst[static_cast<size_t>(A->Block)]
                         [static_cast<size_t>(A->Inst)];
  // With control flow the evaluator cannot cover, the barrier-interval
  // reachability is not trusted either: every pair is treated as
  // potentially concurrent.
  const bool TrustSegments = T.Exhaustive;

  // RAC003 is per *site*, not per pair: any shared store (or a load
  // against an unanalyzable store) we cannot fully order and resolve gets
  // one conservative finding.
  std::vector<bool> Covered(Shared.size(), false);

  for (size_t IA = 0; IA < Shared.size(); ++IA) {
    for (size_t IB = IA; IB < Shared.size(); ++IB) {
      const Access &A = *Shared[IA];
      const Access &B = *Shared[IB];
      if (!A.IsStore && !B.IsStore)
        continue;
      if (TrustSegments && !BI.concurrent(A.Seg, B.Seg))
        continue;

      bool Unresolved = !T.Exhaustive;
      bool Conflict = false;
      unsigned WitnessT1 = 0, WitnessT2 = 0;
      if (T.Exhaustive) {
        for (unsigned Blk = 0; !Conflict && Blk < Shape.NumBlocks; ++Blk) {
          const size_t CtxBase =
              static_cast<size_t>(Blk) * Shape.NumThreads;
          for (unsigned T1 = 0; !Conflict && T1 < Shape.NumThreads; ++T1) {
            for (unsigned T2 = 0; T2 < Shape.NumThreads; ++T2) {
              if (T1 == T2)
                continue;
              if (IA == IB && T1 > T2)
                continue; // Same site: unordered thread pair.
              const uint8_t SA = A.State[CtxBase + T1];
              const uint8_t SB = B.State[CtxBase + T2];
              if (SA == Access::Skip || SB == Access::Skip)
                continue;
              if (SA == Access::MayUnknown || SB == Access::MayUnknown) {
                Unresolved = true;
                continue;
              }
              if (bytesOverlap(A.Addr[CtxBase + T1], A.Bytes,
                               B.Addr[CtxBase + T2], B.Bytes,
                               Shape.SharedSize)) {
                Conflict = true;
                WitnessT1 = T1;
                WitnessT2 = T2;
                break;
              }
            }
          }
        }
      }

      if (Conflict) {
        const bool WW = A.IsStore && B.IsStore;
        R.add(makeFinding(
            K, WW ? "RAC001" : "RAC002", Severity::Error,
            std::string("unordered shared-memory ") +
                (WW ? "write/write" : "write/read") + ": " + siteLabel(A) +
                " (tid " + std::to_string(WitnessT1) + ") and " +
                siteLabel(B) + " (tid " + std::to_string(WitnessT2) +
                ") touch the same bytes in the same barrier interval",
            A.Block, A.Inst, A.OrigAddress));
        Covered[IA] = true;
        Covered[IB] = true;
      } else if (Unresolved) {
        if (A.IsStore || B.IsStore) {
          const size_t Site = A.IsStore ? IA : IB;
          if (!Covered[Site]) {
            Covered[Site] = true;
            const Access &S = *Shared[Site];
            R.add(makeFinding(
                K, "RAC003", Severity::Warning,
                "shared-memory " + siteLabel(S) +
                    " shares a barrier interval with other shared "
                    "accesses and cannot be statically analyzed; "
                    "ordering unproven",
                S.Block, S.Inst, S.OrigAddress));
          }
        }
      }
    }
  }

  countRules(R);
  return R;
}

Report analysis::checkRaces(const ir::Program &P, const LaunchShape &Shape) {
  Report R;
  for (const ir::Kernel &K : P.Kernels)
    R.append(checkRaces(K, Shape));
  return R;
}
