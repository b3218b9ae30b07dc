//===- perfbench/src/Checks.h - Output checks apart from the code -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checks. Each compares what the code under
/// test produced with ground truth that does not come from it: the words
/// of cubins compiled by the oracle (vendor::NvccSim), and the oracle
/// encoder and decoder (encoder::encodeInstruction, vendor's decoder),
/// which the learned assembler, the IR and the server never call. A check
/// returns an empty string when the output is right and otherwise a
/// one-line description of the first problem.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_CHECKS_H
#define DCB_PERFBENCH_CHECKS_H

#include "Wire.h"

#include "analyzer/IsaAnalyzer.h"
#include "analyzer/Listing.h"
#include "ir/Ir.h"
#include "support/BitString.h"
#include "support/Errors.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Code bytes of each kernel of one cubin, by kernel name.
using KernelCodeMap = std::map<std::string, std::vector<uint8_t>>;

/// The \p Bits-wide word at byte \p Addr of \p Code, if it lies inside.
std::optional<dcb::BitString> wordAt(const std::vector<uint8_t> &Code,
                                     uint64_t Addr, unsigned Bits);

/// Every instruction of \p L, re-encoded by the oracle encoder, gives back
/// its word in \p Code, and every word of every kernel in \p Code is shown
/// exactly once (as an instruction or a SCHI line).
std::string checkListingAgainstCode(const dcb::analyzer::Listing &L,
                                    const KernelCodeMap &Code);

/// The oracle's decoding of the rewritten kernel code \p Code matches the
/// transformed IR \p K instruction by instruction (branch targets resolved
/// to the emitted block addresses, tail padding only NOPs), each decoded
/// word re-encodes to itself, and each SCHI word carries the IR's control
/// information.
std::string checkRewrittenKernel(const dcb::ir::Kernel &K,
                                 const std::vector<uint8_t> &Code);

/// The words `asm` must return for a listing of \p Code's instructions at
/// \p InstAddresses: the oracle-compiled words themselves, one "0x<hex>"
/// line each.
std::string expectedAsmOutput(const std::vector<uint8_t> &Code,
                              const std::vector<uint64_t> &InstAddresses,
                              unsigned WordBits);

/// A served `asm` reply is ok, has no per-instruction errors and its
/// output equals \p Expected.
std::string checkAsmReply(const JsonValue &Reply, const std::string &Expected);

/// A served `disasm` reply is ok and its listing passes
/// checkListingAgainstCode against the request's code words.
std::string checkDisasmReply(const JsonValue &Reply, const KernelCodeMap &Code);

/// Held-out instances of every hidden form of one architecture, with the
/// oracle encoder's bits as the reference.
struct HeldOutSample {
  std::vector<dcb::sass::Instruction> Insts;
  std::vector<uint64_t> Pcs;
  std::vector<dcb::BitString> Ref;
  unsigned Unencodable = 0; ///< Generated instances the oracle refused.
};
HeldOutSample makeHeldOutSample(dcb::Arch A, unsigned PerForm, uint64_t Seed);

struct HeldOutScore {
  unsigned Exact = 0, Wrong = 0, Rejected = 0;
  unsigned failures() const { return Wrong + Rejected; }
};
/// Scores the learned assembler's \p Words (in sample order) against the
/// oracle's bits: accepted-but-different is Wrong, an error is Rejected.
HeldOutScore scoreHeldOut(const HeldOutSample &S,
                          const std::vector<dcb::Expected<dcb::BitString>> &Words);

/// Counts the suite instructions (listing order, \p Words from the learned
/// assembler) whose bits are not the oracle-compiled cubin's; the first
/// problem goes to \p First.
unsigned countSuiteMismatches(
    const dcb::analyzer::Listing &L, const KernelCodeMap &Code,
    const std::vector<dcb::Expected<dcb::BitString>> &Words,
    std::string &First);

} // namespace perfbench

#endif // DCB_PERFBENCH_CHECKS_H
