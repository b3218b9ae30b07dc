//===- perfbench/src/Learn.cpp - The learn workload -----------------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's learn workflow (procExes.sh: analyze -> flip -> genasm ->
// verify), one operation per encoding family, each from a fresh analyzer.
// It is where the analyzer, the flipper, window decode and asmgen do most
// of their work; ir, transform, analysis, vm and serve do none.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analyzer/BitFlipper.h"
#include "asmgen/AssemblerGenerator.h"
#include "asmgen/TableAssembler.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace dcb;
using namespace perfbench;

void perfbench::require(bool Ok, const std::string &What) {
  if (Ok)
    return;
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", What.c_str());
  std::exit(2);
}

const std::vector<Arch> &perfbench::benchArchs() {
  static const std::vector<Arch> Archs = {Arch::SM20, Arch::SM35, Arch::SM52,
                                          Arch::SM61};
  return Archs;
}

elf::Cubin perfbench::compileSuite(Arch A) {
  Expected<elf::Cubin> C = vendor::NvccSim(A).compile(workloads::buildSuite(A));
  require(C.hasValue(), C ? "" : C.message());
  return C.takeValue();
}

KernelCodeMap perfbench::kernelCode(const elf::Cubin &Cubin) {
  KernelCodeMap Code;
  for (const elf::KernelSection &K : Cubin.kernels())
    Code[K.Name] = K.Code;
  return Code;
}

namespace {

/// The structured window decoder `dcb flip` wires into the flipper, with
/// vendor::decodeInstructionAt timed and counted inside the callback.
analyzer::WindowDecoder windowDecoder(Arch A, Tracer *T, uint64_t *Calls) {
  return [A, T, Calls](const std::string &Name, const std::vector<uint8_t> &Code,
                       uint64_t Addr) -> Expected<analyzer::WindowDecode> {
    if (Calls)
      ++*Calls;
    Expected<vendor::DecodedWord> W = [&] {
      Span S(T, "learn.vendor.window_decode");
      return vendor::decodeInstructionAt(A, Name, Code, Addr);
    }();
    if (!W)
      return W.takeError();
    analyzer::WindowDecode D;
    if (!W->IsSchi) {
      D.HasPair = true;
      D.Pair.Address = W->Address;
      D.Pair.Inst = std::move(W->Inst);
      D.Pair.Binary = std::move(W->Word);
    }
    return D;
  };
}

analyzer::BitFlipper makeFlipper(analyzer::IsaAnalyzer &An, Arch A, Tracer *T,
                                 uint64_t *Calls) {
  return analyzer::BitFlipper(
      An,
      [A](const std::string &Name, const std::vector<uint8_t> &Code) {
        return vendor::disassembleKernelCode(A, Name, Code);
      },
      [A](const std::string &Name, const std::vector<uint8_t> &Code,
          uint64_t Addr) {
        return vendor::disassembleInstructionAt(A, Name, Code, Addr);
      },
      windowDecoder(A, T, Calls));
}

std::vector<asmgen::AsmJob> suiteJobs(const analyzer::Listing &L) {
  std::vector<asmgen::AsmJob> Jobs;
  for (const analyzer::ListingKernel &K : L.Kernels)
    for (const analyzer::ListingInst &I : K.Insts)
      Jobs.push_back({&I.Inst, I.Address});
  return Jobs;
}

/// Held-out instances per hidden form, and their fixed seed. The sample
/// does not follow --seed: its failures are counted, and the share of
/// failed operations must be the same in every run.
constexpr unsigned HeldOutPerForm = 20;
constexpr uint64_t HeldOutSeed = 12345;

struct Family {
  Arch A;
  elf::Cubin Suite;
  KernelCodeMap Code;
  HeldOutSample HeldOut;
  std::vector<asmgen::AsmJob> HeldOutJobs;
};

class Learn : public Workload {
public:
  explicit Learn(const Config &C) {
    for (Arch A : benchArchs()) {
      Family F{A, compileSuite(A), {},
               makeHeldOutSample(A, HeldOutPerForm, HeldOutSeed), {}};
      F.Code = kernelCode(F.Suite);
      Families.push_back(std::move(F));
    }
    // The seed orders the families within a pass.
    Rng R(C.Seed);
    for (size_t I = Families.size(); I > 1; --I)
      std::swap(Families[I - 1], Families[R.below(I)]);
    for (Family &F : Families)
      for (size_t I = 0; I < F.HeldOut.Insts.size(); ++I)
        F.HeldOutJobs.push_back({&F.HeldOut.Insts[I], F.HeldOut.Pcs[I]});
  }

  size_t opCount() const override { return Families.size(); }

  void runPass(std::vector<double> &OpMs, Tracer *T, PassResult &R) override {
    uint64_t Calls = 0, Variants = 0, Accepted = 0, CacheHits = 0;
    HeldOutScore Total;
    for (size_t Op = 0; Op < Families.size(); ++Op) {
      const Family &F = Families[Op];
      analyzer::IsaAnalyzer An(F.A);
      Expected<analyzer::Listing> L = Failure("not run");
      std::vector<Expected<BitString>> SuiteWords, HeldWords;
      std::string Source, Error;

      uint64_t Start = nowNs();
      {
        Span OpSpan(T, "learn.op");
        Expected<std::string> Text = [&] {
          Span S(T, "learn.vendor.disasm");
          return vendor::disassembleCubin(F.Suite);
        }();
        if (Text) {
          Span S(T, "learn.analyzer.parse");
          L = analyzer::parseListing(*Text);
        } else {
          Error = Text.message();
        }
        if (L) {
          Span S(T, "learn.analyzer.analyze");
          if (dcb::Error E = An.analyzeListing(*L))
            Error = E.message();
        } else if (Error.empty()) {
          Error = L.message();
        }
        if (Error.empty()) {
          std::vector<analyzer::BitFlipper::RoundStats> Rounds;
          {
            Span S(T, "learn.analyzer.flip");
            Rounds = makeFlipper(An, F.A, T, &Calls).run(F.Code);
          }
          for (const auto &Round : Rounds) {
            Variants += Round.VariantsTried;
            Accepted += Round.Accepted;
            CacheHits += Round.CacheHits;
          }
          const analyzer::EncodingDatabase &Db = An.database();
          {
            Span S(T, "learn.analyzer.freeze");
            Db.freeze();
          }
          {
            Span S(T, "learn.asmgen.genasm");
            Source = asmgen::generateAssemblerSource(Db);
          }
          {
            Span S(T, "learn.asmgen.verify");
            SuiteWords = asmgen::assembleProgram(Db, suiteJobs(*L));
          }
          {
            Span S(T, "learn.asmgen.heldout");
            HeldWords = asmgen::assembleProgram(Db, F.HeldOutJobs);
          }
        }
      }
      OpMs[Op] = (nowNs() - Start) / 1e6;
      R.PassMs += OpMs[Op];

      // One operation per assembled instruction: suite plus held-out.
      size_t SuiteCount = 0;
      if (L)
        for (const analyzer::ListingKernel &K : L->Kernels)
          SuiteCount += K.Insts.size();
      R.Attempted += SuiteCount + F.HeldOut.Insts.size();
      if (!Error.empty() || Source.empty()) {
        R.Failed += SuiteCount + F.HeldOut.Insts.size();
        R.Notes.push_back(std::string("learn: operation failed: ") +
                          archName(F.A) + ": " + Error);
        continue;
      }
      std::string First;
      unsigned Bad = countSuiteMismatches(*L, F.Code, SuiteWords, First);
      if (Bad) {
        R.Failed += Bad;
        R.Wrong.push_back(std::string(archName(F.A)) + ": " +
                          std::to_string(Bad) +
                          " suite instructions not reassembled to the "
                          "cubin's bits, first " + First);
      }
      HeldOutScore S = scoreHeldOut(F.HeldOut, HeldWords);
      R.Failed += S.failures();
      Total.Exact += S.Exact;
      Total.Wrong += S.Wrong;
      Total.Rejected += S.Rejected;
    }
    R.Counters["learn.vendor.window_decode_calls"] = double(Calls);
    R.Counters["learn.analyzer.flip_variants"] = double(Variants);
    R.Counters["learn.analyzer.flip_cache_hits"] = double(CacheHits);
    R.Counters["learn.analyzer.flip_accept_ratio"] =
        Variants ? double(Accepted) / double(Variants) : 0.0;
    R.Counters["learn.heldout.exact"] = Total.Exact;
    R.Counters["learn.heldout.wrong"] = Total.Wrong;
    R.Counters["learn.heldout.rejected"] = Total.Rejected;
  }

private:
  std::vector<Family> Families;
};

} // namespace

analyzer::EncodingDatabase perfbench::learnDatabase(const elf::Cubin &Suite) {
  Expected<std::string> Text = vendor::disassembleCubin(Suite);
  require(Text.hasValue(), Text ? "" : Text.message());
  Expected<analyzer::Listing> L = analyzer::parseListing(*Text);
  require(L.hasValue(), L ? "" : L.message());
  analyzer::IsaAnalyzer An(Suite.arch());
  dcb::Error E = An.analyzeListing(*L);
  require(!E, E.message());
  makeFlipper(An, Suite.arch(), nullptr, nullptr).run(kernelCode(Suite));
  return std::move(An.database());
}

std::unique_ptr<Workload> perfbench::makeLearn(const Config &C) {
  return std::make_unique<Learn>(C);
}
