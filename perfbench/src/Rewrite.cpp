//===- perfbench/src/Rewrite.cpp - The rewrite workload -------------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The §V tool chain, one operation per suite kernel compiled as its own
// cubin, for the four families: disassemble at kLanes lanes, lift to IR,
// run the typed analyses, clear registers before exit through the
// verified pass pipeline (as `dcb instrument` does), emit with the
// family's learned database, and run the original and the rewritten kernel
// on GridVm. The VM, typed analysis, ir, transform and the encode side of
// asmgen work here and nowhere else.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/TypeInference.h"
#include "analysis/TypedCheckers.h"
#include "ir/Builder.h"
#include "ir/Layout.h"
#include "support/Rng.h"
#include "transform/Passes.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vm/Differ.h"
#include "workloads/Suite.h"

#include <set>

using namespace dcb;
using namespace perfbench;

namespace {

/// VM input seeds per kernel, and the fixed seed they are drawn from. With
/// one, the VM is about a third of a pass and the smaller layers stay
/// visible. The inputs do not follow --seed: they hold the loop bounds of
/// several suite kernels, and drawn from --seed they moved the VM's work
/// per pass by up to 50% between seeds (5.6 to 8.4 M lane steps).
constexpr unsigned VmSeeds = 1;
constexpr uint64_t VmInputSeed = 12345;

/// The registers `dcb instrument --clear-regs 9,10` clears before exit.
const std::vector<unsigned> ClearRegs = {9, 10};

struct Image {
  Arch A;
  std::string Kernel;
  std::vector<uint8_t> Bytes;
  KernelCodeMap Code;
  const analyzer::EncodingDatabase *Db;
  std::vector<uint64_t> VmSeeds;
};

bool hasRule(const analysis::Report &R, const char *A, const char *B) {
  for (const analysis::Finding &F : R.Findings)
    if (F.Rule == A || F.Rule == B)
      return true;
  return false;
}

class Rewrite : public Workload {
public:
  explicit Rewrite(const Config &C) {
    Rng Inputs(VmInputSeed);
    for (Arch A : benchArchs())
      Dbs.emplace_back(learnDatabase(compileSuite(A)));
    for (size_t F = 0; F < benchArchs().size(); ++F) {
      Arch A = benchArchs()[F];
      vendor::NvccSim Nvcc(A);
      for (const vendor::KernelBuilder &KB : workloads::buildSuite(A)) {
        Expected<elf::Cubin> Cubin = Nvcc.compile({KB});
        require(Cubin.hasValue(), Cubin ? "" : Cubin.message());
        std::vector<uint64_t> Seeds;
        for (unsigned I = 0; I < VmSeeds; ++I)
          Seeds.push_back(Inputs.next());
        Images.push_back({A, KB.name(), Cubin->serialize(), kernelCode(*Cubin),
                          &Dbs[F], std::move(Seeds)});
      }
    }
    // The seed orders the kernels within a pass.
    Rng R(C.Seed);
    for (size_t I = Images.size(); I > 1; --I)
      std::swap(Images[I - 1], Images[R.below(I)]);
  }

  size_t opCount() const override { return Images.size(); }

  void runPass(std::vector<double> &OpMs, Tracer *T, PassResult &R) override {
    uint64_t Findings = 0, LaneSteps = 0, VmNs = 0;
    std::set<std::string> Skipped;
    vm::ExecOptions Exec;
    Exec.NumBlocks = 2;
    Exec.NumLanes = kLanes;
    Exec.Oob = vm::OobPolicy::Fault;
    Exec.WatchShared = true;

    for (size_t Op = 0; Op < Images.size(); ++Op) {
      const Image &Img = Images[Op];
      std::string Error;
      Expected<analyzer::Listing> L = Failure("not run");
      Expected<ir::Program> P = Failure("not run");
      ir::Program Original;
      std::vector<analysis::Report> Bounds, Races;
      Expected<std::vector<uint8_t>> NewImage = Failure("not run");
      // Per kernel and seed: original then rewritten summaries.
      std::vector<std::vector<vm::ExecSummary>> Runs;

      uint64_t Start = nowNs();
      {
        Span OpSpan(T, "rewrite.op");
        vendor::DisasmOptions DO;
        DO.NumThreads = kLanes;
        Expected<std::string> Text = [&] {
          Span S(T, "rewrite.vendor.disasm");
          return vendor::disassembleImage(Img.Bytes, DO);
        }();
        if (Text) {
          Span S(T, "rewrite.ir.lift");
          L = analyzer::parseListing(*Text);
          if (L)
            P = ir::buildProgram(*L);
        }
        if (!Text)
          Error = Text.message();
        else if (!L)
          Error = L.message();
        else if (!P)
          Error = P.message();
        if (Error.empty()) {
          for (const ir::Kernel &K : P->Kernels) {
            {
              Span S(T, "rewrite.analysis.types");
              analysis::inferTypes(K);
            }
            {
              Span S(T, "rewrite.analysis.bounds");
              Bounds.push_back(analysis::checkBounds(K));
            }
            {
              Span S(T, "rewrite.analysis.races");
              Races.push_back(analysis::checkRaces(K));
            }
          }
          Original = *P;
          transform::PipelineOptions PO; // Verify on, as `dcb instrument`.
          std::vector<transform::Pass> Pipeline = {
              {"clear-regs", [](ir::Kernel &K) {
                 transform::clearRegistersBeforeExit(K, ClearRegs);
               }}};
          for (ir::Kernel &K : P->Kernels) {
            Span S(T, "rewrite.transform.passes");
            transform::PipelineResult PR =
                transform::runPasses(K, Pipeline, PO);
            if (!PR.ok())
              Error = K.Name + ": verifier: " + PR.Verification.toText();
          }
        }
        if (Error.empty()) {
          Span S(T, "rewrite.ir.emit");
          NewImage = ir::emitProgram(*Img.Db, *P, Img.Bytes);
          if (!NewImage)
            Error = NewImage.message();
        }
        if (Error.empty()) {
          Span S(T, "rewrite.vm.exec");
          uint64_t VmStart = nowNs();
          for (size_t K = 0; K < P->Kernels.size(); ++K) {
            Runs.emplace_back();
            for (uint64_t Seed : Img.VmSeeds) {
              Runs.back().push_back(
                  vm::execKernel(Original.Kernels[K], Seed, Exec));
              Runs.back().push_back(vm::execKernel(P->Kernels[K], Seed, Exec));
            }
          }
          VmNs += nowNs() - VmStart;
        }
      }
      OpMs[Op] = (nowNs() - Start) / 1e6;
      R.PassMs += OpMs[Op];

      ++R.Attempted;
      if (!Error.empty()) {
        ++R.Failed;
        R.Notes.push_back("rewrite: operation failed: " + Img.Kernel + " (" +
                          archName(Img.A) + "): " + Error);
        continue;
      }
      for (const analysis::Report &Rep : Bounds)
        Findings += Rep.Findings.size();
      for (const analysis::Report &Rep : Races)
        Findings += Rep.Findings.size();
      std::string Wrong = check(Img, *L, *P, Bounds, Races, *NewImage, Runs,
                                Skipped, LaneSteps);
      if (!Wrong.empty())
        R.Wrong.push_back(Img.Kernel + " (" + archName(Img.A) + "): " + Wrong);
    }
    R.Counters["rewrite.analysis.findings"] = double(Findings);
    R.Counters["rewrite.vm.lane_steps"] = double(LaneSteps);
    R.Counters["rewrite.vm.lane_steps_per_s"] =
        VmNs ? double(LaneSteps) / (VmNs / 1e9) : 0.0;
    R.Counters["rewrite.vm.skipped"] = double(Skipped.size());
    for (const std::string &S : Skipped)
      R.Notes.push_back("rewrite: VM refused in both binaries, counted as "
                        "skipped: " + S);
  }

private:
  /// The checks of one operation, made apart from the code under test.
  std::string check(const Image &Img, const analyzer::Listing &L,
                    const ir::Program &P,
                    const std::vector<analysis::Report> &Bounds,
                    const std::vector<analysis::Report> &Races,
                    const std::vector<uint8_t> &NewImage,
                    const std::vector<std::vector<vm::ExecSummary>> &Runs,
                    std::set<std::string> &Skipped, uint64_t &LaneSteps) {
    if (std::string E = checkListingAgainstCode(L, Img.Code); !E.empty())
      return "disassembly: " + E;
    Expected<elf::Cubin> New = elf::Cubin::deserialize(NewImage);
    if (!New)
      return "rewritten cubin does not load: " + New.message();
    for (const ir::Kernel &K : P.Kernels) {
      const elf::KernelSection *S = New->findKernel(K.Name);
      if (!S)
        return "rewritten cubin lacks kernel " + K.Name;
      if (std::string E = checkRewrittenKernel(K, S->Code); !E.empty())
        return "rewritten code: " + E;
    }
    for (size_t K = 0; K < Runs.size(); ++K) {
      const std::string &Name = P.Kernels[K].Name;
      for (size_t I = 0; I + 1 < Runs[K].size(); I += 2) {
        const vm::ExecSummary &O = Runs[K][I], &N = Runs[K][I + 1];
        LaneSteps += O.LaneSteps + N.LaneSteps;
        if (O.Failed || N.Failed) {
          if (O.Failed != N.Failed || O.Error != N.Error)
            return Name + ": VM outcome differs: original '" + O.Error +
                   "', rewritten '" + N.Error + "'";
          if (O.Error.find("out-of-bounds") != std::string::npos) {
            if (!hasRule(Bounds[K], "MEM001", "MEM002"))
              return Name + ": VM faulted (" + O.Error +
                     ") without a MEM001/MEM002 finding";
          } else {
            Skipped.insert(std::string(archName(Img.A)) + " " + Name + ": " +
                           O.Error);
          }
          continue;
        }
        if (O.GlobalCrc != N.GlobalCrc || O.SharedCrc != N.SharedCrc)
          return Name + ": rewritten kernel leaves different memory";
        if (O.SharedConflicts > 0 && Races[K].Findings.empty())
          return Name + ": VM saw " + std::to_string(O.SharedConflicts) +
                 " unordered shared accesses without a RAC finding";
      }
    }
    return "";
  }

  std::vector<analyzer::EncodingDatabase> Dbs;
  std::vector<Image> Images;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeRewrite(const Config &C) {
  return std::make_unique<Rewrite>(C);
}
