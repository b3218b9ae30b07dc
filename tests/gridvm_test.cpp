//===- tests/gridvm_test.cpp - RefVm/GridVm differential parity -----------===//
//
// The fast tier's correctness argument: for every suite kernel, every
// launch shape and a wide band of randomized inputs, GridVm must be
// bit-identical to the RefVm oracle — same registers, same predicates,
// same final memory, same telemetry counters, and on unsupported input
// the very same error string.

#include "vm/Differ.h"
#include "vm/Vm.h"

#include "analyzer/IsaAnalyzer.h"
#include "ir/Builder.h"
#include "support/TaskPool.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>

using namespace dcb;
using namespace dcb::vm;

namespace {

/// One compiled suite kernel: its IR plus the disassembled listing text
/// (the text drives the warp-size exclusion filter below).
struct CompiledSuiteKernel {
  std::string Name;
  ir::Kernel K;
  std::string Text;
};

std::vector<CompiledSuiteKernel> compileSuite(Arch A) {
  std::vector<CompiledSuiteKernel> Out;
  vendor::NvccSim Nvcc(A);
  for (vendor::KernelBuilder &B : workloads::buildSuite(A)) {
    Expected<vendor::CompiledKernel> Compiled = Nvcc.compileKernel(B);
    EXPECT_TRUE(Compiled.hasValue()) << B.name() << ": " << Compiled.message();
    Expected<std::string> Text =
        vendor::disassembleKernelCode(A, B.name(), Compiled->Section.Code);
    EXPECT_TRUE(Text.hasValue()) << B.name() << ": " << Text.message();
    Expected<analyzer::Listing> L = analyzer::parseListing(
        "code for " + std::string(archName(A)) + "\n" + *Text);
    EXPECT_TRUE(L.hasValue()) << B.name() << ": " << L.message();
    Expected<ir::Kernel> K = ir::buildKernel(A, L->Kernels.front());
    EXPECT_TRUE(K.hasValue()) << B.name() << ": " << K.message();
    Out.push_back({B.name(), K.takeValue(), *Text});
  }
  return Out;
}

/// Asserts two runs produced bit-identical grids: thread state, counters
/// and both memory images.
void expectSameRun(const GridResult &A, const Memory &MemA,
                   const GridResult &B, const Memory &MemB,
                   const std::string &What) {
  ASSERT_EQ(A.Threads.size(), B.Threads.size()) << What;
  for (size_t T = 0; T < A.Threads.size(); ++T) {
    EXPECT_EQ(A.Threads[T].Regs, B.Threads[T].Regs) << What << " thread " << T;
    EXPECT_EQ(A.Threads[T].Preds, B.Threads[T].Preds)
        << What << " thread " << T;
    EXPECT_EQ(A.Threads[T].Steps, B.Threads[T].Steps)
        << What << " thread " << T;
  }
  EXPECT_EQ(A.Issues, B.Issues) << What;
  EXPECT_EQ(A.LaneSteps, B.LaneSteps) << What;
  EXPECT_EQ(A.MemWraps, B.MemWraps) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(MemA.Global, MemB.Global) << What;
  EXPECT_EQ(MemA.Shared, MemB.Shared) << What;
}

} // namespace

// Every suite kernel, on both fully exercised generations, must behave
// identically on the oracle and the fast tier — including kernels the VM
// rejects (reduction's deliberate indirect branch), which must fail with
// the same message on both.
TEST(GridParity, SuiteMatchesOracleBitForBit) {
  for (Arch A : {Arch::SM35, Arch::SM50}) {
    for (const CompiledSuiteKernel &S : compileSuite(A)) {
      LaunchConfig Config;
      Config.NumThreads = 32;
      Config.NumBlocks = 2;

      Memory MemRef = seededMemory(7, Config.NumThreads);
      Memory MemGrid = seededMemory(7, Config.NumThreads);
      Expected<GridResult> R = RefVm().run(S.K, MemRef, Config);
      Expected<GridResult> G = GridVm().run(S.K, MemGrid, Config);

      ASSERT_EQ(R.hasValue(), G.hasValue())
          << archName(A) << "/" << S.Name << ": "
          << (R ? G.message() : R.message());
      if (!R) {
        EXPECT_EQ(R.message(), G.message()) << archName(A) << "/" << S.Name;
        continue;
      }
      expectSameRun(*R, MemRef, *G, MemGrid,
                    std::string(archName(A)) + "/" + S.Name);
    }
  }
}

// The TaskPool lane count is a performance knob, never a semantic one:
// an 8-block launch must produce byte-identical results serialized,
// on 4 lanes and on every hardware thread.
TEST(GridParity, JobsChoiceNeverChangesResults) {
  for (const CompiledSuiteKernel &S : compileSuite(Arch::SM35)) {
    LaunchConfig Config;
    Config.NumThreads = 16;
    Config.NumBlocks = 8;

    Config.NumLanes = 1;
    Memory Mem1 = seededMemory(11, Config.NumThreads);
    Expected<GridResult> R1 = GridVm().run(S.K, Mem1, Config);

    for (unsigned Lanes : {4u, 0u}) {
      Config.NumLanes = Lanes;
      Memory MemN = seededMemory(11, Config.NumThreads);
      Expected<GridResult> RN = GridVm().run(S.K, MemN, Config);
      ASSERT_EQ(R1.hasValue(), RN.hasValue()) << S.Name;
      if (!R1) {
        EXPECT_EQ(R1.message(), RN.message()) << S.Name;
        continue;
      }
      expectSameRun(*R1, Mem1, *RN, MemN,
                    S.Name + " lanes=" + std::to_string(Lanes));
    }
  }
}

// Kernels that never observe the warp shape must compute the same
// per-thread state and memory whether the block is split into warps of 4,
// 8 or 32. Two ways a kernel can observe it: directly (SHFL/VOTE/
// SR_LANEID, filtered on the listing text) or indirectly, by reading
// memory another thread writes with no BAR.SYNC in between — warps run to
// the next barrier in index order, so un-synchronized cross-thread reads
// see more completed writers when warps are smaller. The suite's
// neighbor-stencil kernels are of that second kind and are skipped by
// name; the barrier kernels (matrixMul, lud, scan, ...) stay invariant
// precisely because their communication is barrier-ordered.
TEST(GridParity, WarpSizeInvariantForWarpAgnosticKernels) {
  static const char *const CrossThreadNoBarrier[] = {
      "bfs",       "binomialOptions", "cfd",           "deviceQuery",
      "FDTD3d",    "histogram",       "interval",      "leukocyte",
      "mergeSort", "nbody",           "nn",            "nw",
      "pathfinder", "sortingNetworks", "srad",         "streamcluster",
  };
  for (const CompiledSuiteKernel &S : compileSuite(Arch::SM35)) {
    if (S.Text.find("SHFL") != std::string::npos ||
        S.Text.find("VOTE") != std::string::npos ||
        S.Text.find("SR_LANEID") != std::string::npos)
      continue;
    bool Skip = false;
    for (const char *Name : CrossThreadNoBarrier)
      Skip = Skip || S.Name == Name;
    if (Skip)
      continue;

    LaunchConfig Config;
    Config.NumThreads = 32;
    Config.NumBlocks = 2;

    Config.WarpSize = 32;
    Memory MemBase = seededMemory(13, Config.NumThreads);
    Expected<GridResult> Base = GridVm().run(S.K, MemBase, Config);

    for (unsigned W : {4u, 8u}) {
      Config.WarpSize = W;
      Memory MemW = seededMemory(13, Config.NumThreads);
      Expected<GridResult> RW = GridVm().run(S.K, MemW, Config);
      ASSERT_EQ(Base.hasValue(), RW.hasValue()) << S.Name;
      if (!Base) {
        EXPECT_EQ(Base.message(), RW.message()) << S.Name;
        continue;
      }
      // Issue/barrier counters legitimately differ (more warps issue more
      // instructions); thread state and memory may not.
      const std::string What = S.Name + " warp=" + std::to_string(W);
      ASSERT_EQ(Base->Threads.size(), RW->Threads.size()) << What;
      for (size_t T = 0; T < Base->Threads.size(); ++T) {
        EXPECT_EQ(Base->Threads[T].Regs, RW->Threads[T].Regs)
            << What << " thread " << T;
        EXPECT_EQ(Base->Threads[T].Preds, RW->Threads[T].Preds)
            << What << " thread " << T;
      }
      EXPECT_EQ(MemBase.Global, MemW.Global) << What;
      EXPECT_EQ(MemBase.Shared, MemW.Shared) << What;
    }
  }
}

// The randomized harness itself: >= 100 seeds rotating across the suite,
// each run once on the oracle and once on the fast tier through the same
// execKernel() path diffexec uses. Summaries (state checksums included)
// must agree exactly.
TEST(GridParity, RandomizedDifferentialFuzz) {
  std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM50);
  ASSERT_FALSE(Suite.empty());

  ExecOptions Ref;
  Ref.UseRef = true;
  ExecOptions Grid;
  Grid.NumLanes = 0; // All cores: exercise the concurrent path too.

  for (uint64_t Seed = 1; Seed <= 120; ++Seed) {
    const CompiledSuiteKernel &S = Suite[Seed % Suite.size()];
    ExecSummary A = execKernel(S.K, Seed, Ref);
    ExecSummary B = execKernel(S.K, Seed, Grid);
    const std::string What = S.Name + " seed " + std::to_string(Seed);
    ASSERT_EQ(A.Failed, B.Failed) << What << ": " << A.Error << B.Error;
    if (A.Failed) {
      EXPECT_EQ(A.Error, B.Error) << What;
      continue;
    }
    EXPECT_EQ(A.Issues, B.Issues) << What;
    EXPECT_EQ(A.LaneSteps, B.LaneSteps) << What;
    EXPECT_EQ(A.MemWraps, B.MemWraps) << What;
    EXPECT_EQ(A.Barriers, B.Barriers) << What;
    EXPECT_EQ(A.GlobalCrc, B.GlobalCrc) << What;
    EXPECT_EQ(A.SharedCrc, B.SharedCrc) << What;
    EXPECT_EQ(A.RegsCrc, B.RegsCrc) << What;
  }
}

// Differential smoke for the harness proper: a program diffed against
// itself is clean, and the seeded input image is a pure function of
// (seed, threads).
TEST(GridParity, SeededMemoryIsDeterministic) {
  Memory A = seededMemory(42, 32);
  Memory B = seededMemory(42, 32);
  EXPECT_EQ(A.Global, B.Global);
  EXPECT_EQ(A.Shared, B.Shared);
  EXPECT_EQ(A.ConstBanks, B.ConstBanks);

  Memory C = seededMemory(43, 32);
  EXPECT_NE(A.Global, C.Global); // Different seed, different image.
}

// --- Summary hashes against an independent oracle ---------------------------

namespace {

/// Byte-at-a-time FNV-1a, written here so the check shares no code with
/// the word-folded, chain-interleaved hashing in vm/Differ.cpp.
struct OracleFnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void bytes(const std::vector<uint8_t> &Bytes) {
    for (uint8_t B : Bytes)
      byte(B);
  }
};

} // namespace

// For every suite kernel of the four bench families, execKernel's
// GlobalCrc/SharedCrc/RegsCrc must equal a plain FNV-1a over the final
// state of the same GridVm launch, with the shared watch on and off and on
// one and two lanes. The suite includes kernels that touch local memory
// and kernels that store to shared memory, so the lazily allocated block
// regions are part of what is hashed.
TEST(GridSummaries, HashesMatchAnIndependentOracle) {
  const uint64_t Seed = 3;
  unsigned Checked = 0, LocalKernels = 0, SharedStoreKernels = 0;
  for (Arch A : {Arch::SM20, Arch::SM35, Arch::SM52, Arch::SM61}) {
    for (const CompiledSuiteKernel &S : compileSuite(A)) {
      for (bool Watch : {false, true}) {
        for (unsigned Lanes : {1u, 2u}) {
          ExecOptions Opts;
          Opts.NumLanes = Lanes;
          Opts.WatchShared = Watch;
          const ExecSummary Sum = execKernel(S.K, Seed, Opts);

          LaunchConfig Config;
          Config.NumThreads = Opts.NumThreads;
          Config.NumBlocks = Opts.NumBlocks;
          Config.WarpSize = Opts.WarpSize;
          Config.NumLanes = Lanes;
          Config.Oob = Opts.Oob;
          Config.WatchShared = Watch;
          Memory Mem = seededMemory(Seed, Config.NumThreads);
          Expected<GridResult> R = GridVm().run(S.K, Mem, Config);

          const std::string What = std::string(archName(A)) + "/" + S.Name +
                                   (Watch ? " watch" : "") + " lanes=" +
                                   std::to_string(Lanes);
          ASSERT_EQ(Sum.Failed, !R.hasValue()) << What;
          if (!R) {
            EXPECT_EQ(Sum.Error, R.message()) << What;
            continue;
          }
          OracleFnv Global, Shared, Regs;
          Global.bytes(Mem.Global);
          Shared.bytes(Mem.Shared);
          for (const ThreadResult &T : R->Threads) {
            for (uint32_t V : T.Regs)
              for (unsigned Shift = 0; Shift < 32; Shift += 8)
                Regs.byte(static_cast<uint8_t>(V >> Shift));
            for (bool P : T.Preds)
              Regs.byte(P ? 1 : 0);
          }
          EXPECT_EQ(Sum.GlobalCrc, Global.H) << What;
          EXPECT_EQ(Sum.SharedCrc, Shared.H) << What;
          EXPECT_EQ(Sum.RegsCrc, Regs.H) << What;
          EXPECT_EQ(Sum.LaneSteps, R->LaneSteps) << What;
          EXPECT_EQ(Sum.SharedConflicts, R->SharedConflicts) << What;
          ++Checked;
          if (Watch || Lanes != 1)
            continue;
          LocalKernels += S.Text.find("LDL") != std::string::npos ||
                          S.Text.find("STL") != std::string::npos;
          SharedStoreKernels += S.Text.find("STS") != std::string::npos;
        }
      }
    }
  }
  EXPECT_GT(Checked, 400u);
  EXPECT_GE(LocalKernels, 1u);
  EXPECT_GE(SharedStoreKernels, 1u);
}

// --- The process-wide pool ---------------------------------------------------

namespace {

void expectSameSummary(const ExecSummary &A, const ExecSummary &B,
                       const std::string &What) {
  EXPECT_EQ(A.Failed, B.Failed) << What;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.Issues, B.Issues) << What;
  EXPECT_EQ(A.LaneSteps, B.LaneSteps) << What;
  EXPECT_EQ(A.MemWraps, B.MemWraps) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(A.SharedConflicts, B.SharedConflicts) << What;
  EXPECT_EQ(A.GlobalCrc, B.GlobalCrc) << What;
  EXPECT_EQ(A.SharedCrc, B.SharedCrc) << What;
  EXPECT_EQ(A.RegsCrc, B.RegsCrc) << What;
}

std::vector<ExecSummary> runSuite(const std::vector<CompiledSuiteKernel> &Suite,
                                  const ExecOptions &Opts) {
  std::vector<ExecSummary> Out;
  for (const CompiledSuiteKernel &S : Suite)
    Out.push_back(execKernel(S.K, 5, Opts));
  return Out;
}

/// The `Threads:` line of /proc/self/status, or 0 where there is none.
unsigned processThreadCount() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return static_cast<unsigned>(std::stoul(Line.substr(8)));
  return 0;
}

} // namespace

// Four threads launch the whole suite on two lanes at once. Only one of
// them can hold the process pool at a time; the others run their blocks
// inline. Every summary must equal a serial run's.
TEST(SharedPool, ConcurrentLaunchesMatchASerialRun) {
  const std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM35);
  ExecOptions Serial;
  Serial.WatchShared = true;
  const std::vector<ExecSummary> Expected = runSuite(Suite, Serial);

  ExecOptions Parallel = Serial;
  Parallel.NumLanes = 2;
  std::vector<std::vector<ExecSummary>> Got(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Got.size(); ++T)
    Threads.emplace_back([&, T] { Got[T] = runSuite(Suite, Parallel); });
  for (std::thread &T : Threads)
    T.join();

  for (size_t T = 0; T < Got.size(); ++T) {
    ASSERT_EQ(Got[T].size(), Expected.size());
    for (size_t I = 0; I < Expected.size(); ++I)
      expectSameSummary(Expected[I], Got[T][I],
                        "thread " + std::to_string(T) + " " + Suite[I].Name);
  }
}

// A launch made from inside a task of the process pool finds the pool
// busy with that very batch and runs its blocks inline instead of waiting
// on itself.
TEST(SharedPool, LaunchFromInsideAPoolTaskRunsInline) {
  const std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM35);
  ASSERT_GE(Suite.size(), 4u);
  ExecOptions Opts;
  Opts.NumLanes = 2;
  Opts.NumBlocks = 4;
  std::vector<ExecSummary> Nested(4);
  TaskPool::process().parallelFor(
      Nested.size(),
      [&](unsigned, size_t I) {
        Nested[I] = execKernel(Suite[I].K, 5, Opts);
      },
      2);
  Opts.NumLanes = 1;
  for (size_t I = 0; I < Nested.size(); ++I)
    expectSameSummary(execKernel(Suite[I].K, 5, Opts), Nested[I],
                      Suite[I].Name);
}

// Launches reuse the process pool's workers: after the first two-lane
// launch, 200 more leave the process's thread count unchanged.
TEST(SharedPool, LaunchesDoNotStartThreads) {
  const std::vector<CompiledSuiteKernel> Suite = compileSuite(Arch::SM35);
  ASSERT_FALSE(Suite.empty());
  ExecOptions Opts;
  Opts.NumLanes = 2;
  const ExecSummary First = execKernel(Suite[0].K, 1, Opts);
  const unsigned Before = processThreadCount();
  if (Before == 0)
    GTEST_SKIP() << "no /proc/self/status on this host";
  for (unsigned I = 0; I < 200; ++I)
    expectSameSummary(First, execKernel(Suite[0].K, 1, Opts),
                      "launch " + std::to_string(I));
  EXPECT_EQ(processThreadCount(), Before);
}
