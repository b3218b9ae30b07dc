//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a fixed script of operations, built in set-up from the
/// seed and replayed in passes from the same state. Main.cpp
/// times each operation's fastest repetition and the fastest pass; a
/// workload reports per pass what it attempted, what failed, what its
/// checks found and the per-layer counts of that pass.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_WORKLOADS_H
#define DCB_PERFBENCH_WORKLOADS_H

#include "Checks.h"
#include "Trace.h"

#include "analyzer/IsaAnalyzer.h"
#include "elf/Cubin.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct PassResult {
  /// Wall time of the script, checks excluded.
  double PassMs = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Wrong outputs of operations that did not fail; any entry makes the
  /// run incorrect.
  std::vector<std::string> Wrong;
  /// Per-layer counts and ratios of this pass, by metric name.
  std::map<std::string, double> Counters;
  /// Notes printed once (e.g. kernels the VM refused in both binaries).
  std::vector<std::string> Notes;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Operations per pass; runPass fills one duration per operation.
  virtual size_t opCount() const = 0;
  /// Runs the whole script once. \p OpMs[i] receives operation i's time.
  /// Checks run outside the timed regions; \p T is null when untraced.
  virtual void runPass(std::vector<double> &OpMs, Tracer *T,
                       PassResult &R) = 0;
  /// Per-layer metrics derived from each operation's fastest repetition.
  virtual void layerFromOps(const std::vector<double> &OpMinMs,
                            std::map<std::string, double> &Layer) const {
    (void)OpMinMs;
    (void)Layer;
  }
};

/// Decode and VM lanes (rewrite) and the daemon's pool width (serve). Two
/// puts the per-call TaskPool cost on the measured path; never 0, which the
/// libraries read as "all cores".
constexpr unsigned kLanes = 2;
static_assert(kLanes > 0, "0 lanes would mean all cores");

struct Config {
  uint64_t Seed = 1;
};

std::unique_ptr<Workload> makeLearn(const Config &C);
std::unique_ptr<Workload> makeRewrite(const Config &C);
std::unique_ptr<Workload> makeServe(const Config &C);

// --- Set-up shared by the workloads and the check tests ----------------------

/// The archs the benchmark runs: sm_20, sm_35, sm_52 and sm_61.
const std::vector<dcb::Arch> &benchArchs();

/// The suite compiled by the oracle for \p A, one cubin holding every kernel.
dcb::elf::Cubin compileSuite(dcb::Arch A);

/// Code bytes per kernel of \p Cubin.
KernelCodeMap kernelCode(const dcb::elf::Cubin &Cubin);

/// The production learn wiring (`dcb analyze` + `dcb flip` at one lane):
/// disassemble \p Suite, analyze the listing, then flip with the structured
/// window decoder. Exits through require() on a pipeline error.
dcb::analyzer::EncodingDatabase learnDatabase(const dcb::elf::Cubin &Suite);

/// Exits with code 2 and a message when \p Ok is false (set-up cannot
/// continue).
void require(bool Ok, const std::string &What);

} // namespace perfbench

#endif // DCB_PERFBENCH_WORKLOADS_H
