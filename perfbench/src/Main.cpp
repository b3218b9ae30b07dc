//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload learn|rewrite|serve --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs and state (a cold set-up, timed from the
// start of main), then replays its script in passes until S seconds have
// gone. setup_s is the fastest of this process's set-up and those of
// kSetupProbes fresh processes of the same binary, run one after another.
// An operation's time is its fastest repetition across the passes and
// pass_ms is the fastest pass: bursts of host noise slow some repetitions
// but rarely all of them, so the minimum measures the program. The last
// line of standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "support/Telemetry.h"
#include "vendor/CuobjdumpSim.h"

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <unistd.h>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},       {"pass_ms", "ms"},     {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, whichever workload exercises it. A traced run
/// reports them all, as the result format requires. Those named after the
/// traced workload, and setup.*, must have been measured or the run is
/// incorrect; those of the other workloads' layers read 0 in every run.
const MetricDef PerLayer[] = {
    {"learn.vendor.disasm_ms", "ms"},
    {"learn.analyzer.parse_ms", "ms"},
    {"learn.analyzer.analyze_ms", "ms"},
    {"learn.analyzer.flip_ms", "ms"},
    {"learn.vendor.window_decode_ms", "ms"},
    {"learn.analyzer.freeze_ms", "ms"},
    {"learn.asmgen.genasm_ms", "ms"},
    {"learn.asmgen.verify_ms", "ms"},
    {"learn.asmgen.heldout_ms", "ms"},
    {"learn.vendor.window_decode_calls", "count"},
    {"learn.analyzer.flip_variants", "count"},
    {"learn.analyzer.flip_cache_hits", "count"},
    {"learn.analyzer.flip_accept_ratio", "ratio"},
    {"learn.heldout.exact", "count"},
    {"learn.heldout.wrong", "count"},
    {"learn.heldout.rejected", "count"},
    {"rewrite.vendor.disasm_ms", "ms"},
    {"rewrite.ir.lift_ms", "ms"},
    {"rewrite.analysis.types_ms", "ms"},
    {"rewrite.analysis.bounds_ms", "ms"},
    {"rewrite.analysis.races_ms", "ms"},
    {"rewrite.transform.passes_ms", "ms"},
    {"rewrite.ir.emit_ms", "ms"},
    {"rewrite.vm.exec_ms", "ms"},
    {"rewrite.analysis.findings", "count"},
    {"rewrite.vm.lane_steps", "count"},
    {"rewrite.vm.lane_steps_per_s", "1/s"},
    {"rewrite.vm.skipped", "count"},
    {"serve.start_ms", "ms"},
    {"serve.first_p50_ms", "ms"},
    {"serve.repeat_p50_ms", "ms"},
    {"serve.disasm_p50_ms", "ms"},
    {"serve.asm_p50_ms", "ms"},
    {"serve.cache.hits", "count"},
    {"serve.cache.misses", "count"},
    {"serve.render_hits", "count"},
    {"serve.hit_ratio", "ratio"},
    {"setup.first_decode_ms", "ms"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload learn|rewrite|serve "
               "--seed N --seconds S --trace 0|1\n",
               Why);
  std::exit(2);
}

uint64_t parseNum(const char *Flag, const char *Text) {
  uint64_t V = 0;
  const char *End = Text + std::strlen(Text);
  auto [P, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || P != End)
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Fresh processes whose cold set-up is timed besides this one's.
constexpr unsigned kSetupProbes = 8;

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [P, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, P) : "0";
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Peak resident memory of this program image (VmHWM), or NaN when it
/// cannot be read. Not ru_maxrss: Linux carries that across execve, so it
/// would report the launcher's peak (run.py's Python, about 17 MB) whenever
/// that is larger than the benchmark's own.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return std::numeric_limits<double>::quiet_NaN();
  char Line[256];
  double Kb = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb / 1024.0;
}

/// The first decode call in a fresh process minus the second: what the
/// first use of the ISA specs costs (building and indexing them).
double firstDecodeMs() {
  const std::vector<uint8_t> Word(8, 0);
  uint64_t T0 = nowNs();
  (void)dcb::vendor::decodeInstructionAt(benchArchs().front(), "probe", Word, 0);
  uint64_t T1 = nowNs();
  (void)dcb::vendor::decodeInstructionAt(benchArchs().front(), "probe", Word, 0);
  uint64_t T2 = nowNs();
  return (static_cast<double>(T1 - T0) - static_cast<double>(T2 - T1)) / 1e6;
}

/// One cold set-up: the first spec use, then the workload's inputs and state.
std::unique_ptr<Workload> setUp(const std::string &Name, const Config &Cfg,
                                double &FirstDecodeMs) {
  FirstDecodeMs = firstDecodeMs();
  if (Name == "learn")
    return makeLearn(Cfg);
  if (Name == "rewrite")
    return makeRewrite(Cfg);
  if (Name == "serve")
    return makeServe(Cfg);
  usage(("unknown workload " + Name).c_str());
}

/// Runs kSetupProbes cold set-ups, each in a fresh process of this binary
/// (started with `--probe 1` added to \p Argv), one after another, each
/// pinned in turn to one of \p Cpus. Returns their set-up times in seconds.
/// A set-up in this process after the first would be warm; a fresh process
/// is cold, as every user's first command is. The fastest of them measures
/// the program rather than the host's slowest moments or virtual CPUs.
std::vector<double> probeSetups(int Argc, char **Argv,
                                const std::vector<int> &Cpus) {
  std::vector<char *> Args(Argv, Argv + Argc);
  char ProbeFlag[] = "--probe", One[] = "1";
  Args.push_back(ProbeFlag);
  Args.push_back(One);
  Args.push_back(nullptr);
  std::vector<double> Times;
  for (unsigned I = 0; I < kSetupProbes; ++I) {
    int Pipe[2];
    require(::pipe(Pipe) == 0, "pipe for a set-up probe");
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[I % Cpus.size()], &Set);
    pid_t Pid = ::fork();
    require(Pid >= 0, "fork for a set-up probe");
    if (Pid == 0) {
      // Only async-signal-safe calls until execv: the parent may have
      // threads (the serve daemon's).
      ::sched_setaffinity(0, sizeof(Set), &Set);
      ::dup2(Pipe[1], STDOUT_FILENO);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      ::execv("/proc/self/exe", Args.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    std::string Out;
    char Buf[256];
    for (ssize_t N; (N = ::read(Pipe[0], Buf, sizeof(Buf))) != 0;) {
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0)
        break;
      Out.append(Buf, static_cast<size_t>(N));
    }
    ::close(Pipe[0]);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    char *End = nullptr;
    double S = std::strtod(Out.c_str(), &End);
    require(WIFEXITED(Status) && WEXITSTATUS(Status) == 0 &&
                End != Out.c_str() && S > 0,
            "set-up probe " + std::to_string(I) + " failed");
    Times.push_back(S);
  }
  return Times;
}

void writeLayerTable(std::FILE *F, const std::string &Workload,
                     const Tracer &T, double TracedPassMs, unsigned Passes) {
  std::fprintf(F,
               "perfbench %s traced run: %u passes, fastest traced pass "
               "%.3f ms\n%-34s %12s %8s %12s\n",
               Workload.c_str(), Passes, TracedPassMs, "span (self time)",
               "ms/pass", "share", "calls/pass");
  double Total = 0;
  for (const auto &[Name, H] : T.history())
    Total += median(H);
  for (const auto &[Name, H] : T.history()) {
    auto Calls = T.firstPassCalls().find(Name);
    std::fprintf(F, "%-34s %12.3f %7.1f%% %12llu\n", Name.c_str(), median(H),
                 Total > 0 ? 100.0 * median(H) / Total : 0.0,
                 static_cast<unsigned long long>(
                     Calls == T.firstPassCalls().end() ? 0 : Calls->second));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t ProcessStart = nowNs();

  std::string WorkloadName;
  uint64_t Seconds = 0;
  int Trace = -1;
  bool HaveSeed = false, Probe = false;
  Config Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      WorkloadName = V;
    else if (Flag == "--seed")
      Cfg.Seed = parseNum("--seed", V), HaveSeed = true;
    else if (Flag == "--seconds")
      Seconds = parseNum("--seconds", V);
    else if (Flag == "--trace")
      Trace = static_cast<int>(parseNum("--trace", V));
    else if (Flag == "--probe")
      Probe = parseNum("--probe", V) != 0;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (WorkloadName.empty() || !HaveSeed || Seconds == 0 ||
      (Trace != 0 && Trace != 1))
    usage("--workload, --seed, --seconds (> 0) and --trace 0|1 are required");

  if (Probe) {
    // A set-up probe (see probeSetups): print the cold set-up time only.
    double Unused;
    std::unique_ptr<Workload> W = setUp(WorkloadName, Cfg, Unused);
    std::printf("%.9f\n", (nowNs() - ProcessStart) / 1e9);
    return 0;
  }

  // Provenance, and the builds and settings whose numbers would mislead.
  const std::vector<int> Cpus = allowedCpus();
  dcb::telemetry::BuildInfo Build = dcb::telemetry::buildInfo();
  std::printf("perfbench provenance: workload=%s seed=%llu host_cpus=%zu "
              "build=%s telemetry=%s rev=%s\n",
              WorkloadName.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cpus.size(), Build.BuildType.c_str(), Build.Telemetry.c_str(),
              Build.GitRev.c_str());
  std::fflush(stdout);
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions enabled\n");
  return 3;
#endif
  if (Build.BuildType != "release") {
    std::fprintf(stderr, "perfbench: refusing libraries built with "
                         "assertions enabled (build=%s)\n",
                 Build.BuildType.c_str());
    return 3;
  }
  if (kLanes > Cpus.size()) {
    std::fprintf(stderr, "perfbench: refusing %u lanes on %zu CPUs\n", kLanes,
                 Cpus.size());
    return 3;
  }

  double FirstDecodeMs = 0;
  std::unique_ptr<Workload> W = setUp(WorkloadName, Cfg, FirstDecodeMs);
  double SetupS = (nowNs() - ProcessStart) / 1e9;
  if (!Trace) {
    std::fflush(stdout);
    for (double S : probeSetups(Argc, Argv, Cpus))
      SetupS = std::min(SetupS, S);
  }

  Tracer Tr;
  Tracer *T = Trace ? &Tr : nullptr;
  const size_t NumOps = W->opCount();
  std::vector<double> OpMs(NumOps), OpMin(
      NumOps, std::numeric_limits<double>::infinity());
  double PassMin = std::numeric_limits<double>::infinity();
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Wrong;
  std::set<std::string> Notes;
  std::map<std::string, std::vector<double>> Counters;
  unsigned Passes = 0;
  const uint64_t Deadline = nowNs() + Seconds * 1000000000ull;
  do {
    PassResult R;
    std::fill(OpMs.begin(), OpMs.end(), 0.0);
    W->runPass(OpMs, T, R);
    if (T)
      T->endPass();
    ++Passes;
    PassMin = std::min(PassMin, R.PassMs);
    for (size_t I = 0; I < NumOps; ++I)
      OpMin[I] = std::min(OpMin[I], OpMs[I]);
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (std::string &S : R.Wrong)
      if (Wrong.size() < 20)
        Wrong.push_back(std::move(S));
    Notes.insert(R.Notes.begin(), R.Notes.end());
    for (const auto &[Name, V] : R.Counters)
      Counters[Name].push_back(V);
  } while (nowNs() < Deadline || Passes < 2);

  std::map<std::string, double> Values;
  if (!Trace) {
    Values["setup_s"] = SetupS;
    Values["pass_ms"] = PassMin;
    Values["op_p50_ms"] = quantile(OpMin, 0.5);
    Values["op_p90_ms"] = quantile(OpMin, 0.9);
    Values["peak_rss_mb"] = peakRssMb();
  } else {
    for (const auto &[Name, H] : Tr.history())
      Values[Name + "_ms"] = median(H);
    for (const auto &[Name, V] : Counters)
      Values[Name] = median(V);
    W->layerFromOps(OpMin, Values);
    Values["setup.first_decode_ms"] = FirstDecodeMs;

    ::mkdir(".bench_out", 0755);
    std::string Base =
        ".bench_out/" + WorkloadName + "-seed" + std::to_string(Cfg.Seed);
    bool Ok = Tr.writeChromeTrace(Base + ".trace.json");
    std::FILE *F = std::fopen((Base + ".layers.txt").c_str(), "w");
    if (F) {
      writeLayerTable(F, WorkloadName, Tr, PassMin, Passes);
      Ok = std::fclose(F) == 0 && Ok;
    }
    writeLayerTable(stderr, WorkloadName, Tr, PassMin, Passes);
    std::fprintf(stderr, "perfbench: %s %s.trace.json and .layers.txt\n",
                 Ok && F ? "wrote" : "could not write", Base.c_str());
  }

  // Every end-to-end metric, and every per-layer metric of this workload's
  // own layers, must have a value. A missing one means a span was never
  // entered or a counter never set: the run measured less than it claims.
  for (const MetricDef &M : Trace ? std::span<const MetricDef>(PerLayer)
                                  : std::span<const MetricDef>(EndToEnd)) {
    std::string Name = M.Name;
    if (Trace && Name.rfind(WorkloadName + ".", 0) != 0 &&
        Name.rfind("setup.", 0) != 0)
      continue;
    auto It = Values.find(Name);
    if (It == Values.end() || !std::isfinite(It->second))
      Wrong.push_back("metric " + Name + " was not measured");
  }

  for (const std::string &N : Notes)
    std::fprintf(stderr, "%s\n", N.c_str());
  for (const std::string &S : Wrong)
    std::fprintf(stderr, "perfbench: WRONG: %s\n", S.c_str());

  std::string Out = "{\"correct\": ";
  Out += Wrong.empty() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool FirstMetric = true;
  auto Emit = [&](const MetricDef &M) {
    auto It = Values.find(M.Name);
    Out += std::string(FirstMetric ? "" : ", ") + "\"" + M.Name +
           "\": {\"value\": " + number(It == Values.end() ? 0 : It->second) +
           ", \"unit\": \"" + M.Unit + "\"}";
    FirstMetric = false;
  };
  if (Trace)
    for (const MetricDef &M : PerLayer)
      Emit(M);
  else
    for (const MetricDef &M : EndToEnd)
      Emit(M);
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
