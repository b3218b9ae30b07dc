//===- perfbench/src/Trace.h - Spans and per-layer self time ----*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are opened and closed by the
/// benchmark's own code around each call into a library layer; the
/// libraries themselves are not instrumented. A layer's self time is its
/// span's duration minus the time covered by its child spans, summed per
/// pass. Spans of the first pass are kept in memory with their parent and
/// written at the end as a Chrome `trace_event` file; later passes only
/// feed the per-pass self-time sums, so memory stays bounded.
///
/// Single-threaded: every span is opened on the thread that drives the
/// workload (the flipper runs at one lane, so its decoder callback does too).
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_TRACE_H
#define DCB_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
public:
  /// Opens a span. \p Name must be a string literal (it is keyed by
  /// address and referenced after the call).
  void begin(const char *Name);
  void end();

  /// Closes the current pass: folds its per-name self times (ms) into
  /// history() and stops keeping span records after the first pass.
  void endPass();

  /// Per span name, one self-time sum (ms) per completed pass.
  const std::map<std::string, std::vector<double>> &history() const {
    return History;
  }
  /// Per span name, the number of spans closed in the first pass.
  const std::map<std::string, uint64_t> &firstPassCalls() const {
    return FirstCalls;
  }

  /// Writes the first pass's spans as a Chrome trace_event document.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Open {
    const char *Name;
    uint64_t Start;
    uint64_t ChildNs;
    int64_t Record; ///< Index into Records, or -1 when not kept.
  };
  struct Record {
    const char *Name;
    uint64_t Start = 0, End = 0;
    int64_t Parent = -1;
  };
  std::vector<Open> Stack;
  std::vector<Record> Records;
  std::map<const char *, double> PassSelfNs;
  std::map<std::string, std::vector<double>> History;
  std::map<std::string, uint64_t> FirstCalls;
  unsigned Passes = 0;
};

/// RAII span; a null tracer makes it free apart from one branch, which is
/// what the untraced (end-to-end) runs pay.
class Span {
public:
  Span(Tracer *T, const char *Name) : T(T) {
    if (T)
      T->begin(Name);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

/// Linear-interpolated quantile (0 <= Q <= 1) of \p Values, the same
/// definition as Python's statistics.quantiles(method="inclusive").
double quantile(std::vector<double> Values, double Q);

} // namespace perfbench

#endif // DCB_PERFBENCH_TRACE_H
