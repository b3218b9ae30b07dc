//===- perfbench/src/Trace.cpp - Spans and per-layer self time ------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

void Tracer::begin(const char *Name) {
  int64_t Rec = -1;
  if (Passes == 0) {
    Rec = static_cast<int64_t>(Records.size());
    Records.push_back({Name, 0, 0, Stack.empty() ? -1 : Stack.back().Record});
  }
  Stack.push_back({Name, nowNs(), 0, Rec});
}

void Tracer::end() {
  uint64_t Now = nowNs();
  Open Top = Stack.back();
  Stack.pop_back();
  uint64_t Dur = Now - Top.Start;
  PassSelfNs[Top.Name] += static_cast<double>(Dur - Top.ChildNs);
  if (!Stack.empty())
    Stack.back().ChildNs += Dur;
  if (Top.Record >= 0) {
    Records[Top.Record].Start = Top.Start;
    Records[Top.Record].End = Now;
    ++FirstCalls[Top.Name];
  }
}

void Tracer::endPass() {
  for (auto &[Name, Ns] : PassSelfNs) {
    std::vector<double> &H = History[Name];
    H.resize(Passes, 0.0); // A layer not entered in an earlier pass.
    H.push_back(Ns / 1e6);
    Ns = 0.0;
  }
  ++Passes;
  for (auto &[Name, H] : History)
    H.resize(Passes, 0.0);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Records.empty() ? 0 : Records.front().Start;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}",
                 I ? "," : "", R.Name, (R.Start - Base) / 1e3,
                 (R.End - R.Start) / 1e3, I,
                 static_cast<long long>(R.Parent));
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Rank - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}
