//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// An in-process `dcb serve` daemon on loopback, fresh for every pass: a
// learned sm_35 database, a request pool kLanes wide, a cold cache and no
// persistence. One client thread keeps two closed-loop connections (each
// sends its next line only after its reply) over a seeded script of
// `disasm` and `asm` lines, 60% of which repeat an earlier line. The mix is
// assumed, not taken from recorded traffic (see README.md). The reactor,
// the result cache and the render memo work only here; decode and encode
// run only on misses.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "isa/Spec.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "vendor/CuobjdumpSim.h"
#include "vendor/NvccSim.h"
#include "vendor/SampleGen.h"
#include "workloads/Suite.h"

#include <poll.h>

#include <algorithm>
#include <optional>

using namespace dcb;
using namespace perfbench;

namespace {

/// Seeded random straight-line kernels added to the suite kernels, and
/// their length in instructions.
constexpr unsigned RandomKernels = 16;
constexpr unsigned RandomLength = 40;

struct Line {
  std::string Text;
  bool IsAsm = false;
  KernelCodeMap Code;      ///< disasm: the request's code words.
  std::string ExpectAsm;   ///< asm: the oracle's words.
};

class Serve : public Workload {
public:
  explicit Serve(const Config &C) {
    Db = learnDatabase(compileSuite(Arch::SM35));
    Rng R(C.Seed);
    for (Arch A : benchArchs()) {
      vendor::NvccSim Nvcc(A);
      for (const vendor::KernelBuilder &KB : workloads::buildSuite(A)) {
        addKernel(Nvcc, KB, /*Asm=*/false);
        if (A == Arch::SM35)
          addKernel(Nvcc, KB, /*Asm=*/true);
      }
    }
    for (unsigned I = 0; I < RandomKernels; ++I) {
      Arch A = benchArchs()[I % benchArchs().size()];
      std::vector<sass::Instruction> Program =
          vendor::randomStraightLineProgram(isa::getArchSpec(A), R,
                                            RandomLength);
      vendor::KernelBuilder KB("random" + std::to_string(I), A);
      for (sass::Instruction &Inst : Program)
        KB.ins(Inst);
      KB.exit();
      addKernel(vendor::NvccSim(A), KB, /*Asm=*/false);
    }

    // The script: every distinct line once, in seeded order, interleaved
    // with 1.5 times as many repeats, each of an earlier line drawn with a
    // skew towards the lines sent first. With 60% repeats the median
    // operation lies inside the repeat population and p90 inside the
    // misses; at exactly half, the median would interpolate between the
    // slowest hit and the fastest miss.
    const size_t N = Lines.size();
    std::vector<size_t> Order(N);
    for (size_t I = 0; I < N; ++I)
      Order[I] = I;
    std::vector<bool> IsRepeat(N + N * 3 / 2, true);
    std::fill(IsRepeat.begin(), IsRepeat.begin() + N, false);
    shuffle(Order, R);
    shuffle(IsRepeat, R);
    auto FirstNew = std::find(IsRepeat.begin(), IsRepeat.end(), false);
    std::iter_swap(IsRepeat.begin(), FirstNew);
    size_t Sent = 0;
    std::vector<unsigned> Seen(N, 0);
    for (bool Repeat : IsRepeat) {
      size_t Id;
      if (Repeat) {
        double U = static_cast<double>(R.next() >> 11) / 9007199254740992.0;
        Id = Order[static_cast<size_t>(static_cast<double>(Sent) * U * U)];
      } else {
        Id = Order[Sent++];
      }
      Script.push_back({Id, Seen[Id]++ == 0});
    }

    startServer();
  }

  size_t opCount() const override { return Script.size(); }

  void runPass(std::vector<double> &OpMs, Tracer *T, PassResult &R) override {
    if (!Fresh)
      startServer();
    Fresh = false;
    std::vector<std::string> Replies(Script.size());
    R.Attempted += Script.size();
    uint64_t Start = nowNs();
    {
      Span PassSpan(T, "serve.pass");
      if (!drive(OpMs, Replies)) {
        R.Failed += Script.size();
        R.Notes.push_back("serve: connection to the daemon failed");
        Server.reset();
        return;
      }
    }
    R.PassMs = (nowNs() - Start) / 1e6;

    std::string StatsLine;
    std::optional<JsonValue> Stats;
    if (Conns[0]->send("{\"op\":\"stats\"}") && Conns[0]->recvLine(StatsLine))
      Stats = parseJson(StatsLine);
    Conns.clear();
    Server.reset();

    for (size_t I = 0; I < Script.size(); ++I) {
      const Line &L = Lines[Script[I].Id];
      std::optional<JsonValue> Reply = parseJson(Replies[I]);
      std::string Wrong =
          !Reply ? "reply is not JSON"
          : L.IsAsm ? checkAsmReply(*Reply, L.ExpectAsm)
                    : checkDisasmReply(*Reply, L.Code);
      if (!Wrong.empty())
        R.Wrong.push_back("serve: line " + std::to_string(I) + ": " + Wrong);
    }
    double Hits = Stats ? Stats->num("cache", "hits") : -1;
    double Misses = Stats ? Stats->num("cache", "misses") : -1;
    double Memo = Stats ? Stats->num("render", "hits") : -1;
    if (Hits + Misses + Memo != static_cast<double>(Script.size()))
      R.Wrong.push_back("serve: daemon counted " + std::to_string(Hits) +
                        " hits + " + std::to_string(Misses) + " misses + " +
                        std::to_string(Memo) + " memo hits for " +
                        std::to_string(Script.size()) + " lines");
    R.Counters["serve.start_ms"] = StartMs;
    R.Counters["serve.cache.hits"] = Hits;
    R.Counters["serve.cache.misses"] = Misses;
    R.Counters["serve.render_hits"] = Memo;
    R.Counters["serve.hit_ratio"] =
        (Hits + Memo) / static_cast<double>(Script.size());
  }

  void layerFromOps(const std::vector<double> &OpMinMs,
                    std::map<std::string, double> &Layer) const override {
    std::vector<double> First, Repeat, Disasm, Asm;
    for (size_t I = 0; I < Script.size(); ++I) {
      (Script[I].First ? First : Repeat).push_back(OpMinMs[I]);
      (Lines[Script[I].Id].IsAsm ? Asm : Disasm).push_back(OpMinMs[I]);
    }
    Layer["serve.first_p50_ms"] = quantile(First, 0.5);
    Layer["serve.repeat_p50_ms"] = quantile(Repeat, 0.5);
    Layer["serve.disasm_p50_ms"] = quantile(Disasm, 0.5);
    Layer["serve.asm_p50_ms"] = quantile(Asm, 0.5);
  }

private:
  struct Step {
    size_t Id;
    bool First; ///< First occurrence of the line in the script.
  };

  template <typename T> static void shuffle(std::vector<T> &V, Rng &R) {
    for (size_t I = V.size(); I > 1; --I) {
      size_t J = R.below(I);
      T Tmp = V[I - 1];
      V[I - 1] = V[J];
      V[J] = Tmp;
    }
  }

  void addKernel(const vendor::NvccSim &Nvcc, const vendor::KernelBuilder &KB,
                 bool Asm) {
    Expected<vendor::CompiledKernel> K = Nvcc.compileKernel(KB);
    require(K.hasValue(), K ? "" : K.message());
    elf::Cubin Cubin(Nvcc.arch());
    Cubin.addKernel(K->Section);
    std::vector<uint8_t> Image = Cubin.serialize();
    Line L;
    L.IsAsm = Asm;
    if (Asm) {
      Expected<std::string> Listing = vendor::disassembleImage(Image);
      require(Listing.hasValue(), Listing ? "" : Listing.message());
      L.Text = "{\"op\":\"asm\",\"data_b64\":\"" +
               base64({Listing->begin(), Listing->end()}) + "\"}";
      L.ExpectAsm = expectedAsmOutput(K->Section.Code, K->InstAddresses,
                                      archWordBits(Nvcc.arch()));
    } else {
      L.Text = "{\"op\":\"disasm\",\"data_b64\":\"" + base64(Image) + "\"}";
      L.Code = kernelCode(Cubin);
    }
    Lines.push_back(std::move(L));
  }

  void startServer() {
    Conns.clear();
    Server.reset();
    serve::ServerOptions Opts;
    Opts.Jobs = kLanes;
    Server = std::make_unique<serve::Server>(Opts, Db);
    uint64_t Start = nowNs();
    dcb::Error E = Server->start();
    require(!E, "daemon start: " + E.message());
    for (int I = 0; I < 2; ++I) {
      Conns.push_back(LineConn::connect(Server->port()));
      require(Conns.back() != nullptr, "cannot connect to the daemon");
    }
    std::string Pong;
    require(Conns[0]->send("{\"op\":\"ping\"}") && Conns[0]->recvLine(Pong),
            "daemon does not answer ping");
    StartMs = (nowNs() - Start) / 1e6;
  }

  /// Plays the script over the two closed-loop connections. A line is held
  /// back while an earlier occurrence of it is still in flight on the
  /// other connection, so every pass sees the same hits and misses.
  bool drive(std::vector<double> &OpMs, std::vector<std::string> &Replies) {
    struct Slot {
      bool Busy = false;
      size_t Pos = 0;
      uint64_t SentNs = 0;
    } Slots[2];
    std::vector<bool> InFlight(Lines.size(), false);
    size_t Next = 0, Done = 0;
    while (Done < Script.size()) {
      for (int C = 0; C < 2; ++C) {
        if (Slots[C].Busy || Next == Script.size() ||
            InFlight[Script[Next].Id])
          continue;
        Slots[C] = {true, Next, nowNs()};
        InFlight[Script[Next].Id] = true;
        if (!Conns[C]->send(Lines[Script[Next].Id].Text))
          return false;
        ++Next;
      }
      pollfd Fds[2];
      int Map[2], N = 0;
      for (int C = 0; C < 2; ++C)
        if (Slots[C].Busy) {
          Fds[N] = {Conns[C]->fd(), POLLIN, 0};
          Map[N++] = C;
        }
      if (::poll(Fds, N, 10000) <= 0)
        return false;
      for (int I = 0; I < N; ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Slot &S = Slots[Map[I]];
        bool Complete = false;
        if (!Conns[Map[I]]->readSome(Replies[S.Pos], Complete))
          return false;
        if (!Complete)
          continue;
        uint64_t Now = nowNs();
        OpMs[S.Pos] = (Now - S.SentNs) / 1e6;
        InFlight[Script[S.Pos].Id] = false;
        S.Busy = false;
        ++Done;
      }
    }
    return true;
  }

  analyzer::EncodingDatabase Db;
  std::vector<Line> Lines;
  std::vector<Step> Script;
  std::unique_ptr<serve::Server> Server;
  std::vector<std::unique_ptr<LineConn>> Conns;
  double StartMs = 0;
  bool Fresh = true;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServe(const Config &C) {
  return std::make_unique<Serve>(C);
}
