//===- perfbench/src/Wire.cpp - Request encoding and reply parsing --------===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;

std::string perfbench::base64(const std::vector<uint8_t> &Bytes) {
  static const char Table[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string Out;
  Out.reserve((Bytes.size() + 2) / 3 * 4);
  for (size_t I = 0; I < Bytes.size(); I += 3) {
    uint32_t Chunk = static_cast<uint32_t>(Bytes[I]) << 16;
    if (I + 1 < Bytes.size())
      Chunk |= static_cast<uint32_t>(Bytes[I + 1]) << 8;
    if (I + 2 < Bytes.size())
      Chunk |= Bytes[I + 2];
    Out += Table[(Chunk >> 18) & 63];
    Out += Table[(Chunk >> 12) & 63];
    Out += I + 1 < Bytes.size() ? Table[(Chunk >> 6) & 63] : '=';
    Out += I + 2 < Bytes.size() ? Table[Chunk & 63] : '=';
  }
  return Out;
}

// --- JSON ------------------------------------------------------------------

const JsonValue *JsonValue::get(const std::string &Key) const {
  auto It = Fields.find(Key);
  return It == Fields.end() ? nullptr : &It->second;
}

double JsonValue::num(const std::string &A, const std::string &B) const {
  const JsonValue *V = get(A);
  if (V && !B.empty())
    V = V->get(B);
  return V && V->K == Kind::Number ? V->Num : -1;
}

std::string JsonValue::str(const std::string &Key) const {
  const JsonValue *V = get(Key);
  return V && V->K == Kind::String ? V->Str : std::string();
}

namespace {

struct Reader {
  const std::string &S;
  size_t P = 0;

  void ws() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\n' || S[P] == '\t' ||
                            S[P] == '\r'))
      ++P;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(P, N, L) != 0)
      return false;
    P += N;
    return true;
  }
  static void putUtf8(std::string &Out, uint32_t C) {
    if (C < 0x80) {
      Out += static_cast<char>(C);
    } else if (C < 0x800) {
      Out += static_cast<char>(0xc0 | (C >> 6));
      Out += static_cast<char>(0x80 | (C & 63));
    } else {
      Out += static_cast<char>(0xe0 | (C >> 12));
      Out += static_cast<char>(0x80 | ((C >> 6) & 63));
      Out += static_cast<char>(0x80 | (C & 63));
    }
  }
  bool string(std::string &Out) {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    while (P < S.size() && S[P] != '"') {
      char C = S[P++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= S.size())
        return false;
      char E = S[P++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (P + 4 > S.size())
          return false;
        char *EndPtr = nullptr;
        std::string Hex = S.substr(P, 4);
        uint32_t Code = static_cast<uint32_t>(std::strtoul(Hex.c_str(), &EndPtr, 16));
        if (EndPtr != Hex.c_str() + 4)
          return false;
        putUtf8(Out, Code);
        P += 4;
        break;
      }
      default: Out += E; break; // '"', '\\', '/'.
      }
    }
    if (P >= S.size())
      return false;
    ++P;
    return true;
  }
  bool value(JsonValue &V, unsigned Depth) {
    if (Depth > 64)
      return false;
    ws();
    if (P >= S.size())
      return false;
    char C = S[P];
    if (C == '{') {
      V.K = JsonValue::Kind::Object;
      ++P;
      ws();
      if (P < S.size() && S[P] == '}')
        return ++P, true;
      for (;;) {
        ws();
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (P >= S.size() || S[P++] != ':')
          return false;
        if (!value(V.Fields[Key], Depth + 1))
          return false;
        ws();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        return P < S.size() && S[P++] == '}';
      }
    }
    if (C == '[') {
      V.K = JsonValue::Kind::Array;
      ++P;
      ws();
      if (P < S.size() && S[P] == ']')
        return ++P, true;
      for (;;) {
        V.Items.emplace_back();
        if (!value(V.Items.back(), Depth + 1))
          return false;
        ws();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        return P < S.size() && S[P++] == ']';
      }
    }
    if (C == '"') {
      V.K = JsonValue::Kind::String;
      return string(V.Str);
    }
    if (lit("true")) {
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return true;
    }
    if (lit("false")) {
      V.K = JsonValue::Kind::Bool;
      return true;
    }
    if (lit("null"))
      return true;
    const char *Begin = S.c_str() + P;
    char *End = nullptr;
    V.Num = std::strtod(Begin, &End);
    if (End == Begin)
      return false;
    V.K = JsonValue::Kind::Number;
    P += static_cast<size_t>(End - Begin);
    return true;
  }
};

} // namespace

std::optional<JsonValue> perfbench::parseJson(const std::string &Text) {
  Reader R{Text};
  JsonValue V;
  if (!R.value(V, 0))
    return std::nullopt;
  R.ws();
  if (R.P != Text.size())
    return std::nullopt;
  return V;
}

// --- Loopback connection ---------------------------------------------------

std::unique_ptr<LineConn> LineConn::connect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return nullptr;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return nullptr;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return std::unique_ptr<LineConn>(new LineConn(Fd));
}

LineConn::~LineConn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool LineConn::send(const std::string &Line) {
  std::string Frame = Line + "\n";
  size_t Done = 0;
  while (Done < Frame.size()) {
    ssize_t N = ::send(Fd, Frame.data() + Done, Frame.size() - Done,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Done += static_cast<size_t>(N);
  }
  return true;
}

bool LineConn::takeLine(std::string &Line) {
  size_t Nl = Buffer.find('\n');
  if (Nl == std::string::npos)
    return false;
  Line.assign(Buffer, 0, Nl);
  Buffer.erase(0, Nl + 1);
  return true;
}

bool LineConn::readSome(std::string &Line, bool &Complete) {
  Complete = takeLine(Line);
  if (Complete)
    return true;
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
    Complete = takeLine(Line);
    return true;
  }
}

bool LineConn::recvLine(std::string &Line) {
  bool Complete = false;
  while (!Complete)
    if (!readSome(Line, Complete))
      return false;
  return true;
}
