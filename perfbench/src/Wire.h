//===- perfbench/src/Wire.h - Request encoding and reply parsing -*- C++ -*-===//
//
// Part of the Decoding-CUDA-Binary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the serve workload needs to speak the daemon's newline-JSON
/// protocol: base64 for request payloads, a small JSON reader for replies
/// and a loopback connection. Written here rather than taken from
/// src/serve so the checks on served replies share no code with the server.
///
//===----------------------------------------------------------------------===//

#ifndef DCB_PERFBENCH_WIRE_H
#define DCB_PERFBENCH_WIRE_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

std::string base64(const std::vector<uint8_t> &Bytes);

/// A parsed JSON value: null, bool, number, string, array or object.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::map<std::string, JsonValue> Fields;

  /// Field \p Key of an object, or nullptr.
  const JsonValue *get(const std::string &Key) const;
  /// Numeric field at the path \p A.\p B (B may be empty), or -1.
  double num(const std::string &A, const std::string &B = "") const;
  /// String field \p Key, or "".
  std::string str(const std::string &Key) const;
};

/// Parses one JSON document; nullopt on malformed input.
std::optional<JsonValue> parseJson(const std::string &Text);

/// A blocking loopback TCP connection speaking newline-framed lines.
class LineConn {
public:
  static std::unique_ptr<LineConn> connect(uint16_t Port);
  ~LineConn();
  LineConn(const LineConn &) = delete;
  LineConn &operator=(const LineConn &) = delete;

  int fd() const { return Fd; }
  /// Sends \p Line plus a newline. False on a socket error.
  bool send(const std::string &Line);
  /// Reads what is available (blocking until at least one byte arrives).
  /// Sets \p Complete and moves the line, without its newline, into \p Line
  /// once a whole line has arrived. Returns false on EOF or error.
  bool readSome(std::string &Line, bool &Complete);
  /// Blocks until one full line arrives.
  bool recvLine(std::string &Line);

private:
  explicit LineConn(int Fd) : Fd(Fd) {}
  bool takeLine(std::string &Line);
  int Fd = -1;
  std::string Buffer;
};

} // namespace perfbench

#endif // DCB_PERFBENCH_WIRE_H
