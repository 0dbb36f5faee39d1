//===- server/Client.h - Blocking virgild client library --------*- C++ -*-===//
///
/// \file
/// The client side of the virgild protocol: a blocking connection that
/// sends one request frame and reads one response frame, used by the
/// virgil-load generator, the ServerTest suite, and bench_e13_server.
/// One Client == one connection. The server answers a connection's
/// requests in completion order, and responses carry no request id, so
/// a Client sends one request and waits for its response before the
/// next; a caller that wants concurrency opens more clients.
///
/// Every call reports transport failures via the bool/Err convention;
/// *protocol-level* outcomes (compile errors, traps, BUSY) are data,
/// returned in the response structs — see execute()'s Busy flag.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SERVER_CLIENT_H
#define VIRGIL_SERVER_CLIENT_H

#include "net/Frame.h"
#include "server/Protocol.h"

#include <string>

namespace virgil {
namespace server {

class Client {
public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Client &operator=(Client &&O) noexcept {
    if (this != &O) {
      close();
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }

  bool connectTcp(const std::string &Host, uint16_t Port,
                  std::string *Err);
  bool connectUnix(const std::string &Path, std::string *Err);
  bool connected() const { return Fd >= 0; }
  void close();

  /// Runs one EXECUTE round trip. Returns false only on transport or
  /// protocol failure; server-side BUSY sets \p *Busy (when non-null)
  /// and returns true with \p Resp untouched.
  bool execute(const ExecuteRequest &Req, ExecuteResponse *Resp,
               bool *Busy, std::string *Err);

  /// Runs one COMPILE round trip (same BUSY convention).
  bool compile(const ExecuteRequest &Req, CompileResponse *Resp,
               bool *Busy, std::string *Err);

  /// Fetches the live STATS JSON document.
  bool stats(std::string *JsonOut, std::string *Err);

  bool ping(std::string *Err);

  /// Low-level access (tests): one frame out, one frame in, or the
  /// raw descriptor for writing deliberately malformed bytes.
  bool sendFrame(uint8_t Type, const std::string &Payload,
                 std::string *Err);
  bool recvFrame(net::Frame *Out, std::string *Err);
  int fd() const { return Fd; }

private:
  int Fd = -1;
};

} // namespace server
} // namespace virgil

#endif // VIRGIL_SERVER_CLIENT_H
