// A blocking TCP RESP2 client for driving TcpRespServer. Used by the
// loopback tests and the Figure 17 / served-traffic load generator; one
// instance per thread (no internal locking).
//
// Two usage shapes:
//  - Execute(argv): one request, one decoded reply (a full round trip).
//  - Pipeline(argv) ... Flush(): queue any number of encoded requests,
//    send them in one write burst, then read the same number of replies
//    back in order — the pipelining pattern the server is built for.
// SendRaw/ReadReply expose the byte layer for torn-frame tests.
#ifndef CUCKOOGRAPH_SERVER_RESP_CLIENT_H_
#define CUCKOOGRAPH_SERVER_RESP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "redis_sim/resp.h"

namespace cuckoograph::server {

class RespClient {
 public:
  RespClient() = default;
  ~RespClient();

  RespClient(const RespClient&) = delete;
  RespClient& operator=(const RespClient&) = delete;
  // Movable so factories can hand connections to worker threads.
  RespClient(RespClient&& other) noexcept;
  RespClient& operator=(RespClient&& other) noexcept;

  // Opens a blocking TCP connection. False (with a reason in *error when
  // given) on failure.
  bool Connect(const std::string& host, uint16_t port,
               std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Sends `argv` as a multibulk request and blocks for the decoded
  // reply. Throws std::runtime_error when the connection drops or the
  // reply bytes do not parse.
  redis_sim::RespValue Execute(const std::vector<std::string>& argv);

  // Queues `argv` (encoded, not yet sent) for the next Flush.
  void Pipeline(const std::vector<std::string>& argv);

  // Sends every queued request and reads exactly that many replies, in
  // request order. Throws like Execute.
  std::vector<redis_sim::RespValue> Flush();

  // Writes raw bytes straight to the socket (blocking until accepted) —
  // for slow-client / torn-frame tests that need byte-level control.
  bool SendRaw(std::string_view bytes);

  // Blocks until one complete reply is decoded from the stream.
  redis_sim::RespValue ReadReply();

 private:
  int fd_ = -1;
  std::string in_;          // reply bytes received but not yet consumed
  std::string pending_out_; // encoded requests queued by Pipeline
  size_t pending_replies_ = 0;
};

}  // namespace cuckoograph::server

#endif  // CUCKOOGRAPH_SERVER_RESP_CLIENT_H_
