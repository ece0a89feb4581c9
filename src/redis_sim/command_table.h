// The transport-agnostic core of the Redis-protocol front door. There
// are two ways to reach a registered command family (e.g. the CG.*
// commands of cuckoograph_module.h): an embedder calls these two classes
// directly, or a client talks to a TcpRespServer socket
// (src/server/tcp_server.h), which owns one RespConnection per socket
// over one shared CommandTable.
//
//  - CommandTable: command registration (case-insensitive name, Redis
//    arity semantics) and request dispatch. One table serves every
//    connection; its error counter is atomic because the TCP server's
//    worker threads dispatch into a shared table concurrently.
//  - RespConnection: everything that is per-connection — the incremental
//    RESP2 parse buffer, reply encoding and protocol-error handling. A
//    transport owns one RespConnection per client and feeds it whatever
//    byte fragments arrive.
//
// Handlers receive their argv as Span<const std::string_view> views into
// the connection's parse storage: valid only for the duration of the
// call, never copied on the way in.
#ifndef CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_
#define CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/span.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {

// Registration + arity + dispatch. Registration is a setup-time
// operation (not thread-safe against concurrent Dispatch); Dispatch is
// const and safe from any number of threads once registration is done,
// provided the handlers themselves are (e.g. they target a store
// advertising Capabilities().concurrent_mutations).
class CommandTable {
 public:
  // A registered command body. `argv` is the full request (argv[0] is
  // the command name as the client sent it); the returned value is
  // encoded as the reply. The views borrow the connection's parse
  // buffers — copy anything that must outlive the call.
  using CommandHandler =
      std::function<RespValue(Span<const std::string_view> argv)>;

  // Registers `name` (matched case-insensitively) with Redis arity
  // semantics: a positive `arity` requires exactly that many argv
  // entries (command name included); a negative `arity` requires at
  // least |arity|. Returns false (keeping the existing entry) when the
  // name is already taken.
  bool RegisterCommand(std::string_view name, int arity,
                       CommandHandler handler);

  // Dispatches one parsed request (argv must be non-empty) and returns
  // its reply value: unknown-command and wrong-arity requests produce
  // error replies without reaching a handler, and an exception escaping
  // a handler becomes an "ERR <what()>" reply. All three count in
  // dispatch_errors().
  RespValue Dispatch(Span<const std::string_view> argv) const;

  // Error replies summed over every connection dispatching into this
  // table: unknown command, wrong arity, handler error or throw.
  uint64_t dispatch_errors() const {
    return dispatch_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct CommandEntry {
    int arity = 0;
    CommandHandler handler;
  };

  std::unordered_map<std::string, CommandEntry> commands_;  // key: UPPERCASE
  mutable std::atomic<uint64_t> dispatch_errors_{0};
};

// One client connection's protocol state machine. Stateful like a
// socket: an incomplete trailing command is buffered until a later Feed
// completes it, and several pipelined commands in one Feed produce
// several back-to-back replies. Not thread-safe — a connection belongs
// to exactly one transport thread at a time (the TCP server pins each
// connection to one worker loop).
class RespConnection {
 public:
  explicit RespConnection(const CommandTable* table) : table_(table) {}

  // Feeds request bytes, appending the reply bytes for every completed
  // request to *out. Returns false when the bytes contained a protocol
  // error: the error reply has been appended, the rest of the buffered
  // input is discarded, and a transport should close after flushing, as
  // Redis drops the connection (the next Feed starts clean either way).
  bool Feed(std::string_view bytes, std::string* out);

  // Request bytes received but not yet forming a complete command.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  const CommandTable* table_;
  std::string buffer_;  // unconsumed request bytes between Feed calls
};

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_
