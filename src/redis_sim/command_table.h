// The transport-agnostic core of the Redis-protocol front door, carved
// out of RedisServerSim so the in-process simulation and the real TCP
// server (src/server/) share exactly one dispatch / protocol code path:
//
//  - CommandTable: command registration (case-insensitive name, Redis
//    arity semantics) and request dispatch. One table serves every
//    connection; its counters are atomic because the TCP server's worker
//    threads dispatch into a shared table concurrently.
//  - RespConnection: everything that is per-connection — the incremental
//    RESP2 parse buffer, reply encoding, protocol-error handling and
//    byte/reply accounting. A transport owns one RespConnection per
//    client and feeds it whatever byte fragments arrive.
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
#include <vector>

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

  // Registered command names (uppercased), in registration order.
  std::vector<std::string> CommandNames() const;

  // Counters summed over every connection dispatching into this table.
  uint64_t commands_dispatched() const {  // handler invocations
    return dispatched_.load(std::memory_order_relaxed);
  }
  uint64_t dispatch_errors() const {  // unknown/arity/handler/throw errors
    return dispatch_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct CommandEntry {
    int arity = 0;
    CommandHandler handler;
  };

  std::unordered_map<std::string, CommandEntry> commands_;  // key: UPPERCASE
  std::vector<std::string> registration_order_;
  mutable std::atomic<uint64_t> dispatched_{0};
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
  // input is discarded, and a real transport should close after
  // flushing (Redis drops the connection; the in-process sim just keeps
  // feeding — the next Feed starts clean either way).
  bool Feed(std::string_view bytes, std::string* out);

  struct Stats {
    uint64_t commands = 0;         // requests dispatched from this connection
    uint64_t error_replies = 0;    // arity/unknown/protocol/handler errors
    uint64_t protocol_errors = 0;  // subset of error_replies: framing errors
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };
  const Stats& stats() const { return stats_; }

  // Request bytes received but not yet forming a complete command.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  const CommandTable* table_;
  std::string buffer_;  // unconsumed request bytes between Feed calls
  Stats stats_;
};

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_
