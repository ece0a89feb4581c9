// RESP2 (REdis Serialization Protocol) codec for the Redis module of
// Section V-F. The Figure 17 bench sends every CuckooGraph operation
// through serialized bytes over a TCP socket — multibulk request
// encoding, request parsing, dispatch, reply encoding, reply parsing —
// so the measured throughput includes genuine protocol overhead, not a
// function call.
//
// The subset implemented is what a RESP2 command connection exercises:
// simple strings (+), errors (-), integers (:), bulk strings ($, including
// the $-1 null), and arrays (*, including *-1), plus the inline command
// form (a bare space-separated line) real Redis accepts alongside
// multibulk requests.
#ifndef CUCKOOGRAPH_REDIS_SIM_RESP_H_
#define CUCKOOGRAPH_REDIS_SIM_RESP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cuckoograph::redis_sim {

// Protocol limits mirroring real Redis: a bulk payload is capped at 512MB
// and a multibulk *request* at 1M elements (the cap is client-side only —
// replies may be arbitrarily long arrays, as on a real server). Lengths
// past these parse as protocol errors instead of provoking huge
// allocations.
inline constexpr long long kMaxBulkLen = 512LL * 1024 * 1024;
inline constexpr long long kMaxMultibulkLen = 1024 * 1024;

enum class RespType {
  kSimpleString,  // +OK\r\n
  kError,         // -ERR ...\r\n
  kInteger,       // :42\r\n
  kBulkString,    // $5\r\nhello\r\n
  kNull,          // $-1\r\n (and *-1\r\n parses to this too)
  kArray,         // *2\r\n<element><element>
};

// One decoded RESP value. Which members are meaningful depends on `type`:
// `text` for simple strings / errors / bulk payloads, `integer` for
// integers, `elements` for arrays.
struct RespValue {
  RespType type = RespType::kNull;
  std::string text;
  long long integer = 0;
  std::vector<RespValue> elements;

  static RespValue Simple(std::string s);
  static RespValue Error(std::string message);
  static RespValue Integer(long long value);
  static RespValue Bulk(std::string payload);
  static RespValue Null();
  static RespValue Array(std::vector<RespValue> elements);

  bool IsError() const { return type == RespType::kError; }
};

// Serializes `value` to its RESP2 wire form.
std::string Encode(const RespValue& value);

// Encodes a client request: an array of bulk strings, one per argument
// (the standard multibulk request form).
std::string EncodeCommand(const std::vector<std::string>& argv);

enum class ParseStatus {
  kOk,          // one complete value decoded
  kIncomplete,  // the buffer ends mid-value; feed more bytes and retry
  kError,       // protocol violation; `error` says what was wrong
};

struct ParseResult {
  ParseStatus status = ParseStatus::kIncomplete;
  RespValue value;     // valid when status == kOk
  size_t consumed = 0; // bytes of input the value occupied (kOk only)
  std::string error;   // human-readable, set when status == kError
};

// Decodes one RESP value from the front of `bytes`. Incremental: a
// truncated value reports kIncomplete (never an error), so callers can
// buffer partial reads exactly like a socket loop would.
ParseResult ParseValue(std::string_view bytes);

struct CommandParse {
  ParseStatus status = ParseStatus::kIncomplete;
  std::vector<std::string> argv;  // command name + arguments (kOk only)
  size_t consumed = 0;
  std::string error;
};

// Decodes one client request from the front of `bytes`: a '*'-prefixed
// multibulk request (every element must be a bulk string), or an inline
// command — a bare line split on spaces/tabs, terminated by LF or CRLF.
// A kOk result with empty argv (empty multibulk or blank inline line) is
// a no-op request the server skips without replying, matching Redis.
CommandParse ParseCommand(std::string_view bytes);

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_RESP_H_
