// Unit tests for the transport-agnostic dispatch core carved out of
// RedisServerSim: CommandTable (registration, Span argv dispatch, shared
// atomic counters) and RespConnection (per-connection parser state,
// reply buffering, protocol-error handling). The multi-connection cases
// are what the in-process sim can never exercise: several connections
// with interleaved partial commands over one table.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "redis_sim/command_table.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// Registers an ECHO command (replies its first argument) and a PING.
// (The table is filled in place: its atomic counters make it immovable.)
void RegisterEcho(CommandTable* table) {
  table->RegisterCommand("ECHO", 2, [](Span<const std::string_view> argv) {
    return RespValue::Bulk(std::string(argv[1]));
  });
  table->RegisterCommand("PING", 1, [](Span<const std::string_view>) {
    return RespValue::Simple("PONG");
  });
}

TEST(CommandTableTest, DispatchRoutesBySpanArgv) {
  CommandTable table;
  RegisterEcho(&table);
  const std::vector<std::string_view> argv = {"echo", "hello"};
  const RespValue reply = table.Dispatch(Span<const std::string_view>(argv));
  EXPECT_EQ(reply.type, RespType::kBulkString);
  EXPECT_EQ(reply.text, "hello");
  EXPECT_EQ(table.commands_dispatched(), 1u);
  EXPECT_EQ(table.dispatch_errors(), 0u);
}

TEST(CommandTableTest, UnknownAndWrongArityNeverReachHandlers) {
  CommandTable table;
  RegisterEcho(&table);
  const std::vector<std::string_view> unknown = {"NOPE"};
  EXPECT_TRUE(
      table.Dispatch(Span<const std::string_view>(unknown)).IsError());
  const std::vector<std::string_view> bad_arity = {"PING", "extra"};
  EXPECT_TRUE(
      table.Dispatch(Span<const std::string_view>(bad_arity)).IsError());
  EXPECT_EQ(table.commands_dispatched(), 0u);
  EXPECT_EQ(table.dispatch_errors(), 2u);
}

TEST(CommandTableTest, HandlerErrorRepliesAreCounted) {
  CommandTable table;
  table.RegisterCommand("FAIL", 1, [](Span<const std::string_view>) {
    return RespValue::Error("ERR handler says no");
  });
  const std::vector<std::string_view> argv = {"FAIL"};
  EXPECT_TRUE(table.Dispatch(Span<const std::string_view>(argv)).IsError());
  EXPECT_EQ(table.commands_dispatched(), 1u);
  EXPECT_EQ(table.dispatch_errors(), 1u);
}

TEST(RespConnectionTest, InterleavedPartialCommandsDoNotShareParserState) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection a(&table);
  RespConnection b(&table);

  const std::string wire_a = EncodeCommand({"ECHO", "from-a"});
  const std::string wire_b = EncodeCommand({"ECHO", "from-b"});

  // a receives the front half of its request, then b a full request,
  // then a the rest: b must answer immediately and a must stay buffered
  // until its own bytes complete — never spliced with b's.
  std::string out_a, out_b;
  EXPECT_TRUE(a.Feed(wire_a.substr(0, wire_a.size() / 2), &out_a));
  EXPECT_TRUE(out_a.empty());
  EXPECT_GT(a.buffered_bytes(), 0u);

  EXPECT_TRUE(b.Feed(wire_b, &out_b));
  EXPECT_EQ(out_b, "$6\r\nfrom-b\r\n");
  EXPECT_EQ(b.buffered_bytes(), 0u);

  EXPECT_TRUE(a.Feed(wire_a.substr(wire_a.size() / 2), &out_a));
  EXPECT_EQ(out_a, "$6\r\nfrom-a\r\n");
  EXPECT_EQ(a.buffered_bytes(), 0u);

  // The shared table saw both dispatches; each connection counted one.
  EXPECT_EQ(table.commands_dispatched(), 2u);
  EXPECT_EQ(a.stats().commands, 1u);
  EXPECT_EQ(b.stats().commands, 1u);
}

TEST(RespConnectionTest, ByteAtATimeFeedReassemblesTheFrame) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  const std::string wire =
      EncodeCommand({"ECHO", "torn"}) + EncodeCommand({"PING"});
  std::string out;
  for (const char c : wire) {
    EXPECT_TRUE(conn.Feed(std::string_view(&c, 1), &out));
  }
  EXPECT_EQ(out, "$4\r\ntorn\r\n+PONG\r\n");
  EXPECT_EQ(conn.stats().commands, 2u);
}

TEST(RespConnectionTest, ProtocolErrorPoisonsOnlyThatConnection) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection poisoned(&table);
  RespConnection healthy(&table);

  std::string out;
  // A multibulk whose element is not a bulk string, with a valid request
  // pipelined behind it: the error reply is produced, the rest of the
  // buffer is discarded, and Feed reports the connection as dirty.
  EXPECT_FALSE(
      poisoned.Feed("*1\r\n:5\r\n" + EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out.rfind("-ERR Protocol error", 0), 0u) << out;
  EXPECT_EQ(poisoned.buffered_bytes(), 0u);
  EXPECT_EQ(poisoned.stats().protocol_errors, 1u);

  // The other connection never notices.
  out.clear();
  EXPECT_TRUE(healthy.Feed(EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out, "+PONG\r\n");
  EXPECT_EQ(healthy.stats().protocol_errors, 0u);

  // An embedding that keeps feeding (the sim does) starts clean again.
  out.clear();
  EXPECT_TRUE(poisoned.Feed(EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out, "+PONG\r\n");
}

TEST(RespConnectionTest, PipelinedFeedAnswersInRequestOrder) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  std::string out;
  EXPECT_TRUE(conn.Feed(EncodeCommand({"ECHO", "1st"}) +
                            EncodeCommand({"PING"}) +
                            EncodeCommand({"ECHO", "3rd"}),
                        &out));
  EXPECT_EQ(out, "$3\r\n1st\r\n+PONG\r\n$3\r\n3rd\r\n");
}

TEST(RespConnectionTest, ThrowingHandlerRepliesErrorAndKeepsServing) {
  // The served shape of a DurableStore whose WAL has failed: the handler
  // throws. The exception must become that command's error reply, not
  // unwind out of the transport thread, and the next pipelined command
  // must still be answered.
  CommandTable table;
  RegisterEcho(&table);
  table.RegisterCommand("THROW", 1,
                        [](Span<const std::string_view>) -> RespValue {
                          throw std::runtime_error("wal write failed");
                        });
  RespConnection conn(&table);
  std::string out;
  EXPECT_TRUE(conn.Feed(EncodeCommand({"THROW"}) + EncodeCommand({"PING"}),
                        &out));
  EXPECT_EQ(out, "-ERR wal write failed\r\n+PONG\r\n");
  EXPECT_EQ(conn.stats().commands, 2u);
  EXPECT_EQ(conn.stats().error_replies, 1u);
  EXPECT_EQ(conn.stats().protocol_errors, 0u);
  EXPECT_EQ(table.commands_dispatched(), 2u);
  EXPECT_EQ(table.dispatch_errors(), 1u);
}

TEST(RespConnectionTest, StatsCountBytesBothWays) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  const std::string wire = EncodeCommand({"PING"});
  std::string out;
  EXPECT_TRUE(conn.Feed(wire, &out));
  EXPECT_EQ(conn.stats().bytes_in, wire.size());
  EXPECT_EQ(conn.stats().bytes_out, out.size());
  EXPECT_EQ(conn.stats().error_replies, 0u);
}

}  // namespace
}  // namespace cuckoograph::redis_sim
