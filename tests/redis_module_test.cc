// Unit tests for the CG.* CuckooGraph command family
// (redis_sim/cuckoograph_module.h) and the embedding path it is served
// through: a CommandTable the family is registered on, and one
// RespConnection fed serialized request bytes. Every assertion covers a
// full serialize-parse-dispatch-reply round trip; the TCP transport over
// the same pair is tested in tcp_server_test.cc. (The RedisServerSimTest
// cases build their own table and connection.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/cuckoo_graph.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// Feeds `request` through `connection` and decodes the one reply it
// must produce.
RespValue RoundTrip(RespConnection* connection, std::string_view request) {
  std::string out;
  EXPECT_TRUE(connection->Feed(request, &out));
  ParseResult reply = ParseValue(out);
  EXPECT_EQ(reply.status, ParseStatus::kOk) << out;
  EXPECT_EQ(reply.consumed, out.size()) << "more than one reply: " << out;
  return std::move(reply.value);
}

class CuckooGraphModuleTest : public ::testing::Test {
 protected:
  CuckooGraphModuleTest() { RegisterGraphCommands(&table_, &graph_); }

  RespValue Execute(const std::vector<std::string>& argv) {
    return RoundTrip(&connection_, EncodeCommand(argv));
  }

  long long Int(const std::vector<std::string>& argv) {
    const RespValue reply = Execute(argv);
    EXPECT_EQ(reply.type, RespType::kInteger) << reply.text;
    return reply.integer;
  }

  CuckooGraph graph_;
  CommandTable table_;
  RespConnection connection_{&table_};
};

TEST_F(CuckooGraphModuleTest, InsertQueryDeleteRoundTrip) {
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 0);  // duplicate
  EXPECT_EQ(Int({"CG.QUERY", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "2", "1"}), 0);  // directed
  EXPECT_EQ(Int({"CG.DEL", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.DEL", "1", "2"}), 0);  // already gone
  EXPECT_EQ(Int({"CG.QUERY", "1", "2"}), 0);
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, DeleteAliasMatchesDel) {
  EXPECT_EQ(Int({"CG.INSERT", "5", "6"}), 1);
  EXPECT_EQ(Int({"CG.DELETE", "5", "6"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "5", "6"}), 0);
}

TEST_F(CuckooGraphModuleTest, CommandNamesAreCaseInsensitive) {
  EXPECT_EQ(Int({"cg.insert", "1", "2"}), 1);
  EXPECT_EQ(Int({"Cg.QuErY", "1", "2"}), 1);
}

TEST_F(CuckooGraphModuleTest, DegreeAndNeighbors) {
  for (const char* v : {"10", "11", "12"}) {
    EXPECT_EQ(Int({"CG.INSERT", "7", v}), 1);
  }
  EXPECT_EQ(Int({"CG.DEGREE", "7"}), 3);
  EXPECT_EQ(Int({"CG.DEGREE", "999"}), 0);  // absent vertex

  const RespValue reply = Execute({"CG.NEIGHBORS", "7"});
  ASSERT_EQ(reply.type, RespType::kArray);
  std::vector<std::string> neighbors;
  for (const RespValue& element : reply.elements) {
    ASSERT_EQ(element.type, RespType::kBulkString);
    neighbors.push_back(element.text);
  }
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<std::string>{"10", "11", "12"}));
}

TEST_F(CuckooGraphModuleTest, NeighborsOfAbsentVertexIsEmptyArray) {
  const RespValue reply = Execute({"CG.NEIGHBORS", "424242"});
  ASSERT_EQ(reply.type, RespType::kArray);
  EXPECT_TRUE(reply.elements.empty());
}

TEST_F(CuckooGraphModuleTest, WrongArityIsAnError) {
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"CG.INSERT", "1"},
        std::vector<std::string>{"CG.INSERT", "1", "2", "3"},
        std::vector<std::string>{"CG.QUERY"},
        std::vector<std::string>{"CG.DEGREE", "1", "2"}}) {
    const RespValue reply = Execute(argv);
    EXPECT_TRUE(reply.IsError()) << argv[0];
    EXPECT_NE(reply.text.find("wrong number of arguments"),
              std::string::npos);
  }
  // Arity failures never reach the graph.
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, NonIntegerNodeIdsAreErrors) {
  for (const char* bad : {"abc", "1.5", "-1", "4294967296", "", "1x"}) {
    const RespValue reply = Execute({"CG.INSERT", bad, "2"});
    EXPECT_TRUE(reply.IsError()) << bad;
    EXPECT_EQ(reply.text, "ERR value is not an integer or out of range");
  }
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, FullNodeIdRangeIsAccepted) {
  EXPECT_EQ(Int({"CG.INSERT", "0", "4294967295"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "0", "4294967295"}), 1);
}

TEST_F(CuckooGraphModuleTest, UnknownCommandIsAnError) {
  const RespValue reply = Execute({"CG.NOPE", "1", "2"});
  ASSERT_TRUE(reply.IsError());
  EXPECT_NE(reply.text.find("unknown command 'CG.NOPE'"),
            std::string::npos);
}

TEST_F(CuckooGraphModuleTest, CrlfInCommandNameCannotDesyncTheStream) {
  // A bulk-string command name may legally contain CRLF; the echoed
  // error reply must not split the frame and poison later replies.
  const RespValue reply = Execute({"bad\r\nname", "1"});
  ASSERT_TRUE(reply.IsError());
  EXPECT_EQ(reply.text.find('\r'), std::string::npos);
  EXPECT_EQ(reply.text.find('\n'), std::string::npos);
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 1);  // stream still in sync
}

TEST_F(CuckooGraphModuleTest, InlineCommandsDispatchToo) {
  EXPECT_EQ(RoundTrip(&connection_, "CG.INSERT 3 4\r\n").integer, 1);
  EXPECT_EQ(RoundTrip(&connection_, "CG.QUERY 3 4\r\n").integer, 1);
}

TEST_F(CuckooGraphModuleTest, ServerStatsCountTraffic) {
  Int({"CG.INSERT", "1", "2"});
  Execute({"CG.NOPE"});
  Execute({"CG.INSERT", "x", "2"});
  // The table's error counter sees the unknown command and the handler's
  // error reply, not the successful insert.
  EXPECT_EQ(table_.dispatch_errors(), 2u);
}

TEST(RedisServerSimTest, RegistrationRejectsDuplicatesCaseInsensitively) {
  CommandTable table;
  const auto pong = [](Span<const std::string_view>) {
    return RespValue::Simple("PONG");
  };
  const auto second = [](Span<const std::string_view>) {
    return RespValue::Simple("SECOND");
  };
  EXPECT_TRUE(table.RegisterCommand("PING", -1, pong));
  EXPECT_FALSE(table.RegisterCommand("ping", -1, second));
  RespConnection connection(&table);
  EXPECT_EQ(RoundTrip(&connection, EncodeCommand({"Ping"})).text, "PONG");
}

TEST(RedisServerSimTest, NegativeArityMeansAtLeast) {
  CommandTable table;
  table.RegisterCommand("VARARG", -2, [](Span<const std::string_view> argv) {
    return RespValue::Integer(static_cast<long long>(argv.size()));
  });
  RespConnection connection(&table);
  EXPECT_TRUE(RoundTrip(&connection, EncodeCommand({"VARARG"})).IsError());
  EXPECT_EQ(RoundTrip(&connection, EncodeCommand({"VARARG", "a"})).integer,
            2);
  EXPECT_EQ(
      RoundTrip(&connection, EncodeCommand({"VARARG", "a", "b", "c"})).integer,
      4);
}

TEST(RedisServerSimTest, PipelinedCommandsYieldBackToBackReplies) {
  CuckooGraph graph;
  CommandTable table;
  RegisterGraphCommands(&table, &graph);
  RespConnection connection(&table);
  std::string replies;
  EXPECT_TRUE(connection.Feed(EncodeCommand({"CG.INSERT", "1", "2"}) +
                                  EncodeCommand({"CG.QUERY", "1", "2"}) +
                                  EncodeCommand({"CG.QUERY", "8", "9"}),
                              &replies));
  EXPECT_EQ(replies, ":1\r\n:1\r\n:0\r\n");
}

TEST(RedisServerSimTest, SplitFeedBuffersUntilCommandCompletes) {
  CuckooGraph graph;
  CommandTable table;
  RegisterGraphCommands(&table, &graph);
  RespConnection connection(&table);
  const std::string wire = EncodeCommand({"CG.INSERT", "1", "2"});
  std::string replies;
  EXPECT_TRUE(connection.Feed(wire.substr(0, 9), &replies));
  EXPECT_TRUE(replies.empty());  // mid-command: no reply yet
  EXPECT_TRUE(connection.Feed(wire.substr(9), &replies));
  EXPECT_EQ(replies, ":1\r\n");
}

TEST(RedisServerSimTest, ProtocolErrorRepliesAndDropsTheStream) {
  CuckooGraph graph;
  CommandTable table;
  RegisterGraphCommands(&table, &graph);
  RespConnection connection(&table);
  std::string replies;
  EXPECT_FALSE(connection.Feed(
      "*1\r\n:5\r\n" + EncodeCommand({"CG.INSERT", "1", "2"}), &replies));
  EXPECT_EQ(replies.rfind("-ERR Protocol error", 0), 0u) << replies;
  // Everything behind the poisoned request was discarded.
  EXPECT_EQ(graph.NumEdges(), 0u);
  // An embedder that keeps feeding starts clean.
  EXPECT_EQ(RoundTrip(&connection, EncodeCommand({"CG.INSERT", "1", "2"}))
                .integer,
            1);
}

}  // namespace
}  // namespace cuckoograph::redis_sim
