// Loopback tests for the epoll TCP RESP server: single round trips,
// pipelining, torn-frame (1-byte-at-a-time) slow clients, protocol-error
// disconnects, and the concurrency smoke the sim cannot provide — four
// client threads driving pipelined CG.INSERT/CG.QUERY against a sharded
// store, every reply checked against a single-threaded oracle, and
// CG.NEIGHBORS on a hub racing CG.INSERT/CG.DEL on the same hub. These
// suites run under the CI TSan job (see the -R filter in ci.yml).
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/sharded_cuckoo_graph.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"

namespace cuckoograph::server {
namespace {

using redis_sim::CommandTable;
using redis_sim::RespType;
using redis_sim::RespValue;

class TcpRespServerTest : public ::testing::Test {
 protected:
  // Every test serves the CG.* family over a sharded (thread-safe) store
  // from two worker loops, on an ephemeral loopback port.
  void StartServer(int num_workers = 2) {
    redis_sim::RegisterGraphCommands(&table_, &store_);
    ServerConfig config;
    config.num_workers = num_workers;
    server_ = std::make_unique<TcpRespServer>(config, &table_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  RespClient Connect() {
    RespClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port(), &error))
        << error;
    return client;
  }

  ShardedCuckooGraph store_;
  CommandTable table_;
  std::unique_ptr<TcpRespServer> server_;
};

TEST_F(TcpRespServerTest, SingleRoundTripOverLoopback) {
  StartServer();
  RespClient client = Connect();
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 0);
  EXPECT_EQ(client.Execute({"CG.QUERY", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.DEL", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.QUERY", "1", "2"}).integer, 0);
  EXPECT_EQ(store_.NumEdges(), 0u);
}

TEST_F(TcpRespServerTest, ServerSideErrorsComeBackAsErrorReplies) {
  StartServer();
  RespClient client = Connect();
  EXPECT_TRUE(client.Execute({"CG.NOPE"}).IsError());
  EXPECT_TRUE(client.Execute({"CG.INSERT", "1"}).IsError());
  EXPECT_TRUE(client.Execute({"CG.INSERT", "abc", "2"}).IsError());
  // The connection survives command-level errors.
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
}

TEST_F(TcpRespServerTest, PipelinedBurstAnswersInOrder) {
  StartServer();
  RespClient client = Connect();
  for (int i = 0; i < 100; ++i) {
    client.Pipeline({"CG.INSERT", "7", std::to_string(i)});
  }
  client.Pipeline({"CG.DEGREE", "7"});
  const std::vector<RespValue> replies = client.Flush();
  ASSERT_EQ(replies.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(i)].integer, 1) << i;
  }
  EXPECT_EQ(replies[100].integer, 100);

  // A burst several read-chunks (16 KiB) deep: the server parses it as
  // multiple recv chunks, each queuing its own reply buffer, and the
  // flush path must gather them into ordered scatter/gather writes.
  // Every reply is position-checked, so a dropped, duplicated or
  // reordered iovec segment cannot pass.
  constexpr int kDeepBurst = 4000;  // ~80 KiB of request wire
  for (int i = 0; i < kDeepBurst; ++i) {
    client.Pipeline({"CG.QUERY", "7", std::to_string(i % 200)});
  }
  const std::vector<RespValue> deep = client.Flush();
  ASSERT_EQ(deep.size(), static_cast<size_t>(kDeepBurst));
  for (int i = 0; i < kDeepBurst; ++i) {
    EXPECT_EQ(deep[static_cast<size_t>(i)].integer, i % 200 < 100 ? 1 : 0)
        << i;
  }
  // The byte counters see the gathered writes, not the syscall shape:
  // every reply byte must still be accounted for. The worker bumps the
  // counter after sendmsg returns, so on a loaded single-core box the
  // client can finish reading before the worker is rescheduled to
  // account the bytes — poll briefly instead of racing it.
  const uint64_t min_bytes = static_cast<uint64_t>(kDeepBurst) * 4;  // ":0\r\n"
  uint64_t bytes_out = 0;
  for (int spin = 0; spin < 2000; ++spin) {
    bytes_out = server_->stats().bytes_out;
    if (bytes_out >= min_bytes) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(bytes_out, min_bytes);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpRespServerTest, TornFramesFromASlowClientReassemble) {
  StartServer();
  RespClient client = Connect();
  // Three pipelined requests written one byte at a time: the server must
  // reassemble frames across arbitrarily small reads and answer all
  // three, in order.
  const std::string wire = redis_sim::EncodeCommand({"CG.INSERT", "3", "4"}) +
                           redis_sim::EncodeCommand({"CG.QUERY", "3", "4"}) +
                           redis_sim::EncodeCommand({"CG.QUERY", "9", "9"});
  for (const char c : wire) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&c, 1)));
  }
  EXPECT_EQ(client.ReadReply().integer, 1);
  EXPECT_EQ(client.ReadReply().integer, 1);
  EXPECT_EQ(client.ReadReply().integer, 0);

  // A longer unread pipeline, still one byte per write: frames complete
  // on different recv chunks, so replies land on the outbound queue as
  // many small buffers that the coalesced flush must emit in order
  // (the client reads nothing until every byte is on the wire).
  std::string burst;
  for (int i = 0; i < 64; ++i) {
    burst += redis_sim::EncodeCommand({"CG.QUERY", "3", std::to_string(i)});
  }
  for (const char c : burst) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&c, 1)));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(client.ReadReply().integer, i == 4 ? 1 : 0) << i;
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpRespServerTest, InlineCommandsWorkOverTheSocket) {
  StartServer();
  RespClient client = Connect();
  ASSERT_TRUE(client.SendRaw("CG.INSERT 5 6\r\n"));
  EXPECT_EQ(client.ReadReply().integer, 1);
  ASSERT_TRUE(client.SendRaw("CG.QUERY 5 6\r\n"));
  EXPECT_EQ(client.ReadReply().integer, 1);
}

TEST_F(TcpRespServerTest, ProtocolErrorRepliesThenClosesTheConnection) {
  StartServer();
  RespClient bad = Connect();
  ASSERT_TRUE(bad.SendRaw("*1\r\n:5\r\n"));
  const RespValue reply = bad.ReadReply();
  ASSERT_TRUE(reply.IsError());
  EXPECT_NE(reply.text.find("Protocol error"), std::string::npos);
  // Like a real Redis, the server then drops the client.
  EXPECT_THROW(bad.ReadReply(), std::runtime_error);

  // Other connections are unaffected.
  RespClient good = Connect();
  EXPECT_EQ(good.Execute({"CG.INSERT", "1", "2"}).integer, 1);
}

TEST_F(TcpRespServerTest, FourThreadedPipelinedClientsMatchOracle) {
  StartServer(/*num_workers=*/2);
  constexpr int kClients = 4;
  constexpr size_t kOpsPerClient = 2000;
  constexpr size_t kPipelineDepth = 32;
  constexpr NodeId kRange = 64;  // small: plenty of duplicate traffic

  // Each client owns a private source range, so a sequential replay of
  // its op stream is an exact oracle for every reply it receives, no
  // matter how the other clients' commands interleave server-side.
  std::vector<int> failures(kClients, 0);
  std::vector<std::unordered_set<uint64_t>> oracles(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures, &oracles] {
      RespClient client = Connect();
      SplitMix64 rng(77 + static_cast<uint64_t>(c));
      std::unordered_set<uint64_t>& oracle = oracles[static_cast<size_t>(c)];
      std::vector<long long> expected;
      size_t in_flight = 0;
      const auto check_flush = [&] {
        const std::vector<RespValue> replies = client.Flush();
        for (size_t i = 0; i < replies.size(); ++i) {
          if (replies[i].type != RespType::kInteger ||
              replies[i].integer != expected[i]) {
            ++failures[static_cast<size_t>(c)];
          }
        }
        expected.clear();
        in_flight = 0;
      };
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        const NodeId u = static_cast<NodeId>(1000 + c) * 1000 +
                         rng.NextBelow(kRange);
        const NodeId v = rng.NextBelow(kRange);
        const uint64_t kind = rng.NextBelow64(3);
        const uint64_t key = EdgeKey(Edge{u, v});
        if (kind == 0) {
          client.Pipeline({"CG.QUERY", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.count(key) != 0 ? 1 : 0);
        } else if (kind == 1) {
          client.Pipeline({"CG.DEL", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.erase(key) != 0 ? 1 : 0);
        } else {
          client.Pipeline(
              {"CG.INSERT", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.insert(key).second ? 1 : 0);
        }
        if (++in_flight == kPipelineDepth) check_flush();
      }
      if (in_flight > 0) check_flush();
    });
  }
  for (std::thread& t : threads) t.join();

  size_t expected_edges = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], 0)
        << "client " << c << " saw replies diverge from its oracle";
    expected_edges += oracles[static_cast<size_t>(c)].size();
  }
  EXPECT_EQ(store_.NumEdges(), expected_edges);
  EXPECT_GE(server_->stats().connections_accepted, 4u);
}

TEST_F(TcpRespServerTest, NeighborsOfAHubRacesInsertAndDelete) {
  // CG.NEIGHBORS on one hub while CG.INSERT/CG.DEL churn the same hub's
  // adjacency from the other worker. Connections go to workers round-robin
  // and connect writer, reader, writer, reader, so the writers share one
  // worker and the readers the other. Every reply must be a well-formed
  // adjacency: no duplicate, no id the writers never used, and every
  // pinned edge (inserted up front, never deleted) present.
  StartServer(/*num_workers=*/2);
  constexpr NodeId kHub = 7;
  constexpr NodeId kTargets = 256;  // per writer; grows the hub past inline
  constexpr NodeId kPinned = 1000000;
  constexpr int kPinnedCount = 8;
  for (int p = 0; p < kPinnedCount; ++p) {
    store_.InsertEdge(kHub, kPinned + static_cast<NodeId>(p));
  }

  constexpr int kPairs = 2;
  std::vector<RespClient> writers, readers;
  for (int c = 0; c < kPairs; ++c) {
    writers.push_back(Connect());
    readers.push_back(Connect());
  }
  std::atomic<int> writers_running{kPairs};
  std::vector<std::string> failures(2 * kPairs);
  std::vector<std::unordered_set<NodeId>> oracles(kPairs);
  std::vector<std::thread> threads;
  for (int c = 0; c < kPairs; ++c) {
    threads.emplace_back([&, c] {
      RespClient& writer = writers[static_cast<size_t>(c)];
      const NodeId base = static_cast<NodeId>(c) * kTargets;
      std::unordered_set<NodeId>& oracle = oracles[static_cast<size_t>(c)];
      SplitMix64 rng(31 + static_cast<uint64_t>(c));
      try {
        for (int round = 0; round < 60; ++round) {
          std::vector<long long> expected;
          for (int i = 0; i < 64; ++i) {
            const NodeId v = base + rng.NextBelow(kTargets);
            const bool insert = rng.NextBelow(3) != 0;
            const char* op = insert ? "CG.INSERT" : "CG.DEL";
            writer.Pipeline({op, std::to_string(kHub), std::to_string(v)});
            expected.push_back(insert ? oracle.insert(v).second
                                      : oracle.erase(v) != 0);
          }
          const std::vector<RespValue> replies = writer.Flush();
          for (size_t i = 0; i < replies.size(); ++i) {
            if (replies[i].integer != expected[i]) {
              failures[static_cast<size_t>(c)] = "writer reply diverged";
            }
          }
        }
      } catch (const std::exception& e) {
        failures[static_cast<size_t>(c)] = e.what();
      }
      writers_running.fetch_sub(1, std::memory_order_release);
    });
    threads.emplace_back([&, c] {
      RespClient& reader = readers[static_cast<size_t>(c)];
      std::string& failure = failures[static_cast<size_t>(kPairs + c)];
      const auto writing = [&writers_running] {
        return writers_running.load(std::memory_order_acquire) > 0;
      };
      try {
        for (int i = 0; (i < 50 || writing()) && failure.empty(); ++i) {
          const RespValue reply =
              reader.Execute({"CG.NEIGHBORS", std::to_string(kHub)});
          if (reply.type != RespType::kArray) {
            failure = "NEIGHBORS reply is not an array";
            break;
          }
          std::unordered_set<NodeId> seen;
          int pinned = 0;
          for (const RespValue& element : reply.elements) {
            const NodeId v = static_cast<NodeId>(std::stoul(element.text));
            if (!seen.insert(v).second) failure = "duplicate neighbor";
            if (v >= kPinned) {
              ++pinned;
            } else if (v >= kPairs * kTargets) {
              failure = "neighbor no writer inserted";
            }
          }
          if (pinned != kPinnedCount) failure = "pinned neighbor missing";
        }
      } catch (const std::exception& e) {
        failure = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  // Quiesced: the adjacency is exactly the pinned edges plus the oracles.
  const RespValue final_reply =
      writers.front().Execute({"CG.NEIGHBORS", std::to_string(kHub)});
  std::unordered_set<NodeId> want;
  for (int p = 0; p < kPinnedCount; ++p) {
    want.insert(kPinned + static_cast<NodeId>(p));
  }
  for (const auto& oracle : oracles) want.insert(oracle.begin(), oracle.end());
  std::unordered_set<NodeId> got;
  for (const RespValue& element : final_reply.elements) {
    got.insert(static_cast<NodeId>(std::stoul(element.text)));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(final_reply.elements.size(), want.size());
}

TEST_F(TcpRespServerTest, BindFailureReportsAReadableErrnoMessage) {
  StartServer();
  // A second server on the same port must fail to bind, and the error
  // must carry the failing syscall plus a real message (the thread-safe
  // ErrnoString path — e.g. "bind: Address already in use"), not an
  // empty or garbage string.
  ServerConfig config;
  config.port = server_->port();
  TcpRespServer second(config, &table_);
  std::string error;
  EXPECT_FALSE(second.Start(&error));
  EXPECT_NE(error.find("bind: "), std::string::npos) << error;
  EXPECT_GT(error.size(), std::string("bind: ").size()) << error;
}

TEST_F(TcpRespServerTest, StopWhileClientsAreConnectedShutsDownCleanly) {
  StartServer();
  RespClient client = Connect();
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The dropped client notices on its next read.
  EXPECT_THROW(client.Execute({"CG.QUERY", "1", "2"}), std::runtime_error);
}

TEST_F(TcpRespServerTest, SignalStormDoesNotDisruptService) {
  // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART makes every
  // interrupted syscall return EINTR instead of transparently resuming
  // — the regression proof for the retry loops around the server's
  // eventfd ring/drain, epoll_wait, and the client's socket I/O. A
  // missing retry shows up as a lost wakeup (hang), a short frame, or a
  // spurious disconnect.
  struct sigaction noop {};
  struct sigaction previous {};
  noop.sa_handler = [](int) {};
  sigemptyset(&noop.sa_mask);
  noop.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &noop, &previous), 0);

  // Stops the storm and restores the old handler on every exit path: a
  // failed ASSERT (or a throwing Execute) leaves the test body early, and
  // destroying a still-joinable std::thread there would std::terminate
  // the whole test binary.
  struct StormGuard {
    explicit StormGuard(const struct sigaction& previous)
        : previous(previous) {}
    ~StormGuard() {
      storming.store(false, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
      EXPECT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
    }
    struct sigaction previous;
    std::atomic<bool> storming{true};
    std::thread thread;
  } storm(previous);

  StartServer();
  storm.thread = std::thread([&storm] {
    while (storm.storming.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);  // lands on an arbitrary thread
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  RespClient client = Connect();
  for (uint32_t v = 0; v < 400; ++v) {
    ASSERT_EQ(client.Execute({"CG.INSERT", "9", std::to_string(v)}).integer,
              1)
        << v;
  }
  for (uint32_t v = 0; v < 400; ++v) {
    ASSERT_EQ(client.Execute({"CG.QUERY", "9", std::to_string(v)}).integer, 1)
        << v;
  }
  // Shut down while signals still fly: Stop()'s eventfd ring is in the
  // blast radius too.
  server_->Stop();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(store_.NumEdges(), 400u);
}

}  // namespace
}  // namespace cuckoograph::server
