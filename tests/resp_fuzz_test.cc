// Seeded fuzz of RespConnection::Feed, the one parse/dispatch loop every
// transport runs. Its contract: replies depend only on the byte stream,
// never on how the stream was split into Feed calls; bytes that do not
// form a registered command never reach a handler; and a protocol error
// answers -ERR, returns false and leaves nothing buffered, so the next
// request starts clean. Deterministic seeds keep CI reproducible; crank
// the round counts locally for longer campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "redis_sim/command_table.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// Stateless commands, so two connections over the table answer the same
// stream identically.
void RegisterEcho(CommandTable* table) {
  table->RegisterCommand("ECHO", 2, [](Span<const std::string_view> argv) {
    return RespValue::Bulk(std::string(argv[1]));
  });
  table->RegisterCommand("PING", 1, [](Span<const std::string_view>) {
    return RespValue::Simple("PONG");
  });
}

std::string RandomBytes(SplitMix64* rng, size_t max_len) {
  std::string bytes(rng->NextBelow64(max_len + 1), '\0');
  for (char& c : bytes) c = static_cast<char>(rng->Next());
  return bytes;
}

std::string RandomWord(SplitMix64* rng) {
  static constexpr char kAlphabet[] = "abcXYZ019._-";
  std::string word(1 + rng->NextBelow64(12), '\0');
  for (char& c : word) c = kAlphabet[rng->NextBelow64(sizeof(kAlphabet) - 1)];
  return word;
}

// One random request frame, valid at the protocol level: replies come
// from handlers, arity or unknown-command errors, or (blank requests)
// nothing at all.
std::string RandomFrame(SplitMix64* rng) {
  switch (rng->NextBelow64(8)) {
    case 0:  // binary-safe bulk payload, CR/LF included
      return EncodeCommand({"ECHO", RandomBytes(rng, 40)});
    case 1:
      return EncodeCommand({"ping"});
    case 2:
      return "ECHO " + RandomWord(rng) + "\r\n";
    case 3:
      return "PING\n";
    case 4:
      return EncodeCommand({"NOPE", RandomWord(rng)});
    case 5:  // wrong arity
      return EncodeCommand({"Echo"});
    case 6:  // empty multibulk and blank inline line: no reply
      return rng->NextBelow64(2) == 0 ? "*0\r\n" : "\r\n";
    default:
      return EncodeCommand({"ECHO", RandomWord(rng)});
  }
}

std::string FeedWhole(const CommandTable& table, std::string_view wire) {
  RespConnection connection(&table);
  std::string out;
  EXPECT_TRUE(connection.Feed(wire, &out));
  EXPECT_EQ(connection.buffered_bytes(), 0u);
  return out;
}

TEST(RespConnectionFuzzTest, RandomSplitsMatchOneWholeFeed) {
  CommandTable table;
  RegisterEcho(&table);
  SplitMix64 rng(0xC0FFEE);
  for (int round = 0; round < 500; ++round) {
    std::string wire;
    const size_t frames = 1 + rng.NextBelow64(12);
    for (size_t i = 0; i < frames; ++i) wire += RandomFrame(&rng);
    const std::string whole = FeedWhole(table, wire);

    // Cut points anywhere; every tenth round feeds a byte at a time.
    std::vector<size_t> cuts;
    if (round % 10 == 0) {
      for (size_t i = 1; i < wire.size(); ++i) cuts.push_back(i);
    } else {
      for (uint64_t i = rng.NextBelow64(9); i > 0; --i) {
        cuts.push_back(rng.NextBelow64(wire.size() + 1));
      }
      std::sort(cuts.begin(), cuts.end());
    }
    cuts.push_back(wire.size());

    RespConnection connection(&table);
    std::string split;
    size_t start = 0;
    for (const size_t cut : cuts) {
      ASSERT_TRUE(connection.Feed(
          std::string_view(wire).substr(start, cut - start), &split));
      start = cut;
    }
    EXPECT_EQ(split, whole) << "round " << round;
    EXPECT_EQ(connection.buffered_bytes(), 0u);
  }
}

TEST(RespConnectionFuzzTest, RandomBytesNeverReachARegisteredHandler) {
  CommandTable table;
  uint64_t calls = 0;
  table.RegisterCommand("FUZZ.RECORDING.HANDLER", -1,
                        [&calls](Span<const std::string_view>) {
                          ++calls;
                          return RespValue::Simple("OK");
                        });
  // Half the bytes are RESP framing tokens, so the parser gets past the
  // first byte often enough to reach its deeper states.
  static constexpr char kTokens[] = "*$:+-\r\n0123456789 ";
  SplitMix64 rng(0xBADC0DE);
  for (int round = 0; round < 20'000; ++round) {
    std::string bytes(rng.NextBelow64(96), '\0');
    for (char& c : bytes) {
      c = rng.NextBelow64(2) == 0
              ? kTokens[rng.NextBelow64(sizeof(kTokens) - 1)]
              : static_cast<char>(rng.Next());
    }
    RespConnection connection(&table);
    std::string out;
    connection.Feed(bytes, &out);
    // Whatever came back is a well-formed run of error replies.
    std::string_view rest = out;
    while (!rest.empty()) {
      const ParseResult reply = ParseValue(rest);
      ASSERT_EQ(reply.status, ParseStatus::kOk) << "round " << round;
      EXPECT_TRUE(reply.value.IsError()) << reply.value.text;
      rest.remove_prefix(reply.consumed);
    }
  }
  EXPECT_EQ(calls, 0u);
}

// Offsets of a multibulk frame's bytes whose mutation must be a protocol
// error, whatever follows: a bulk header's '$', a bulk length digit, and
// the CR closing a bulk payload.
std::vector<size_t> PoisonableOffsets(std::string_view frame) {
  std::vector<size_t> offsets;
  size_t pos = frame.find("\r\n") + 2;  // past the "*<n>" header
  while (pos < frame.size()) {
    offsets.push_back(pos);  // '$'
    const size_t crlf = frame.find("\r\n", pos);
    for (size_t digit = pos + 1; digit < crlf; ++digit) {
      offsets.push_back(digit);
    }
    const size_t len = std::stoul(std::string(frame.substr(pos + 1)));
    pos = crlf + 2 + len;
    offsets.push_back(pos);  // payload's CR
    pos += 2;
  }
  return offsets;
}

TEST(RespConnectionFuzzTest, ProtocolErrorEmptiesTheBufferAndServesNext) {
  CommandTable table;
  RegisterEcho(&table);
  SplitMix64 rng(0xDEAD5EED);
  for (int round = 0; round < 2'000; ++round) {
    // Multibulk ECHO frames; frame `bad` gets one poisoned byte, and the
    // frames after it ride in the same Feed.
    std::vector<std::string> frames(1 + rng.NextBelow64(6));
    for (std::string& frame : frames) {
      frame = EncodeCommand({"ECHO", RandomBytes(&rng, 24)});
    }
    const size_t bad = rng.NextBelow64(frames.size());
    std::string prefix_wire;
    for (size_t i = 0; i < bad; ++i) prefix_wire += frames[i];
    const std::string prefix_replies = FeedWhole(table, prefix_wire);

    const std::vector<size_t> offsets = PoisonableOffsets(frames[bad]);
    frames[bad][offsets[rng.NextBelow64(offsets.size())]] = 'x';
    std::string wire;
    for (const std::string& frame : frames) wire += frame;

    RespConnection connection(&table);
    std::string out;
    EXPECT_FALSE(connection.Feed(wire, &out)) << "round " << round;
    EXPECT_EQ(connection.buffered_bytes(), 0u);
    ASSERT_EQ(out.compare(0, prefix_replies.size(), prefix_replies), 0);
    const std::string_view error =
        std::string_view(out).substr(prefix_replies.size());
    EXPECT_EQ(error.rfind("-ERR Protocol error", 0), 0u) << error;
    EXPECT_EQ(error.find("\r\n"), error.size() - 2) << error;

    out.clear();
    EXPECT_TRUE(connection.Feed(EncodeCommand({"PING"}), &out));
    EXPECT_EQ(out, "+PONG\r\n") << "round " << round;
  }
}

}  // namespace
}  // namespace cuckoograph::redis_sim
