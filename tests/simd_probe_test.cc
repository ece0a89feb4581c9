// The vector bucket probes (simd_probe.h): the backend-selected masks
// must agree bit-for-bit with the scalar reference across widths, needle
// positions, and padding contents, and the fingerprint function must
// never produce the empty-cell sentinel.
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/internal/cuckoo_block.h"
#include "core/internal/simd_probe.h"
#include "gtest/gtest.h"

namespace cuckoograph::internal {
namespace {

TEST(SimdProbeTest, BackendNameIsKnown) {
  const std::string backend = ProbeBackendName();
  EXPECT_TRUE(backend == "sse2" || backend == "neon" || backend == "scalar")
      << backend;
}

TEST(SimdProbeTest, ByteMaskMatchesScalarOnRandomBuffers) {
  SplitMix64 rng(42);
  // Probed range plus the overread slack the SIMD path may touch.
  std::vector<uint8_t> bytes(kMaxProbeWidth + kBytePadding);
  for (int round = 0; round < 200; ++round) {
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(8));  // dense collisions
    }
    const uint8_t needle = static_cast<uint8_t>(rng.NextBelow(8));
    for (size_t count = 1; count <= kMaxProbeWidth; ++count) {
      ASSERT_EQ(MatchByteMask(bytes.data(), count, needle),
                MatchByteMaskScalar(bytes.data(), count, needle))
          << "count=" << count << " needle=" << int(needle);
    }
  }
}

TEST(SimdProbeTest, ByteMaskIgnoresBytesPastCount) {
  std::vector<uint8_t> bytes(kMaxProbeWidth + kBytePadding, 0xAB);
  // Everything matches, but only the first `count` bits may be set.
  for (size_t count = 1; count <= kMaxProbeWidth; ++count) {
    EXPECT_EQ(MatchByteMask(bytes.data(), count, 0xAB), LowBits(count));
  }
}

TEST(SimdProbeTest, ByteMaskFindsEmptySentinel) {
  std::vector<uint8_t> bytes(8 + kBytePadding, 0x5C);
  bytes[3] = 0;
  bytes[6] = 0;
  EXPECT_EQ(MatchByteMask(bytes.data(), 8, 0),
            (uint64_t{1} << 3) | (uint64_t{1} << 6));
}

TEST(SimdProbeTest, KeyMaskMatchesScalarOnRandomLanes) {
  SplitMix64 rng(43);
  NodeId keys[kKeyLanes];
  for (int round = 0; round < 500; ++round) {
    for (NodeId& k : keys) k = rng.NextBelow(6);  // dense collisions
    const NodeId needle = rng.NextBelow(6);
    for (size_t count = 0; count <= kKeyLanes; ++count) {
      ASSERT_EQ(MatchKeyMask(keys, count, needle),
                MatchKeyMaskScalar(keys, count, needle))
          << "count=" << count << " needle=" << needle;
    }
  }
}

TEST(SimdProbeTest, KeyMaskHandlesExtremeIds) {
  NodeId keys[kKeyLanes] = {0, ~NodeId{0}, 5, ~NodeId{0}, 0, 1, 2, 3};
  EXPECT_EQ(MatchKeyMask(keys, kKeyLanes, 0), 0b00010001u);
  EXPECT_EQ(MatchKeyMask(keys, kKeyLanes, ~NodeId{0}), 0b00001010u);
  EXPECT_EQ(MatchKeyMask(keys, 3, ~NodeId{0}), 0b00000010u);
}

TEST(SimdProbeTest, FingerprintIsNeverTheEmptySentinel) {
  SplitMix64 rng(44);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_NE(KeyFingerprint(static_cast<NodeId>(rng.Next())), 0);
  }
  EXPECT_NE(KeyFingerprint(0), 0);
  EXPECT_NE(KeyFingerprint(~NodeId{0}), 0);
}

TEST(SimdProbeTest, FingerprintIsDeterministicPerKey) {
  for (NodeId key = 0; key < 1'000; ++key) {
    EXPECT_EQ(KeyFingerprint(key), KeyFingerprint(key));
  }
}

}  // namespace
}  // namespace cuckoograph::internal
