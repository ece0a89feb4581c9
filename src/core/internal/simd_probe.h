// Vectorized bucket probing for the cuckoo tables. A bucket probe compares
// one needle against every cell of a bucket; instead of a scalar loop per
// cell, these helpers compare a whole bucket per instruction and return a
// bitmask of matching cells (bit i = cell i matches).
//
// Backend selection is compile-time: SSE2 on x86-64, NEON on AArch64, and
// a portable scalar loop everywhere else or when CUCKOOGRAPH_SCALAR_PROBE
// is defined (the CMake option CUCKOOGRAPH_DISABLE_SIMD sets it). The
// *Scalar variants are always compiled so tests can cross-check the SIMD
// masks and benches can measure the win.
//
// Overread contract: the SIMD paths load 16 bytes at a time, so a byte
// run of `count` bytes handed to MatchByteMask must stay readable up to
// the next multiple of 16 bytes past its start. Every cuckoo bucket (the
// L-CHT's and the S-CHT chains', see cuckoo_block.h) stores its d
// fingerprint bytes directly before its d cells, so the load runs on
// into the bucket's own cells; a bucket shorter than the load (only
// d < 4) gets zeroed tail bytes at the end of its block. Key arrays
// handed to MatchKeyMask must hold kKeyLanes readable entries regardless
// of `count` (CuckooGraph sizes its inline-slot arrays at kKeyLanes).
// Bits past `count` are always masked off, so whatever the overread
// covers never influences a result. The scalar backend reads exactly
// `count` entries; CI builds it with CUCKOOGRAPH_DISABLE_SIMD so both
// layouts stay tested.
#ifndef CUCKOOGRAPH_CORE_INTERNAL_SIMD_PROBE_H_
#define CUCKOOGRAPH_CORE_INTERNAL_SIMD_PROBE_H_

#include <cstddef>
#include <cstdint>

#include "common/thread_annotations.h"
#include "common/types.h"

#if !defined(CUCKOOGRAPH_SCALAR_PROBE)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define CUCKOOGRAPH_PROBE_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define CUCKOOGRAPH_PROBE_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace cuckoograph::internal {

// Readable slack MatchByteMask may touch past the probed range.
inline constexpr size_t kBytePadding = 16;

// Fixed readable capacity MatchKeyMask assumes of its key array.
inline constexpr size_t kKeyLanes = 8;

// Largest bucket the byte probe can report in one mask.
inline constexpr size_t kMaxProbeWidth = 64;

inline constexpr uint64_t LowBits(size_t count) {
  return count >= 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
}

// ---- Always-compiled scalar reference paths --------------------------------

CUCKOOGRAPH_ALWAYS_INLINE uint64_t MatchByteMaskScalar(const uint8_t* bytes,
                                                       size_t count,
                                                       uint8_t needle) {
  uint64_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    mask |= static_cast<uint64_t>(bytes[i] == needle) << i;
  }
  return mask;
}

CUCKOOGRAPH_ALWAYS_INLINE uint32_t MatchKeyMaskScalar(const NodeId* keys,
                                                      size_t count,
                                                      NodeId needle) {
  uint32_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    mask |= static_cast<uint32_t>(keys[i] == needle) << i;
  }
  return mask;
}

// ---- Backend-selected paths ------------------------------------------------

#if defined(CUCKOOGRAPH_PROBE_SSE2)

inline const char* ProbeBackendName() { return "sse2"; }

// Bitmask of bytes[i] == needle over i in [0, count), count <= 64.
CUCKOOGRAPH_ALWAYS_INLINE uint64_t MatchByteMask(const uint8_t* bytes,
                                                 size_t count, uint8_t needle) {
  const __m128i splat = _mm_set1_epi8(static_cast<char>(needle));
  uint64_t mask = 0;
  for (size_t i = 0; i < count; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
    const uint32_t m = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(block, splat)));
    mask |= static_cast<uint64_t>(m) << i;
  }
  return mask & LowBits(count);
}

// Bitmask of keys[i] == needle over i in [0, count), count <= kKeyLanes.
CUCKOOGRAPH_ALWAYS_INLINE uint32_t MatchKeyMask(const NodeId* keys,
                                                size_t count, NodeId needle) {
  const __m128i splat = _mm_set1_epi32(static_cast<int>(needle));
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + 4));
  const uint32_t mlo = static_cast<uint32_t>(
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, splat))));
  const uint32_t mhi = static_cast<uint32_t>(
      _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(hi, splat))));
  return (mlo | (mhi << 4)) & static_cast<uint32_t>(LowBits(count));
}

#elif defined(CUCKOOGRAPH_PROBE_NEON)

inline const char* ProbeBackendName() { return "neon"; }

CUCKOOGRAPH_ALWAYS_INLINE uint64_t MatchByteMask(const uint8_t* bytes,
                                                 size_t count, uint8_t needle) {
  static const uint8_t kBitsPerLane[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                           1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t splat = vdupq_n_u8(needle);
  const uint8x16_t lane_bits = vld1q_u8(kBitsPerLane);
  uint64_t mask = 0;
  for (size_t i = 0; i < count; i += 16) {
    const uint8x16_t eq = vceqq_u8(vld1q_u8(bytes + i), splat);
    const uint8x16_t bits = vandq_u8(eq, lane_bits);
    const uint64_t lo = vaddv_u8(vget_low_u8(bits));
    const uint64_t hi = vaddv_u8(vget_high_u8(bits));
    mask |= (lo | (hi << 8)) << i;
  }
  return mask & LowBits(count);
}

CUCKOOGRAPH_ALWAYS_INLINE uint32_t MatchKeyMask(const NodeId* keys,
                                                size_t count, NodeId needle) {
  static const uint32_t kBitsPerLane[4] = {1, 2, 4, 8};
  const uint32x4_t splat = vdupq_n_u32(needle);
  const uint32x4_t lane_bits = vld1q_u32(kBitsPerLane);
  const uint32x4_t lo = vandq_u32(vceqq_u32(vld1q_u32(keys), splat),
                                  lane_bits);
  const uint32x4_t hi = vandq_u32(vceqq_u32(vld1q_u32(keys + 4), splat),
                                  lane_bits);
  const uint32_t mask = vaddvq_u32(lo) | (vaddvq_u32(hi) << 4);
  return mask & static_cast<uint32_t>(LowBits(count));
}

#else

inline const char* ProbeBackendName() { return "scalar"; }

CUCKOOGRAPH_ALWAYS_INLINE uint64_t MatchByteMask(const uint8_t* bytes,
                                                 size_t count, uint8_t needle) {
  return MatchByteMaskScalar(bytes, count, needle);
}

CUCKOOGRAPH_ALWAYS_INLINE uint32_t MatchKeyMask(const NodeId* keys,
                                                size_t count, NodeId needle) {
  return MatchKeyMaskScalar(keys, count, needle);
}

#endif

}  // namespace cuckoograph::internal

#endif  // CUCKOOGRAPH_CORE_INTERNAL_SIMD_PROBE_H_
