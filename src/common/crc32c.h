// CRC32C (Castagnoli) checksums for snapshot integrity.
//
// The snapshot envelope (src/common/snapshot.h) protects serialized
// synopses end to end: a bit flip anywhere in a checkpoint file must be
// detected at load time rather than deserializing silently into wrong
// counts. CRC32C is the standard choice (iSCSI, ext4, RocksDB): its
// polynomial has hardware support on x86-64 since Nehalem, so checksumming
// a 128 KB synopsis costs microseconds.
//
// Hardware path: SSE4.2 `_mm_crc32_u64`, eight bytes per instruction.
// Fallback: byte-wise table over the reflected polynomial 0x82F63B78,
// generated at compile time. Both compute the standard CRC32C (initial
// state and final XOR of 0xffffffff) — e.g. Crc32c("123456789", 9) ==
// 0xE3069283 — so a snapshot written on any machine validates on any
// other. Dispatch is compile-time on the target ISA, matching the rest of
// the library's SIMD kernels (simd_scan.h, hashing.cc).

#ifndef ASKETCH_COMMON_CRC32C_H_
#define ASKETCH_COMMON_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace asketch {
namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

/// Extends the (pre-inverted) running state `crc` over `size` bytes.
inline uint32_t Crc32cUpdateScalar(uint32_t crc, const void* data,
                                   size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ bytes[i]) & 0xffu];
  }
  return crc;
}

#if defined(__SSE4_2__)
inline uint32_t Crc32cUpdateSse42(uint32_t crc, const void* data,
                                  size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t crc64 = crc;
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, bytes, sizeof(chunk));
    crc64 = _mm_crc32_u64(crc64, chunk);
    bytes += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (size > 0) {
    crc = _mm_crc32_u8(crc, *bytes++);
    --size;
  }
  return crc;
}
#endif  // __SSE4_2__

}  // namespace internal

/// Running state of an incremental CRC32C before any bytes.
inline constexpr uint32_t kCrc32cInit = ~uint32_t{0};

/// Extends an incremental CRC32C `state` over `size` more bytes. Start
/// from kCrc32cInit and finish with Crc32cFinish; splitting the input
/// across calls at any boundaries yields the same checksum as one call.
inline uint32_t Crc32cExtend(uint32_t state, const void* data, size_t size) {
#if defined(__SSE4_2__)
  return internal::Crc32cUpdateSse42(state, data, size);
#else
  return internal::Crc32cUpdateScalar(state, data, size);
#endif
}

/// The checksum of everything an incremental `state` has absorbed.
inline uint32_t Crc32cFinish(uint32_t state) { return ~state; }

/// CRC32C of `size` bytes.
inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data, size));
}

/// Portable reference implementation; the tests assert the dispatched
/// Crc32c agrees with it bit for bit.
inline uint32_t Crc32cReference(const void* data, size_t size) {
  return Crc32cFinish(internal::Crc32cUpdateScalar(kCrc32cInit, data, size));
}

}  // namespace asketch

#endif  // ASKETCH_COMMON_CRC32C_H_
