// The 64-bit input tuple used throughout the benchmark.
//
// Following the paper (§4.2.2), each tuple is a narrow <key, payload> pair of
// four bytes each, where the payload stores the tuple's arrival timestamp in
// stream-time milliseconds. Field order puts the key in the high half of the
// little-endian 64-bit image so that a single uint64 comparison orders tuples
// by (key, ts) — this is what the vectorized sort kernels exploit.
#ifndef IAWJ_COMMON_TUPLE_H_
#define IAWJ_COMMON_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace iawj {

struct Tuple {
  uint32_t ts;   // Arrival timestamp (stream-time msec); the "payload".
  uint32_t key;  // Join key, below kKeyDomainLimit.

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

// The engine's key domain: generators keep keys below 2^31, the sort joins
// order the packed key<<32|ts as a signed value, and linear-probe tables
// reserve 0xffffffff as their empty marker. Untrusted inputs (wire batches,
// workload files) are refused past it, and ingestion quarantines such
// tuples as corrupt.
inline constexpr uint32_t kKeyDomainLimit = 1u << 31;

static_assert(sizeof(Tuple) == 8, "Tuple must be exactly 64 bits");
static_assert(std::is_trivially_copyable_v<Tuple>);

// Packs a tuple into a uint64 whose integer order is (key, ts) order.
inline uint64_t PackTuple(Tuple t) {
  return (static_cast<uint64_t>(t.key) << 32) | t.ts;
}

inline Tuple UnpackTuple(uint64_t packed) {
  return Tuple{static_cast<uint32_t>(packed & 0xffffffffu),
               static_cast<uint32_t>(packed >> 32)};
}

inline uint32_t PackedKey(uint64_t packed) {
  return static_cast<uint32_t>(packed >> 32);
}

inline uint32_t PackedTs(uint64_t packed) {
  return static_cast<uint32_t>(packed & 0xffffffffu);
}

}  // namespace iawj

#endif  // IAWJ_COMMON_TUPLE_H_
