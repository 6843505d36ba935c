// Hash functions used by the hash-join substrates.
#ifndef IAWJ_HASH_HASH_FN_H_
#define IAWJ_HASH_HASH_FN_H_

#include <bit>
#include <cstdint>

namespace iawj {

// Fibonacci/Knuth multiplicative hashing — one multiply, well-mixed high
// bits. Callers take the top `bits` via ">> (32 - bits)" or mask after a
// shift; HashToBucket does it for them.
inline uint32_t MultHash32(uint32_t key) { return key * 2654435761u; }

// Maps key to [0, 2^bits).
inline uint32_t HashToBucket(uint32_t key, int bits) {
  return bits == 0 ? 0 : MultHash32(key) >> (32 - bits);
}

// Home slot of `key` in a power-of-two open-addressing table of mask + 1
// (<= 2^32) slots: the top bits of the hash, like HashToBucket. The low
// bits of the product depend only on the key's low bits — exactly the bits
// RadixOf partitions on — so masking them would pile every key of a radix
// partition into one cluster.
inline uint64_t HashToSlot(uint32_t key, uint64_t mask) {
  return HashToBucket(key, std::popcount(mask));
}

// 64-bit mixer used for order-insensitive match checksums in tests/metrics.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// One match's term in the order-insensitive match checksum. MatchSink and
// the nested-loop oracle both sum it, so their checksums compare exactly.
inline uint64_t MatchChecksum(uint32_t key, uint32_t r_ts, uint32_t s_ts) {
  return Mix64((static_cast<uint64_t>(key) << 32) ^
               Mix64((static_cast<uint64_t>(r_ts) << 32) | s_ts));
}

}  // namespace iawj

#endif  // IAWJ_HASH_HASH_FN_H_
