// AVX2 vertical SIMD probe over the open-addressing hash table.
//
// A scalar linear-probe lookup walks its cluster one slot at a time: load a
// key, compare, branch, advance — a dependent chain whose latency the
// paper's Fig. 8/Table 5 miss analysis charges to the probe phase. The
// vertical kernel widens that walk to eight slots per step: gather the
// eight keys at slots (h, h+1, ..., h+7), compare-mask against the probe
// key and against the empty marker in two vector compares, then emit the
// matches below the first empty lane in slot order. At sane load factors
// (the table doubles at 70%) one step usually covers the entire cluster,
// so the branchy per-slot loop collapses to one gather + two compares —
// and the batch driver group-prefetches the next eight clusters while the
// current ones resolve, the same MLP trick as hash/prefetch.h.
//
// Match order is byte-identical to the scalar Probe: keys are processed in
// input order, and within a cluster matches are emitted in slot order
// (ascending lane index, bounded by the first empty lane). The
// differential and property suites assert exact sequence equality.
//
// Dispatch: the AVX2 body compiles only under __AVX2__ (the build uses
// -march=native, matching sort/avxsort.cc); SimdProbeSupported() adds the
// runtime gates — __builtin_cpu_supports("avx2") and the
// $IAWJ_SIMD_PROBE=0 kill switch — and callers that find it false take the
// always-compiled scalar fallback, which produces the same sequence.
#ifndef IAWJ_HASH_SIMD_PROBE_H_
#define IAWJ_HASH_SIMD_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include "src/common/kernels.h"
#include "src/common/logging.h"
#include "src/common/tuple.h"
#include "src/hash/hash_fn.h"
#include "src/hash/linear_probe.h"
#include "src/hash/prefetch.h"

namespace iawj {
namespace kernels {

// True when the vertical probe may run here: AVX2 compiled in AND present
// on this CPU AND not disabled via $IAWJ_SIMD_PROBE=0|off|false. The env
// gate is re-read on every call (it is consulted once per run resolution,
// not per tuple) so tests can flip the kill switch without respawning.
bool SimdProbeSupported();

// Human-readable reason the last SimdProbeSupported() said false ("" when
// supported); surfaces in the microbench JSON and dispatch tests.
const char* SimdProbeUnsupportedReason();

// Scalar reference walk of one cluster — the compiled-everywhere fallback,
// and the sequence the vector body must reproduce exactly.
template <typename OnMatch>
inline void ProbeKeyScalar(const Tuple* slots, uint64_t mask, uint32_t key,
                           OnMatch&& on_match) {
  uint64_t idx = HashToSlot(key, mask);
  while (true) {
    const Tuple slot = slots[idx];
    if (slot.key == LinearProbeTable<>::kEmptyKey) return;
    if (slot.key == key) on_match(slot);
    idx = (idx + 1) & mask;
  }
}

#ifdef __AVX2__
// Eight-slot vertical cluster scan. Preconditions: capacity (mask + 1) is a
// power of two >= 32 (LinearProbeTable guarantees >= 32), keys < 2^31 so
// the empty marker 0xffffffff never equals a probe key, and the table holds
// at least one empty slot (the 70% growth bound guarantees termination).
template <typename OnMatch>
inline void ProbeKeySimd(const Tuple* slots, uint64_t mask, uint32_t key,
                         OnMatch&& on_match) {
  IAWJ_DCHECK(mask >= 31);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vkey = _mm256_set1_epi32(static_cast<int>(key));
  const __m256i vempty =
      _mm256_set1_epi32(static_cast<int>(LinearProbeTable<>::kEmptyKey));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  // Keys sit 4 bytes into each 8-byte slot: gather from &slots[0].key with
  // the slot index scaled by sizeof(Tuple).
  const int* key_base = reinterpret_cast<const int*>(&slots[0].key);
  uint64_t idx = HashToSlot(key, mask);
  while (true) {
    const __m256i vidx = _mm256_and_si256(
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(idx)), lane),
        vmask);
    const __m256i keys = _mm256_i32gather_epi32(key_base, vidx, 8);
    const uint32_t match_bits = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(keys, vkey))));
    const uint32_t empty_bits = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(keys, vempty))));
    // Matches past the first empty lane belong to other clusters.
    const uint32_t limit =
        empty_bits != 0 ? __builtin_ctz(empty_bits) : 8u;
    uint32_t emit = match_bits & ((1u << limit) - 1u);
    while (emit != 0) {
      const uint32_t j = static_cast<uint32_t>(__builtin_ctz(emit));
      on_match(slots[(idx + j) & mask]);
      emit &= emit - 1;
    }
    if (empty_bits != 0) return;
    idx = (idx + 8) & mask;
  }
}
#endif  // __AVX2__

// One key against one table, taking the vector body when compiled in.
// Callers gate on SimdProbeSupported() (via KernelPlan::simd_probe); on
// hosts where the body is compiled out this degrades to the scalar walk.
template <typename Tracer, typename OnMatch>
inline void SimdProbeKey(const LinearProbeTable<Tracer>& table, uint32_t key,
                         OnMatch&& on_match) {
#ifdef __AVX2__
  ProbeKeySimd(table.slots(), table.mask(),
               key, std::forward<OnMatch>(on_match));
#else
  ProbeKeyScalar(table.slots(), table.mask(), key,
                 std::forward<OnMatch>(on_match));
#endif
}

// Probes tuples[0..n) in input order, group-prefetching each batch's
// cluster heads before the vertical scans resolve them. on_match receives
// (probe_tuple, build_tuple) like kernels::ProbeBatched.
template <typename Tracer, typename OnMatch>
void ProbeSimdBatch(const LinearProbeTable<Tracer>& table,
                    const Tuple* tuples, size_t n, OnMatch&& on_match,
                    Tracer& tracer) {
  (void)tracer;  // the vertical probe runs only on untraced builds
  constexpr size_t kLanes = 8;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      table.PrefetchProbe(tuples[i + j].key);
    }
    for (size_t j = 0; j < kLanes; ++j) {
      const Tuple t = tuples[i + j];
      SimdProbeKey(table, t.key,
                   [&](const Tuple& match) { on_match(t, match); });
    }
  }
  for (; i < n; ++i) {
    const Tuple t = tuples[i];
    SimdProbeKey(table, t.key,
                 [&](const Tuple& match) { on_match(t, match); });
  }
}

// Tables whose storage the vertical probe can gather from: one flat
// power-of-two slot array. Only the open-addressing table qualifies; the
// bucket-chain family keeps the batched prefetch probe.
template <typename Table>
inline constexpr bool kHasFlatSlots = false;
template <typename Tracer>
inline constexpr bool kHasFlatSlots<LinearProbeTable<Tracer>> = true;

// The one probe entry point the algorithms call for a non-scalar plan:
// vertical SIMD when the plan resolved it and the table supports it,
// group-prefetched batching otherwise. Scalar plans keep their original
// per-site loops (they carry per-tuple tracer accesses this path omits).
template <typename Table, typename Tracer, typename OnMatch>
void ProbeDispatch(const Table& table, const Tuple* tuples, size_t n,
                   OnMatch&& on_match, Tracer& tracer,
                   const KernelPlan& plan) {
  if constexpr (kHasFlatSlots<Table>) {
    if (plan.simd_probe) {
      ProbeSimdBatch(table, tuples, n, std::forward<OnMatch>(on_match),
                     tracer);
      return;
    }
  }
  ProbeBatched(table, tuples, n, std::forward<OnMatch>(on_match), tracer);
}

}  // namespace kernels
}  // namespace iawj

#endif  // IAWJ_HASH_SIMD_PROBE_H_
