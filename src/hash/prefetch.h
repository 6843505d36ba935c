// Software-prefetched, batched hash probe.
//
// A bucket-chain probe over a table bigger than L2 is one dependent cache
// miss per key: hash, load the bucket head, stall. The batched kernel
// breaks the dependency by working on a group of keys at a time — first
// issue a prefetch for every key's bucket head (the paper's Fig. 8/Table 5
// miss source), then resolve the probes; by the time the first chains are
// walked the later heads are in flight.
//
// The kernel calls the tables' existing Probe, so match order per key and
// sink contents are bit-identical to the scalar loops. Each table exposes a
// PrefetchProbe hint; the batch width covers the memory-level parallelism a
// core can keep in flight (~10 line-fill buffers) with headroom for chains.
#ifndef IAWJ_HASH_PREFETCH_H_
#define IAWJ_HASH_PREFETCH_H_

#include <cstddef>
#include <utility>

#include "src/common/tuple.h"

namespace iawj {
namespace kernels {

inline constexpr size_t kBatchWidth = 16;

// Probes tuples[0..n) against `table`, invoking on_match(probe_tuple,
// build_tuple) for every key match. Group-prefetches each batch's bucket
// heads before resolving the chains.
template <typename Table, typename Tracer, typename OnMatch>
void ProbeBatched(const Table& table, const Tuple* tuples, size_t n,
                  OnMatch&& on_match, Tracer& tracer) {
  size_t i = 0;
  for (; i + kBatchWidth <= n; i += kBatchWidth) {
    for (size_t j = 0; j < kBatchWidth; ++j) {
      table.PrefetchProbe(tuples[i + j].key);
    }
    for (size_t j = 0; j < kBatchWidth; ++j) {
      const Tuple t = tuples[i + j];
      table.Probe(
          t.key, [&](const auto& match) { on_match(t, match); }, tracer);
    }
  }
  for (; i < n; ++i) {
    const Tuple t = tuples[i];
    table.Probe(
        t.key, [&](const auto& match) { on_match(t, match); }, tracer);
  }
}

}  // namespace kernels
}  // namespace iawj

#endif  // IAWJ_HASH_PREFETCH_H_
