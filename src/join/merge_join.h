// Duplicate-aware merge join over sorted packed tuples, shared by the
// sort-merge joins (MWAY, MPASS) and PMJ's intra- and cross-run merges.
#ifndef IAWJ_JOIN_MERGE_JOIN_H_
#define IAWJ_JOIN_MERGE_JOIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/common/cancel.h"
#include "src/common/tuple.h"
#include "src/join/context.h"

namespace iawj {

// Records every pair (r[a], s[b]) of equal keys whose accept(a, b) holds.
// Each R tuple of an equal-key block meets the block's S tuples in
// MatchSink runs of at most kMaxRun. `cancel` (may be null) is checked
// before every run and every 8K outer-loop steps, so a cancelled join stops
// within one run even inside a single hot key's block.
template <typename Tracer, typename Accept>
void MergeJoin(const uint64_t* r, size_t nr, const uint64_t* s, size_t ns,
               MatchSink& sink, Tracer& tracer, const CancelToken* cancel,
               Accept&& accept) {
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };
  constexpr size_t kCancelMask = 8191;
  size_t steps = 0;
  size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    if ((++steps & kCancelMask) == 0 && cancelled()) return;
    tracer.Access(&r[i], sizeof(uint64_t));
    tracer.Access(&s[j], sizeof(uint64_t));
    const uint32_t kr = PackedKey(r[i]);
    const uint32_t ks = PackedKey(s[j]);
    if (kr < ks) {
      ++i;
    } else if (kr > ks) {
      ++j;
    } else {
      size_t i2 = i;
      while (i2 < nr && PackedKey(r[i2]) == kr) ++i2;
      size_t j2 = j;
      while (j2 < ns && PackedKey(s[j2]) == ks) ++j2;
      for (size_t a = i; a < i2; ++a) {
        const uint32_t r_ts = PackedTs(r[a]);
        tracer.Access(&r[a], sizeof(uint64_t));
        for (size_t b = j; b < j2; b += MatchSink::kMaxRun) {
          if (cancelled()) return;
          const size_t n = std::min(j2 - b, MatchSink::kMaxRun);
          for (size_t k = b; k < b + n; ++k) {
            tracer.Access(&s[k], sizeof(uint64_t));
          }
          sink.OnRun(kr, r_ts, s + b, n,
                     [&](size_t k) { return accept(a, b + k); });
        }
      }
      i = i2;
      j = j2;
    }
  }
}

}  // namespace iawj

#endif  // IAWJ_JOIN_MERGE_JOIN_H_
