// Duplicate-aware merge join over sorted packed tuples, shared by the
// sort-merge joins (MWAY, MPASS) and PMJ's intra- and cross-run merges.
//
// Match emission is the cost under key duplication (§5.3.2), so every
// equal-key block is led by its smaller side: each tuple of the side with
// fewer tuples of the key (R on ties) meets the other side's block in
// MatchSink runs of at most kMaxRun. A block of |R_k| × |S_k| pairs then
// costs min(|R_k|, |S_k|) × ⌈max(|R_k|, |S_k|) / kMaxRun⌉ runs of one
// clock read each.
#ifndef IAWJ_JOIN_MERGE_JOIN_H_
#define IAWJ_JOIN_MERGE_JOIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/common/cancel.h"
#include "src/common/tuple.h"
#include "src/join/context.h"

namespace iawj {

// Records each lead[a], a < n_lead, against every tuple of other[0, n_other),
// all of key `key`, in MatchSink runs of at most kMaxRun; kLead names the
// input `lead` comes from. `cancel` (may be null) is checked before every
// run. Returns false when cancelled.
template <Lead kLead, typename Tracer>
bool JoinLedBlock(uint32_t key, const uint64_t* lead, size_t n_lead,
                  const uint64_t* other, size_t n_other, MatchSink& sink,
                  Tracer& tracer, const CancelToken* cancel) {
  for (size_t a = 0; a < n_lead; ++a) {
    tracer.Access(&lead[a], sizeof(uint64_t));
    const uint32_t lead_ts = PackedTs(lead[a]);
    for (size_t b = 0; b < n_other; b += MatchSink::kMaxRun) {
      if (cancel != nullptr && cancel->cancelled()) return false;
      const size_t n = std::min(n_other - b, MatchSink::kMaxRun);
      for (size_t k = b; k < b + n; ++k) {
        tracer.Access(&other[k], sizeof(uint64_t));
      }
      sink.OnRun<kLead>(key, lead_ts, other + b, n,
                        [](size_t) { return true; });
    }
  }
  return true;
}

// Records every pair (r[a], s[b]) of equal keys, each equal-key block led
// by its smaller side. `cancel` (may be null) is checked before every run
// and every 8K outer-loop steps, so a cancelled join stops within one run
// even inside a single hot key's block.
template <typename Tracer>
void MergeJoin(const uint64_t* r, size_t nr, const uint64_t* s, size_t ns,
               MatchSink& sink, Tracer& tracer, const CancelToken* cancel) {
  constexpr size_t kCancelMask = 8191;
  size_t steps = 0;
  size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    if ((++steps & kCancelMask) == 0 && cancel != nullptr &&
        cancel->cancelled()) {
      return;
    }
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
      const bool done =
          i2 - i <= j2 - j
              ? JoinLedBlock<Lead::kR>(kr, r + i, i2 - i, s + j, j2 - j, sink,
                                       tracer, cancel)
              : JoinLedBlock<Lead::kS>(kr, s + j, j2 - j, r + i, i2 - i, sink,
                                       tracer, cancel);
      if (!done) return;
      i = i2;
      j = j2;
    }
  }
}

}  // namespace iawj

#endif  // IAWJ_JOIN_MERGE_JOIN_H_
