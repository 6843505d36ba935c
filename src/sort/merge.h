// Run-combination strategies for the sort-based joins.
//
// MWay (Chhugani et al.) combines all sorted runs at once with a multiway
// merge; MPass (Balkesen et al.) instead applies successive two-way merge
// passes. Both are provided here over packed 64-bit tuples.
#ifndef IAWJ_SORT_MERGE_H_
#define IAWJ_SORT_MERGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sort/avxsort.h"

namespace iawj::sort {

struct Run {
  const uint64_t* data;
  size_t size;
};

// Loser-tree multiway merge of sorted runs into out (sized sum of run sizes).
void MultiwayMerge(const std::vector<Run>& runs, uint64_t* out);

// log2(#runs) passes of pairwise merging. `options` picks the merge kernel.
void MultiPassMerge(const std::vector<Run>& runs, uint64_t* out,
                    const Options& options);

}  // namespace iawj::sort

#endif  // IAWJ_SORT_MERGE_H_
