#include "src/join/reference.h"

#include <unordered_map>
#include <vector>

#include "src/hash/hash_fn.h"

namespace iawj {

ReferenceResult NestedLoopJoin(std::span<const Tuple> r,
                               std::span<const Tuple> s) {
  // Semantically a nested loop; implemented with a multimap index so test
  // oracles stay usable at interesting sizes.
  std::unordered_map<uint32_t, std::vector<uint32_t>> index;
  index.reserve(r.size());
  for (const Tuple& t : r) index[t.key].push_back(t.ts);

  ReferenceResult result;
  for (const Tuple& t : s) {
    auto it = index.find(t.key);
    if (it == index.end()) continue;
    for (uint32_t r_ts : it->second) {
      ++result.matches;
      result.checksum += MatchChecksum(t.key, r_ts, t.ts);
    }
  }
  return result;
}

}  // namespace iawj
