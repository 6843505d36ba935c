// Open-addressing (linear probing) hash table over tuples.
//
// An alternative to the Balkesen-style bucket-chain table (see
// bucket_chain.h): one flat power-of-two slot array, duplicates cluster in
// consecutive slots, probes scan until the first empty slot. Insert-only
// (no tombstones needed) with automatic doubling at ~70% load. Exposed as
// JoinSpec::hash_table_kind so PRJ and SHJ can run on either structure —
// the `ext_hash_tables` ablation quantifies the difference the paper's
// related work (memory-efficient hash tables, Barber et al.) alludes to.
//
// Empty slots are marked with key == kEmptyKey (0xffffffff), which the
// workload generators never produce (keys stay below 2^31; see tuple.h).
#ifndef IAWJ_HASH_LINEAR_PROBE_H_
#define IAWJ_HASH_LINEAR_PROBE_H_

#include <cstdint>
#include <vector>

#include "src/common/bits.h"
#include "src/common/logging.h"
#include "src/common/tuple.h"
#include "src/hash/hash_fn.h"
#include "src/memory/tracker.h"
#include "src/profiling/cache_sim.h"

namespace iawj {

template <typename Tracer = NullTracer>
class LinearProbeTable {
 public:
  static constexpr uint32_t kEmptyKey = 0xffffffffu;

  explicit LinearProbeTable(uint64_t expected_tuples) {
    const uint64_t capacity =
        NextPow2(std::max<uint64_t>(expected_tuples * 2, 32));
    slots_.assign(capacity, Tuple{0, kEmptyKey});
    mask_ = capacity - 1;
    tracked_bytes_ = static_cast<int64_t>(capacity * sizeof(Tuple));
    mem::Add(tracked_bytes_);
  }

  ~LinearProbeTable() { mem::Add(-tracked_bytes_); }

  LinearProbeTable(const LinearProbeTable&) = delete;
  LinearProbeTable& operator=(const LinearProbeTable&) = delete;

  void Insert(Tuple t, Tracer& tracer) {
    IAWJ_DCHECK(t.key != kEmptyKey);
    if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
    uint64_t idx = HashToSlot(t.key, mask_);
    while (true) {
      tracer.Access(&slots_[idx], sizeof(Tuple));
      if (slots_[idx].key == kEmptyKey) {
        slots_[idx] = t;
        ++size_;
        return;
      }
      idx = (idx + 1) & mask_;
    }
  }

  // Prefetch hint for the batched and SIMD probes: pull the cluster's
  // first slot toward L1. Clusters span consecutive slots, so one line
  // usually covers the whole scan at sane load factors.
  void PrefetchProbe(uint32_t key) const {
    __builtin_prefetch(&slots_[HashToSlot(key, mask_)], /*rw=*/0, 3);
  }

  // Invokes on_match(Tuple) for every stored tuple with the given key.
  // Linear probing with no deletions: the cluster containing all equal keys
  // ends at the first empty slot.
  template <typename F>
  void Probe(uint32_t key, F&& on_match, Tracer& tracer) const {
    uint64_t idx = HashToSlot(key, mask_);
    while (true) {
      tracer.Access(&slots_[idx], sizeof(Tuple));
      if (slots_[idx].key == kEmptyKey) return;
      if (slots_[idx].key == key) on_match(slots_[idx]);
      idx = (idx + 1) & mask_;
    }
  }

  uint64_t size() const { return size_; }
  int64_t memory_bytes() const { return tracked_bytes_; }

  // Raw storage for the AVX2 vertical probe (hash/simd_probe.h): the flat
  // power-of-two slot array and its index mask. Capacity is always >= 32,
  // so an 8-lane gather never wraps more than once per step.
  const Tuple* slots() const { return slots_.data(); }
  uint64_t mask() const { return mask_; }

 private:
  void Grow() {
    std::vector<Tuple> old = std::move(slots_);
    const uint64_t capacity = old.size() * 2;
    slots_.assign(capacity, Tuple{0, kEmptyKey});
    mask_ = capacity - 1;
    mem::Add(static_cast<int64_t>(capacity * sizeof(Tuple)) -
             static_cast<int64_t>(old.size() * sizeof(Tuple)));
    tracked_bytes_ += static_cast<int64_t>(
        (capacity - old.size()) * sizeof(Tuple));
    for (const Tuple& t : old) {
      if (t.key == kEmptyKey) continue;
      uint64_t idx = HashToSlot(t.key, mask_);
      while (slots_[idx].key != kEmptyKey) idx = (idx + 1) & mask_;
      slots_[idx] = t;
    }
  }

  std::vector<Tuple> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
  int64_t tracked_bytes_ = 0;
};

}  // namespace iawj

#endif  // IAWJ_HASH_LINEAR_PROBE_H_
