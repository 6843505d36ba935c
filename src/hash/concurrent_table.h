// Shared, latched bucket-chain hash table for the no-partitioning join.
//
// NPJ (Blanas et al.) builds one table over R with all threads inserting
// concurrently; each bucket carries a byte-wide spinlock, exactly like the
// latch array in the Balkesen benchmark code. After the build barrier the
// probe phase is read-only and takes no latches. The shared table is what
// makes NPJ memory-hungry and contention-prone under key duplication —
// behaviour the paper analyses in §5.3.2 and Table 5.
#ifndef IAWJ_HASH_CONCURRENT_TABLE_H_
#define IAWJ_HASH_CONCURRENT_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bits.h"
#include "src/common/logging.h"
#include "src/common/tuple.h"
#include "src/hash/hash_fn.h"
#include "src/memory/tracker.h"
#include "src/profiling/cache_sim.h"

namespace iawj {

template <typename Tracer = NullTracer>
class ConcurrentBucketChainTable {
 public:
  static constexpr int kBucketCapacity = 2;

  struct Bucket {
    uint32_t count;
    Tuple tuples[kBucketCapacity];
    Bucket* next;
  };

  // Tracked bytes the constructor will charge for `expected_tuples` (the
  // bucket array plus latches; overflow buckets are charged as they spill).
  // Lets NPJ's Setup preflight the allocation against the memory budget.
  static int64_t TrackedBytesFor(uint64_t expected_tuples) {
    const size_t buckets = size_t{1} << BitsFor(expected_tuples);
    return static_cast<int64_t>(buckets * (sizeof(Bucket) + 1));
  }

  explicit ConcurrentBucketChainTable(uint64_t expected_tuples)
      : bits_(BitsFor(expected_tuples)),
        buckets_(size_t{1} << bits_),
        latches_(size_t{1} << bits_),
        tracked_bytes_(static_cast<int64_t>(
            buckets_.size() * sizeof(Bucket) + latches_.size())) {
    mem::Add(tracked_bytes_);
    for (auto& b : buckets_) {
      b.count = 0;
      b.next = nullptr;
    }
    for (auto& l : latches_) l.store(0, std::memory_order_relaxed);
  }

  ~ConcurrentBucketChainTable() { mem::Add(-tracked_bytes_); }

  ConcurrentBucketChainTable(const ConcurrentBucketChainTable&) = delete;
  ConcurrentBucketChainTable& operator=(const ConcurrentBucketChainTable&) =
      delete;

  // Thread-safe O(1) insert (bucket-granular latching): a full head bucket
  // is spilled into a fresh overflow bucket chained behind it.
  void Insert(Tuple t, Tracer& tracer) {
    const uint32_t index = HashToBucket(t.key, bits_);
    Lock(index);
    Bucket* head = &buckets_[index];
    tracer.Access(head, sizeof(Bucket));
    if (head->count == kBucketCapacity) {
      Bucket* spill = AllocOverflow();
      spill->count = head->count;
      spill->tuples[0] = head->tuples[0];
      spill->tuples[1] = head->tuples[1];
      spill->next = head->next;
      tracer.Access(spill, sizeof(Bucket));
      head->next = spill;
      head->count = 0;
    }
    head->tuples[head->count++] = t;
    Unlock(index);
  }

  // Prefetch hint for the batched probe (hash/prefetch.h).
  void PrefetchProbe(uint32_t key) const {
    __builtin_prefetch(&buckets_[HashToBucket(key, bits_)], /*rw=*/0, 3);
  }

  // Read-only probe; callers must ensure all inserts happened-before (the
  // runner's build/probe barrier provides that).
  template <typename F>
  void Probe(uint32_t key, F&& on_match, Tracer& tracer) const {
    const Bucket* b = &buckets_[HashToBucket(key, bits_)];
    while (b != nullptr) {
      tracer.Access(b, sizeof(Bucket));
      for (uint32_t i = 0; i < b->count; ++i) {
        if (b->tuples[i].key == key) on_match(b->tuples[i]);
      }
      b = b->next;
    }
  }

  int64_t memory_bytes() const {
    return tracked_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kChunkBuckets = 4096;

  static int BitsFor(uint64_t expected_tuples) {
    return Log2Ceil(std::max<uint64_t>(expected_tuples / kBucketCapacity, 16));
  }

  void Lock(uint32_t index) {
    auto& latch = latches_[index];
    uint8_t expected = 0;
    while (!latch.compare_exchange_weak(expected, 1,
                                        std::memory_order_acquire)) {
      expected = 0;
    }
  }

  void Unlock(uint32_t index) {
    latches_[index].store(0, std::memory_order_release);
  }

  Bucket* AllocOverflow() {
    // Overflow allocation is much rarer than inserts; a single global
    // spinlock keeps the pool simple (and mirrors the contention NPJ pays on
    // shared state anyway).
    uint8_t expected = 0;
    while (!alloc_lock_.compare_exchange_weak(expected, 1,
                                              std::memory_order_acquire)) {
      expected = 0;
    }
    if (chunk_used_ == kChunkBuckets || chunks_.empty()) {
      chunks_.push_back(
          std::make_unique_for_overwrite<Bucket[]>(kChunkBuckets));
      chunk_used_ = 0;
      const auto bytes = static_cast<int64_t>(kChunkBuckets * sizeof(Bucket));
      mem::Add(bytes);
      tracked_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    Bucket* b = &chunks_.back()[chunk_used_++];
    b->count = 0;
    b->next = nullptr;
    alloc_lock_.store(0, std::memory_order_release);
    return b;
  }

  int bits_;
  std::vector<Bucket> buckets_;
  std::vector<std::atomic<uint8_t>> latches_;
  std::vector<std::unique_ptr<Bucket[]>> chunks_;
  size_t chunk_used_ = 0;
  std::atomic<uint8_t> alloc_lock_{0};
  std::atomic<int64_t> tracked_bytes_;
};

}  // namespace iawj

#endif  // IAWJ_HASH_CONCURRENT_TABLE_H_
