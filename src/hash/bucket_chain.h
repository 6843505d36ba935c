// Single-writer bucket-chain hash table (Balkesen et al. design).
//
// The table is an array of fixed-capacity buckets; tuples of the same hash
// bucket chain into overflow buckets drawn from chunked bump pools. This is
// the structure PRJ builds per cache-resident partition and the one SHJ
// maintains per stream (paper §4.2.2: "we use ... the implementation of
// bucket chain hash table used in PRJ to implement the hash table of SHJ").
//
// With heavy key duplication every duplicate lands in one chain, so probes
// walk long lists — deliberately preserved, since that cost drives the
// paper's sort-vs-hash findings (§5.3.2).
//
// The Tracer template parameter feeds the cache simulator in profiling
// builds; NullTracer compiles to nothing.
#ifndef IAWJ_HASH_BUCKET_CHAIN_H_
#define IAWJ_HASH_BUCKET_CHAIN_H_

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

// Returns the number of hash bits that gives ~2 tuples per bucket.
int BucketBitsForTuples(uint64_t expected_tuples);

template <typename Tracer = NullTracer>
class BucketChainTable {
 public:
  static constexpr int kBucketCapacity = 2;

  struct Bucket {
    uint32_t count;
    Tuple tuples[kBucketCapacity];
    Bucket* next;
  };

  explicit BucketChainTable(uint64_t expected_tuples)
      : bits_(BucketBitsForTuples(expected_tuples)),
        buckets_(size_t{1} << bits_),
        tracked_bytes_(static_cast<int64_t>(buckets_.size() * sizeof(Bucket))) {
    mem::Add(tracked_bytes_);
    for (auto& b : buckets_) {
      b.count = 0;
      b.next = nullptr;
    }
  }

  ~BucketChainTable() { mem::Add(-tracked_bytes_); }

  BucketChainTable(const BucketChainTable&) = delete;
  BucketChainTable& operator=(const BucketChainTable&) = delete;

  // O(1) insert (Balkesen-style): a full head bucket is spilled into a fresh
  // overflow bucket chained behind it, so the head always has room.
  void Insert(Tuple t, Tracer& tracer) {
    Bucket* head = &buckets_[HashToBucket(t.key, bits_)];
    tracer.Access(head, sizeof(Bucket));
    if (head->count == kBucketCapacity) {
      Bucket* spill = AllocOverflow();
      *spill = *head;
      tracer.Access(spill, sizeof(Bucket));
      head->next = spill;
      head->count = 0;
    }
    head->tuples[head->count++] = t;
    ++size_;
  }

  // Prefetch hint for the batched probe (hash/prefetch.h): pull the bucket
  // head that `key` hashes to toward L1 ahead of the Probe that will touch
  // it. A pure hint — no architectural effect.
  void PrefetchProbe(uint32_t key) const {
    __builtin_prefetch(&buckets_[HashToBucket(key, bits_)], /*rw=*/0, 3);
  }

  // Invokes on_match(Tuple) for every stored tuple with the given key.
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

  uint64_t size() const { return size_; }
  int64_t memory_bytes() const { return tracked_bytes_; }

 private:
  static constexpr size_t kChunkBuckets = 4096;

  Bucket* AllocOverflow() {
    if (chunk_used_ == kChunkBuckets || chunks_.empty()) {
      chunks_.push_back(
          std::make_unique_for_overwrite<Bucket[]>(kChunkBuckets));
      chunk_used_ = 0;
      const auto bytes =
          static_cast<int64_t>(kChunkBuckets * sizeof(Bucket));
      mem::Add(bytes);
      tracked_bytes_ += bytes;
    }
    Bucket* b = &chunks_.back()[chunk_used_++];
    b->count = 0;
    b->next = nullptr;
    return b;
  }

  int bits_;
  std::vector<Bucket> buckets_;
  std::vector<std::unique_ptr<Bucket[]>> chunks_;
  size_t chunk_used_ = 0;
  uint64_t size_ = 0;
  int64_t tracked_bytes_;
};

}  // namespace iawj

#endif  // IAWJ_HASH_BUCKET_CHAIN_H_
