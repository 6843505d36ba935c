// Symmetric Hash Join state (Wilschut & Apers; paper §3.2.1, Figure 1a).
//
// One hash table per input stream; an arriving tuple is inserted into its
// own stream's table and immediately probes the opposite table (here, a
// block of arrivals at a time). Two storage modes exist for the
// physical-partitioning study (Figure 17): value tables copy tuples into the
// buckets, pointer tables store references into the shared input arrays and
// pay an indirection on every probe.
#ifndef IAWJ_JOIN_SHJ_H_
#define IAWJ_JOIN_SHJ_H_

#include <memory>
#include <type_traits>

#include "src/hash/bucket_chain.h"
#include "src/hash/linear_probe.h"
#include "src/hash/simd_probe.h"
#include "src/join/eager_engine.h"

namespace iawj {

// Bucket-chain table storing tuple pointers (the "pass the pointer" mode).
template <typename Tracer = NullTracer>
class PointerBucketChainTable {
 public:
  static constexpr int kBucketCapacity = 2;

  struct Bucket {
    uint32_t count;
    const Tuple* items[kBucketCapacity];
    Bucket* next;
  };

  explicit PointerBucketChainTable(uint64_t expected_tuples)
      : bits_(BucketBitsForTuples(expected_tuples)),
        buckets_(size_t{1} << bits_),
        tracked_bytes_(
            static_cast<int64_t>(buckets_.size() * sizeof(Bucket))) {
    mem::Add(tracked_bytes_);
    for (auto& b : buckets_) {
      b.count = 0;
      b.next = nullptr;
    }
  }

  ~PointerBucketChainTable() { mem::Add(-tracked_bytes_); }

  PointerBucketChainTable(const PointerBucketChainTable&) = delete;
  PointerBucketChainTable& operator=(const PointerBucketChainTable&) = delete;

  // O(1) insert: a full head bucket spills into a fresh overflow bucket.
  void Insert(const Tuple* t, Tracer& tracer) {
    Bucket* head = &buckets_[HashToBucket(t->key, bits_)];
    tracer.Access(head, sizeof(Bucket));
    if (head->count == kBucketCapacity) {
      Bucket* spill = AllocOverflow();
      *spill = *head;
      tracer.Access(spill, sizeof(Bucket));
      head->next = spill;
      head->count = 0;
    }
    head->items[head->count++] = t;
  }

  // Prefetch hint matching the value tables' (hash/prefetch.h).
  void PrefetchProbe(uint32_t key) const {
    __builtin_prefetch(&buckets_[HashToBucket(key, bits_)], /*rw=*/0, 3);
  }

  template <typename F>
  void Probe(uint32_t key, F&& on_match, Tracer& tracer) const {
    const Bucket* b = &buckets_[HashToBucket(key, bits_)];
    while (b != nullptr) {
      tracer.Access(b, sizeof(Bucket));
      for (uint32_t i = 0; i < b->count; ++i) {
        // The indirection into the (large, scattered) input array is the
        // cache cost of skipping physical partitioning.
        const Tuple* t = b->items[i];
        tracer.Access(t, sizeof(Tuple));
        if (t->key == key) on_match(*t);
      }
      b = b->next;
    }
  }

 private:
  static constexpr size_t kChunkBuckets = 4096;

  Bucket* AllocOverflow() {
    if (chunk_used_ == kChunkBuckets || chunks_.empty()) {
      chunks_.push_back(
          std::make_unique_for_overwrite<Bucket[]>(kChunkBuckets));
      chunk_used_ = 0;
      const auto bytes = static_cast<int64_t>(kChunkBuckets * sizeof(Bucket));
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
  int64_t tracked_bytes_;
};

// SHJ over one table per stream. Table is BucketChainTable (value tables,
// physical partitioning on), LinearProbeTable (JoinSpec::hash_table_kind ==
// kLinearProbe; always value-storing) or PointerBucketChainTable (physical
// partitioning off; the default, as in the paper's §5.5 conclusion).
//
// A block is inserted into its own stream's table, then probes the opposite
// table. Tuples of one stream never join each other and the opposite table
// does not change inside the block, so each pair is found exactly once: by
// the block of whichever of its two tuples arrived later.
template <typename Tracer, typename Table>
class ShjState : public EagerState {
 public:
  ShjState(const EagerStateConfig& config, Tracer tracer)
      : table_r_(config.expected_r),
        table_s_(config.expected_s),
        tracer_(std::move(tracer)),
        prefetch_(config.cache_kernels),
        simd_(config.simd_probe) {}

  void OnR(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) override {
    Arrive(block, table_r_, table_s_, sw,
           [&](const Tuple& r, const Tuple& s) {
             sink.OnMatch(r.key, r.ts, s.ts);
           });
  }

  void OnS(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) override {
    Arrive(block, table_s_, table_r_, sw,
           [&](const Tuple& s, const Tuple& r) {
             sink.OnMatch(s.key, r.ts, s.ts);
           });
  }

 private:
  static constexpr bool kStoresPointers =
      std::is_same_v<Table, PointerBucketChainTable<Tracer>>;

  template <typename Emit>
  void Arrive(TupleBlock block, Table& own, const Table& other,
              PhaseStopwatch& sw, Emit&& emit) {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    for (const Tuple* t : block) {
      // Cross-table prefetch (EagerStateConfig::cache_kernels): the probe's
      // miss overlaps the block's build work.
      if (prefetch_) other.PrefetchProbe(t->key);
      if constexpr (kStoresPointers) {
        own.Insert(t, tracer_);
      } else {
        own.Insert(*t, tracer_);
      }
    }
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    for (const Tuple* t : block) {
      const auto on_match = [&](const Tuple& found) { emit(*t, found); };
      if constexpr (kernels::kHasFlatSlots<Table>) {
        // The AVX2 vertical probe walks the cluster one gather + compare per
        // 8 slots (EagerStateConfig::simd_probe; false under SimTracer and
        // on non-AVX2 hosts).
        if (simd_) {
          kernels::SimdProbeKey(other, t->key, on_match);
          continue;
        }
      }
      other.Probe(t->key, on_match, tracer_);
    }
  }

  Table table_r_;
  Table table_s_;
  Tracer tracer_;
  bool prefetch_;
  bool simd_;
};

template <typename Tracer = NullTracer>
using ShjValueState = ShjState<Tracer, BucketChainTable<Tracer>>;
template <typename Tracer = NullTracer>
using ShjLinearState = ShjState<Tracer, LinearProbeTable<Tracer>>;
template <typename Tracer = NullTracer>
using ShjPointerState = ShjState<Tracer, PointerBucketChainTable<Tracer>>;

}  // namespace iawj

#endif  // IAWJ_JOIN_SHJ_H_
