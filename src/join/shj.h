// Symmetric Hash Join state (Wilschut & Apers; paper §3.2.1, Figure 1a).
//
// One hash table per input stream; an arriving tuple is inserted into its
// own stream's table and immediately probes the opposite table. Two storage
// modes exist for the physical-partitioning study (Figure 17): value tables
// copy tuples into the buckets, pointer tables store references into the
// shared input arrays and pay an indirection on every probe.
#ifndef IAWJ_JOIN_SHJ_H_
#define IAWJ_JOIN_SHJ_H_

#include <memory>

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
      chunks_.push_back(std::make_unique<Bucket[]>(kChunkBuckets));
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

// SHJ over value-storing tables (physical partitioning on).
template <typename Tracer = NullTracer>
class ShjValueState : public EagerState {
 public:
  ShjValueState(const EagerStateConfig& config, Tracer tracer)
      : table_r_(config.expected_r),
        table_s_(config.expected_s),
        tracer_(std::move(tracer)),
        prefetch_(config.cache_kernels) {}

  void OnR(const Tuple& r, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_s_.PrefetchProbe(r.key);
    table_r_.Insert(r, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    table_s_.Probe(
        r.key, [&](Tuple s) { sink.OnMatch(r.key, r.ts, s.ts); }, tracer_);
  }

  void OnS(const Tuple& s, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_r_.PrefetchProbe(s.key);
    table_s_.Insert(s, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    table_r_.Probe(
        s.key, [&](Tuple r) { sink.OnMatch(s.key, r.ts, s.ts); }, tracer_);
  }

 private:
  BucketChainTable<Tracer> table_r_;
  BucketChainTable<Tracer> table_s_;
  Tracer tracer_;
  // Cross-table probe prefetch (EagerStateConfig::cache_kernels).
  bool prefetch_;
};

// SHJ over open-addressing tables (JoinSpec::hash_table_kind ==
// kLinearProbe); always value-storing.
template <typename Tracer = NullTracer>
class ShjLinearState : public EagerState {
 public:
  ShjLinearState(const EagerStateConfig& config, Tracer tracer)
      : table_r_(config.expected_r),
        table_s_(config.expected_s),
        tracer_(std::move(tracer)),
        prefetch_(config.cache_kernels),
        simd_(config.simd_probe) {}

  void OnR(const Tuple& r, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_s_.PrefetchProbe(r.key);
    table_r_.Insert(r, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    ProbeOpposite(table_s_, r.key,
                  [&](const Tuple& s) { sink.OnMatch(r.key, r.ts, s.ts); });
  }

  void OnS(const Tuple& s, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_r_.PrefetchProbe(s.key);
    table_s_.Insert(s, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    ProbeOpposite(table_r_, s.key,
                  [&](const Tuple& r) { sink.OnMatch(s.key, r.ts, s.ts); });
  }

 private:
  // SHJ is one probe per arrival, so there is no batch to amortize over —
  // but the vertical kernel still collapses the opposite table's cluster
  // walk into one gather + compare per 8 slots (EagerStateConfig::
  // simd_probe; false under SimTracer and on non-AVX2 hosts).
  template <typename F>
  void ProbeOpposite(const LinearProbeTable<Tracer>& table, uint32_t key,
                     F&& on_match) {
    if (simd_) {
      kernels::SimdProbeKey(table, key, std::forward<F>(on_match));
    } else {
      table.Probe(key, std::forward<F>(on_match), tracer_);
    }
  }

  LinearProbeTable<Tracer> table_r_;
  LinearProbeTable<Tracer> table_s_;
  Tracer tracer_;
  // Cross-table probe prefetch (EagerStateConfig::cache_kernels).
  bool prefetch_;
  // AVX2 vertical probe of the opposite table (EagerStateConfig::simd_probe).
  bool simd_;
};

// SHJ over pointer-storing tables (physical partitioning off; the default,
// as in the paper's §5.5 conclusion).
template <typename Tracer = NullTracer>
class ShjPointerState : public EagerState {
 public:
  ShjPointerState(const EagerStateConfig& config, Tracer tracer)
      : table_r_(config.expected_r),
        table_s_(config.expected_s),
        tracer_(std::move(tracer)),
        prefetch_(config.cache_kernels) {}

  void OnR(const Tuple& r, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_s_.PrefetchProbe(r.key);
    table_r_.Insert(&r, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    table_s_.Probe(
        r.key, [&](const Tuple& s) { sink.OnMatch(r.key, r.ts, s.ts); },
        tracer_);
  }

  void OnS(const Tuple& s, MatchSink& sink, PhaseStopwatch& sw) override {
    sw.Switch(Phase::kBuild);
    tracer_.SetPhase(Phase::kBuild);
    if (prefetch_) table_r_.PrefetchProbe(s.key);
    table_s_.Insert(&s, tracer_);
    sw.Switch(Phase::kProbe);
    tracer_.SetPhase(Phase::kProbe);
    table_r_.Probe(
        s.key, [&](const Tuple& r) { sink.OnMatch(s.key, r.ts, s.ts); },
        tracer_);
  }

 private:
  PointerBucketChainTable<Tracer> table_r_;
  PointerBucketChainTable<Tracer> table_s_;
  Tracer tracer_;
  // Cross-table probe prefetch (EagerStateConfig::cache_kernels).
  bool prefetch_;
};

}  // namespace iawj

#endif  // IAWJ_JOIN_SHJ_H_
