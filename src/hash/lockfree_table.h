// Lock-free (CAS head-pointer) shared hash table for the no-partitioning
// join.
//
// The latched ConcurrentBucketChainTable serializes every insert to a
// bucket behind a byte spinlock; under key skew the hot latches become the
// scaling ceiling — the contention effect the IBWJ study (PAPERS.md)
// measures on concurrent stream-join indexes. This variant removes the
// latches entirely: each bucket is a single std::atomic<Node*> head, and an
// insert publishes one tuple-sized node with a release compare-exchange
// push. There is no ABA hazard because the table is insert-only (no node is
// ever unlinked), and no lost-insert window because the CAS retries with
// the freshly observed head.
//
// Nodes come from a pool sized exactly to expected_tuples and carved by an
// atomic bump index — NPJ sizes the table to |R| up front, so steady state
// never allocates. Each thread claims nodes in batches of 64 through a
// thread-local cursor, so the global bump is touched once per batch rather
// than once per insert (the per-insert fetch_add otherwise costs as much as
// the publishing CAS itself). Inserts beyond the expectation — including
// the tail a thread strands when its last batch goes partly unused — spill
// to spinlocked overflow chunks charged to the memory tracker as they
// appear, mirroring the latched table's overflow pool. TrackedBytesFor
// lets NPJ preflight the whole allocation against the memory budget before
// construction.
//
// Probe is read-only and latch-free as before: the runner's build/probe
// barrier orders all inserts before any probe, and each head load is an
// acquire so a racing reader (the stress tests probe mid-build) still sees
// fully initialized nodes behind any head it observes.
//
// CAS pushes make each chain LIFO in publication order, so a bucket's match
// order depends on thread interleaving — exactly as it already did under
// bucket latching. Downstream equality is checked on match count plus the
// order-insensitive checksum (MatchSink), which the differential grid and
// the lock-free stress suite assert against single-threaded builds.
#ifndef IAWJ_HASH_LOCKFREE_TABLE_H_
#define IAWJ_HASH_LOCKFREE_TABLE_H_

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
class LockFreeChainTable {
 public:
  struct Node {
    Tuple tuple;
    Node* next;
  };

  // Tracked bytes the constructor will charge for `expected_tuples` (head
  // array plus the exact-size node pool; overflow chunks are charged as
  // they spill). Lets NPJ's Setup preflight against the memory budget.
  static int64_t TrackedBytesFor(uint64_t expected_tuples) {
    const size_t buckets = size_t{1} << BitsFor(expected_tuples);
    return static_cast<int64_t>(buckets * sizeof(std::atomic<Node*>) +
                                PoolNodes(expected_tuples) * sizeof(Node));
  }

  // Heads start null (std::atomic value-initializes). Pool nodes start
  // uninitialized: Insert fills a node before publishing it and nothing
  // reads an unpublished one, so the pool's pages are first touched by the
  // parallel build rather than zeroed by the constructing thread.
  explicit LockFreeChainTable(uint64_t expected_tuples)
      : bits_(BitsFor(expected_tuples)),
        heads_(size_t{1} << bits_),
        pool_size_(PoolNodes(expected_tuples)),
        pool_(std::make_unique_for_overwrite<Node[]>(pool_size_)),
        tracked_bytes_(TrackedBytesFor(expected_tuples)) {
    mem::Add(tracked_bytes_.load(std::memory_order_relaxed));
  }

  ~LockFreeChainTable() {
    mem::Add(-tracked_bytes_.load(std::memory_order_relaxed));
  }

  LockFreeChainTable(const LockFreeChainTable&) = delete;
  LockFreeChainTable& operator=(const LockFreeChainTable&) = delete;

  // Thread-safe, latch-free insert: claim a node, fill it, publish it with
  // a release CAS on the bucket head. The release pairs with the acquire
  // head load in Probe, so any reader that sees the node sees its tuple.
  void Insert(Tuple t, Tracer& tracer) {
    Node* node = AcquireNode();
    node->tuple = t;
    std::atomic<Node*>& head = heads_[HashToBucket(t.key, bits_)];
    tracer.Access(&head, sizeof(head));
    Node* expected = head.load(std::memory_order_relaxed);
    do {
      node->next = expected;
    } while (!head.compare_exchange_weak(expected, node,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  // Prefetch hint for the batched probe (hash/prefetch.h): the head
  // pointer is the first (and under low duplication, only) line touched.
  void PrefetchProbe(uint32_t key) const {
    __builtin_prefetch(&heads_[HashToBucket(key, bits_)], /*rw=*/0, 3);
  }

  // Latch-free probe. Safe concurrently with inserts (acquire/release on
  // the heads); sees every insert that happened-before the call, which the
  // runner's build/probe barrier makes all of them.
  template <typename F>
  void Probe(uint32_t key, F&& on_match, Tracer& tracer) const {
    const Node* n =
        heads_[HashToBucket(key, bits_)].load(std::memory_order_acquire);
    while (n != nullptr) {
      tracer.Access(n, sizeof(Node));
      if (n->tuple.key == key) on_match(n->tuple);
      n = n->next;
    }
  }

  // Nodes published so far, counted by walking every chain — O(buckets +
  // size), for the stress suite's tuple-conservation checks, not hot paths.
  // A claimed-but-unpublished node (a thread's unused batch tail) is
  // correctly absent.
  uint64_t size() const {
    uint64_t count = 0;
    for (const auto& h : heads_) {
      for (const Node* n = h.load(std::memory_order_acquire); n != nullptr;
           n = n->next) {
        ++count;
      }
    }
    return count;
  }

  int64_t memory_bytes() const {
    return tracked_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kChunkNodes = 4096;
  static constexpr uint64_t kClaimBatch = 64;

  static int BitsFor(uint64_t expected_tuples) {
    return Log2Ceil(std::max<uint64_t>(expected_tuples, 16));
  }

  static uint64_t PoolNodes(uint64_t expected_tuples) {
    return std::max<uint64_t>(expected_tuples, 1);
  }

  // One claim cache per thread, keyed on a process-unique table id so a
  // table constructed at a dead table's address can never satisfy a claim
  // from the old pool's leftovers.
  struct ClaimCache {
    uint64_t table_id = 0;
    uint64_t next = 0;
    uint64_t end = 0;
  };

  static uint64_t NextTableId() {
    static std::atomic<uint64_t> id{0};
    return id.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Node* AcquireNode() {
    static thread_local ClaimCache cache;
    if (cache.table_id != table_id_ || cache.next == cache.end) {
      const uint64_t begin =
          pool_next_.fetch_add(kClaimBatch, std::memory_order_relaxed);
      if (begin >= pool_size_) return AllocOverflow();
      cache.table_id = table_id_;
      cache.next = begin;
      cache.end = std::min(begin + kClaimBatch, pool_size_);
    }
    return &pool_[cache.next++];
  }

  Node* AllocOverflow() {
    // Only reachable past the expected tuple count; a global spinlock keeps
    // the rare path simple, exactly like the latched table's overflow pool.
    uint8_t expected = 0;
    while (!alloc_lock_.compare_exchange_weak(expected, 1,
                                              std::memory_order_acquire)) {
      expected = 0;
    }
    if (chunk_used_ == kChunkNodes || chunks_.empty()) {
      chunks_.push_back(std::make_unique_for_overwrite<Node[]>(kChunkNodes));
      chunk_used_ = 0;
      const auto bytes = static_cast<int64_t>(kChunkNodes * sizeof(Node));
      mem::Add(bytes);
      tracked_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    Node* n = &chunks_.back()[chunk_used_++];
    alloc_lock_.store(0, std::memory_order_release);
    return n;
  }

  int bits_;
  std::vector<std::atomic<Node*>> heads_;
  uint64_t pool_size_;
  std::unique_ptr<Node[]> pool_;
  std::atomic<uint64_t> pool_next_{0};
  const uint64_t table_id_ = NextTableId();
  std::vector<std::unique_ptr<Node[]>> chunks_;
  size_t chunk_used_ = 0;
  std::atomic<uint8_t> alloc_lock_{0};
  std::atomic<int64_t> tracked_bytes_;
};

}  // namespace iawj

#endif  // IAWJ_HASH_LOCKFREE_TABLE_H_
