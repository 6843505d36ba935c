// The eager execution engine (paper §3.2).
//
// An eager algorithm = a per-worker stream-join state (SHJ or PMJ) plus a
// stream distribution scheme (JM or JB). Every worker scans both inputs in
// arrival order through the virtual clock's gate, alternating between
// streams and stalling when it outruns tuple arrival — the pull loop the
// paper describes in §4.2.2. The loop takes each stream's arrived prefix in
// blocks of kEagerPullBlock tuples: one clock reading tests a block's
// arrival, one partition-phase switch covers its routing, and the owned
// tuples reach the worker's local join state as one TupleBlock, which
// emits matches eagerly.
//
// The JB router keeps per-key dispatch state ("status maintenance"), whose
// cost is the partition-phase overhead the paper isolates in §5.3.3, so it
// is updated for every owned tuple. The physical-partitioning knob (§5.5,
// Figure 17) switches between copying owned tuples into worker-local
// buffers (value tables, better locality) and referencing the shared input
// arrays (pointer tables, cheaper partitioning).
#ifndef IAWJ_JOIN_EAGER_ENGINE_H_
#define IAWJ_JOIN_EAGER_ENGINE_H_

#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "src/join/context.h"
#include "src/memory/tracker.h"
#include "src/stream/distribution.h"

namespace iawj {

// Tuples the pull loop takes from one stream per step: the clock is read
// once per block to test arrival, not once per tuple.
inline constexpr size_t kEagerPullBlock = 256;

// One block of owned tuples of one stream, in arrival order. The pointers
// reference the shared input, which outlives the run, or, under physical
// partitioning, the worker's own copy, which may move once the call
// returns: only value-storing states run with physical partitioning.
using TupleBlock = std::span<const Tuple* const>;

// Per-worker stream-join state. Implementations switch the stopwatch to the
// phase they spend time in (build/sort/merge/probe), a constant number of
// times per block.
class EagerState {
 public:
  virtual ~EagerState() = default;

  // Processes one block of owned tuples: integrate into local state, emit
  // matches.
  virtual void OnR(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) = 0;
  virtual void OnS(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) = 0;

  // Called once after both inputs are exhausted (PMJ's merge phase runs
  // here; SHJ has nothing left to do).
  virtual void Finish(MatchSink& sink, PhaseStopwatch& sw) {
    (void)sink;
    (void)sw;
  }
};

// Sizing and tuning hints handed to state constructors.
struct EagerStateConfig {
  uint64_t expected_r = 0;  // tuples this worker is expected to store from R
  uint64_t expected_s = 0;
  double pmj_delta = 0.2;
  bool store_pointers = false;  // !JoinSpec::eager_physical_partition
  bool use_simd = true;
  // Non-scalar probe kernels from the run's plan (JoinContext::kernels).
  // SHJ probes one tuple at a time, so its kernel is a cross-table
  // prefetch: while a block is inserted, hint each tuple's probe bucket in
  // the opposite table so the block's probe misses overlap the build work.
  // Always false under SimTracer.
  bool cache_kernels = false;
  // The plan's AVX2 probe (KernelPlan::simd_probe, set only for
  // linear-probe tables on AVX2 hosts): ShjLinearState runs each per-tuple
  // probe as one vertical cluster scan (hash/simd_probe.h).
  bool simd_probe = false;
  // The run's cancellation token (JoinContext::cancel; may be null). PMJ's
  // merges check it once per match run, so a deadline stops them inside a
  // hot key's block.
  const CancelToken* cancel = nullptr;
};

enum class EagerKind { kShj, kPmj };

// JB router dispatch state (§5.3.3): after each tuple is routed, the system
// records the dispatch result per key for future (balance-aware) routing
// decisions. The structure is shared — it is the router's state, not the
// workers' — so updates synchronize, which is exactly the "status
// maintenance" overhead the paper isolates, and its footprint shows up
// early in the memory-over-time profile (Figure 19b).
class RouterState {
 public:
  ~RouterState();

  // Records that `worker` received a tuple with `key`.
  void Note(uint32_t key, int worker);

  uint64_t dispatched() const { return dispatched_; }

 private:
  static constexpr int64_t kBytesPerEntry = 48;  // node + bucket estimate

  std::mutex mu_;
  std::unordered_map<uint32_t, uint32_t> last_dispatch_;
  uint64_t dispatched_ = 0;
};

template <typename Tracer = NullTracer>
class EagerJoin : public JoinAlgorithm {
 public:
  EagerJoin(EagerKind kind, DistributionScheme scheme)
      : kind_(kind), scheme_(scheme) {}

  std::string_view name() const override;

  // SHJ probes its per-stream tables on every arrival; PMJ probes none.
  KernelSites kernel_sites(const JoinSpec& spec) const override {
    if (kind_ != EagerKind::kShj) return {};
    const bool linear = spec.hash_table_kind == HashTableKind::kLinearProbe;
    return {.chained_probe = !linear, .linear_probe = linear};
  }

  Status Setup(const JoinContext& ctx) override;
  void RunWorker(const JoinContext& ctx, int worker) override;
  void Teardown() override { router_.reset(); }

 private:
  std::unique_ptr<EagerState> MakeState(const JoinContext& ctx, int worker,
                                        Tracer tracer) const;

  EagerKind kind_;
  DistributionScheme scheme_;
  std::unique_ptr<Distribution> distribution_;
  std::unique_ptr<RouterState> router_;  // JB only

  // Morsel mode (join/scheduler.h): S ownership becomes first-claimant per
  // morsel instead of seq round-robin. R ownership is replication-defined
  // (JM: everyone; JB: the key's group) and stays as-is.
  bool morsel_ = false;
  ClaimGrid s_claims_;
};

// Factories for the four eager algorithms (and their traced variants).
std::unique_ptr<JoinAlgorithm> MakeEager(AlgorithmId id);
std::unique_ptr<JoinAlgorithm> MakeEagerTraced(AlgorithmId id);

}  // namespace iawj

#endif  // IAWJ_JOIN_EAGER_ENGINE_H_
