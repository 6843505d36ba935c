// Core intra-window-join API: algorithm identifiers, configuration, the
// per-worker match sink, and the execution context handed to algorithms.
//
// The runner (join/runner.h) owns the orchestration: it windows the inputs,
// starts the virtual clock, spawns one worker thread per configured core,
// and aggregates per-worker sinks and phase profiles into a RunResult.
#ifndef IAWJ_JOIN_CONTEXT_H_
#define IAWJ_JOIN_CONTEXT_H_

#include <algorithm>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/common/cancel.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/kernels.h"
#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/hash/hash_fn.h"
#include "src/join/scheduler.h"
#include "src/profiling/cache_sim.h"
#include "src/profiling/phase.h"
#include "src/profiling/progress.h"

namespace iawj {

struct SpillStats;  // io/spill.h

// The eight studied algorithms (paper Table 2), plus the robustness-layer
// hybrid hash join (kHhj), which spills cold partitions to disk when the
// window exceeds the memory budget (join/hhj.h).
enum class AlgorithmId {
  kNpj,     // lazy,  hash, no physical partitioning
  kPrj,     // lazy,  hash, radix replication
  kMway,    // lazy,  sort, multiway merge
  kMpass,   // lazy,  sort, successive two-way merges
  kShjJm,   // eager, hash, join-matrix
  kShjJb,   // eager, hash, join-biclique
  kPmjJm,   // eager, sort, join-matrix
  kPmjJb,   // eager, sort, join-biclique
  kHhj,     // lazy,  hash, hybrid with partition spilling (not in the paper)
};

// The paper's algorithm grid. Deliberately excludes kHhj: sweeps, chaos
// draws, and comparison matrices iterate this, and the spill join is an
// operational fallback rather than one of the studied designs — it is
// reached by explicit --algo=hhj or a Supervisor fallback.
inline constexpr AlgorithmId kAllAlgorithms[] = {
    AlgorithmId::kNpj,   AlgorithmId::kPrj,   AlgorithmId::kMway,
    AlgorithmId::kMpass, AlgorithmId::kShjJm, AlgorithmId::kShjJb,
    AlgorithmId::kPmjJm, AlgorithmId::kPmjJb};

std::string_view AlgorithmName(AlgorithmId id);
bool IsLazy(AlgorithmId id);
bool IsSortBased(AlgorithmId id);

// Hash-table backend for PRJ partitions and the SHJ states (NPJ's shared
// table is a chained table picked by the kernel plan; HHJ always probes
// open addressing).
enum class HashTableKind { kBucketChain, kLinearProbe };

// Every tunable the paper studies (Table 1 knobs live in the workload
// generators; these are the algorithm-side knobs of §5.5/§5.6).
struct JoinSpec {
  int num_threads = 4;
  uint32_t window_ms = 1000;

  Clock::Mode clock_mode = Clock::Mode::kInstant;
  double time_scale = 1.0;  // stream-ms advanced per wall-ms (kRealTime)

  int radix_bits = 10;       // PRJ: number of radix bits (#r), Figure 18
  int radix_passes = 1;      // PRJ: 1 or 2 partitioning passes (Balkesen)
  double pmj_delta = 0.2;    // PMJ: sorting step size (fraction), Figure 15
  int jb_group_size = 2;     // JB: core-group size (g), Figure 16
  bool eager_physical_partition = false;  // SHJ/PMJ: copy vs pointer, Fig. 17
  bool use_simd = true;      // sort kernels: AVX ablation, Figure 21
  bool pin_threads = false;  // best-effort core pinning
  HashTableKind hash_table_kind = HashTableKind::kBucketChain;
  // Hot-path kernel selection (common/kernels.h): auto runs each phase's
  // measured winner (SWWC scatter, lock-free NPJ build, SIMD or batched
  // probe) and defers to $IAWJ_KERNELS when set; scalar forces the paper's
  // loops for A/B runs. SimTracer instantiations always run scalar.
  KernelMode kernels = KernelMode::kAuto;
  // Parallel-phase scheduling (join/scheduler.h): static keeps the paper's
  // equal-chunk division; morsel switches every parallel loop to the
  // NUMA-aware work-stealing scheduler. auto defers to $IAWJ_SCHEDULER
  // (default static). morsel_size == 0 defers to $IAWJ_MORSEL_SIZE, then
  // kDefaultMorselSize.
  SchedulerMode scheduler = SchedulerMode::kAuto;
  size_t morsel_size = 0;

  // Wall-clock deadline for one run; 0 = none (then $IAWJ_DEADLINE_MS
  // applies, if set). A run that overruns is cancelled by the runner's
  // watchdog and returns DeadlineExceeded with partial metrics.
  uint32_t deadline_ms = 0;

  // --- Supervision knobs (join/supervisor.h) ---------------------------
  // Defaults leave supervision entirely off; each field falls back to its
  // environment variable when left at the default (spec wins over env,
  // like deadline_ms). See SupervisorPolicy::Resolve for the env grammar.
  int retry_max_attempts = 0;      // total attempts; 0 = $IAWJ_RETRY, 1 = off
  double retry_backoff_ms = -1;    // base backoff; < 0 = $IAWJ_RETRY's value
  bool fallback_enabled = false;   // OR'd with $IAWJ_FALLBACK
  bool skip_failed_windows = false;  // OR'd with $IAWJ_SKIP_WINDOWS
  double shed_watermark_per_ms = 0;  // 0 = $IAWJ_SHED_WATERMARK, < 0 = off
  uint64_t supervisor_seed = 42;   // backoff jitter + shed sampling RNG

  // --- Disorder-tolerant ingestion knobs (stream/disorder.h) -----------
  // Same precedence convention: > 0 wins, 0 defers to the env var, < 0 is
  // explicitly off; dedup is OR'd with $IAWJ_INGEST_DEDUP. When the
  // resolved policy is entirely off, inputs bypass the ingest layer —
  // zero copies, byte-identical pre-ingest behavior.
  double disorder_slack_ms = 0;     // 0 = $IAWJ_DISORDER_SLACK, < 0 = off
  double allowed_lateness_ms = 0;   // 0 = $IAWJ_ALLOWED_LATENESS, < 0 = off
  bool ingest_dedup = false;        // OR'd with $IAWJ_INGEST_DEDUP

  Status Validate(AlgorithmId id) const;
};

// Which input a MatchSink run's single tuple comes from. A run is one
// leading tuple against a packed block of the other input's tuples of its
// key.
enum class Lead { kR, kS };

// Per-worker match collector. Never materializes matches: constant memory
// regardless of result cardinality (§4.2.2's profiling methodology).
//
// Stamp rule: matches are recorded in runs. A run is one tuple's matches
// against at most kMaxRun equal-key tuples of the other input, and the
// merge joins let the side with fewer tuples of that key lead. Under the
// instant clock a run is counted first and stamped once afterwards; under
// the real-time clock it is stamped at its first accepted match. A run
// never spans a wait for input, so a stamp is at most one run old. The
// merge joins record runs (OnRun); hash probes record runs of one
// (OnMatch), so each of their matches is stamped.
//
// Latency is match time minus the arrival of the match's later input
// (§4.1). With the instant clock every input "arrived" at time zero, so
// latency degenerates to completion time — the at-rest semantics DEBS
// uses — and a whole run lands in one latency and one progress bucket. With
// the real-time clock each match records its own latency from the stamp.
//
// Cache-line aligned, so neighbouring workers' sinks never share a line.
class alignas(64) MatchSink {
 public:
  static constexpr size_t kMaxRun = 4096;

  void Bind(const Clock* clock) { clock_ = clock; }

  // Records the leading tuple (key, lead_ts), an R tuple under Lead::kR and
  // an S tuple under Lead::kS, matched with each packed tuple other[b] of
  // the other input and the same key, b < n <= kMaxRun, for which
  // accept(b) holds. Each pair adds MatchChecksum(key, r_ts, s_ts)
  // whichever side leads.
  template <Lead kLead = Lead::kR, typename Accept>
  void OnRun(uint32_t key, uint32_t lead_ts, const uint64_t* other, size_t n,
             Accept&& accept) {
    const auto term = [key, lead_ts](uint64_t packed) {
      const uint32_t ts = PackedTs(packed);
      return kLead == Lead::kR ? MatchChecksum(key, lead_ts, ts)
                               : MatchChecksum(key, ts, lead_ts);
    };
    uint64_t count = 0;
    uint64_t checksum = 0;
    double now = 0;
    if (clock_->mode() == Clock::Mode::kRealTime) {
      for (size_t b = 0; b < n; ++b) {
        if (!accept(b)) continue;
        if (count++ == 0) now = clock_->NowMs();
        checksum += term(other[b]);
        latency_.RecordMs(
            now - static_cast<double>(std::max(lead_ts, PackedTs(other[b]))));
      }
      if (count == 0) return;
    } else {
      // No branch, clock read or histogram call inside: the loop
      // vectorizes, and the run is stamped once it is counted.
      for (size_t b = 0; b < n; ++b) {
        const uint64_t take = accept(b) ? ~uint64_t{0} : 0;
        checksum += take & term(other[b]);
        count += take & 1;
      }
      if (count == 0) return;
      now = clock_->NowMs();
      latency_.RecordMs(now, count);
    }
    ++runs_;
    count_ += count;
    checksum_ += checksum;
    progress_.Record(now, count);
    if (now > last_match_ms_) last_match_ms_ = now;
  }

  // One match: a run of one.
  void OnMatch(uint32_t key, uint32_t r_ts, uint32_t s_ts) {
    const uint64_t s = PackTuple(Tuple{.ts = s_ts, .key = key});
    OnRun(key, r_ts, &s, 1, [](size_t) { return true; });
  }

  uint64_t count() const { return count_; }
  uint64_t checksum() const { return checksum_; }
  // Runs recorded with at least one match: one clock read each.
  uint64_t runs() const { return runs_; }
  double last_match_ms() const { return last_match_ms_; }
  const ProgressRecorder& progress() const { return progress_; }
  const LatencyHistogram& latency() const { return latency_; }

 private:
  const Clock* clock_ = nullptr;
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
  uint64_t runs_ = 0;
  double last_match_ms_ = 0;
  ProgressRecorder progress_;
  LatencyHistogram latency_;
};

static_assert(alignof(MatchSink) >= 64,
              "per-worker sinks must not share a cache line");

// Everything a worker thread needs. Owned by the runner for one run.
struct JoinContext {
  std::span<const Tuple> r;
  std::span<const Tuple> s;
  const JoinSpec* spec = nullptr;
  const Clock* clock = nullptr;
  // Stream time at which the lazy algorithms may start processing (arrival
  // of the last tuple of the window).
  double window_close_ms = 0;

  MatchSink* sinks = nullptr;        // [spec->num_threads]
  PhaseProfile* profiles = nullptr;  // [spec->num_threads]
  std::barrier<>* barrier = nullptr;
  // Per-worker cache simulators; only set by the cache-profiling benches,
  // which run algorithms instantiated with SimTracer.
  CacheSim* const* cache_sims = nullptr;
  // Run-wide cancellation (deadline watchdog, memory-budget breaches).
  CancelToken* cancel = nullptr;
  // The run's kernel plan (common/kernels.h), resolved once by the runner
  // and narrowed to the algorithm's kernel_sites(). Algorithms read it
  // rather than spec->kernels, so the run record names what ran.
  KernelPlan kernels;
  // Per-run morsel scheduler (join/scheduler.h), always set by the runner.
  // Algorithms branch on scheduler->enabled(): false keeps the static
  // ChunkForThread division, true serves every parallel phase from morsel
  // deques with NUMA-aware stealing.
  MorselScheduler* scheduler = nullptr;

  bool MorselMode() const {
    return scheduler != nullptr && scheduler->enabled();
  }

  MatchSink& sink(int t) const { return sinks[t]; }
  PhaseProfile& profile(int t) const { return profiles[t]; }

  bool Cancelled() const {
    return cancel != nullptr && cancel->cancelled();
  }

  // Cancellation checkpoint for worker threads. Returns true when the run
  // has been cancelled; on true this worker's barrier participation has
  // been dropped (releasing peers blocked at a phase barrier), so the
  // caller MUST return from RunWorker immediately without touching the
  // barrier again. Cost when not cancelled: one relaxed atomic load.
  bool AbortRequested() const {
    if (!Cancelled()) return false;
    if (barrier != nullptr) barrier->arrive_and_drop();
    return true;
  }

  // Cancellation-aware replacement for Clock::SleepUntilMs: sleeps in short
  // slices so the lazy algorithms' window wait responds to cancellation
  // within ~1 ms instead of sleeping through the deadline. Callers check
  // AbortRequested() after it returns.
  void WaitUntil(double stream_ms) const;
};

// Builds the worker-local tracer for an algorithm instantiated with Tracer.
template <typename Tracer>
Tracer MakeWorkerTracer(const JoinContext& ctx, int worker);

template <>
inline NullTracer MakeWorkerTracer<NullTracer>(const JoinContext&, int) {
  return NullTracer{};
}

template <>
inline SimTracer MakeWorkerTracer<SimTracer>(const JoinContext& ctx,
                                             int worker) {
  return SimTracer(ctx.cache_sims[worker]);
}

// A join algorithm executes as spec->num_threads workers; Setup runs once on
// the orchestrating thread before workers start (allocate shared state),
// Teardown after they join. Setup is fallible: bulk allocations preflight
// against the memory budget and a non-OK Status fails the run before any
// worker spawns. Teardown must be safe to call after a failed Setup.
class JoinAlgorithm {
 public:
  virtual ~JoinAlgorithm() = default;

  virtual std::string_view name() const = 0;
  virtual Status Setup(const JoinContext& ctx) = 0;
  virtual void RunWorker(const JoinContext& ctx, int worker) = 0;
  virtual void Teardown() {}

  // The hot-path kernel sites this algorithm has under `spec`; the runner
  // narrows JoinContext::kernels to them. The default has none.
  virtual KernelSites kernel_sites(const JoinSpec& spec) const {
    (void)spec;
    return {};
  }

  // Spill accounting for algorithms that stage partitions on disk
  // (join/hhj.h); nullptr for the in-memory algorithms. The runner reads it
  // after workers join and before Teardown.
  virtual const SpillStats* spill_stats() { return nullptr; }
};

}  // namespace iawj

#endif  // IAWJ_JOIN_CONTEXT_H_
