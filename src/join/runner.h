// Execution runner: the public entry point for running one IaWJ experiment.
//
// The runner windows the inputs, starts the virtual clock, spawns one worker
// thread per configured core, and aggregates per-worker match sinks and
// phase profiles into a RunResult carrying every metric the paper reports —
// throughput, quantile latency, progressiveness, execution-time breakdown,
// and peak tracked memory.
#ifndef IAWJ_JOIN_RUNNER_H_
#define IAWJ_JOIN_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/spill.h"
#include "src/join/context.h"
#include "src/join/recovery.h"
#include "src/profiling/cache_sim.h"
#include "src/profiling/pmu.h"
#include "src/stream/disorder.h"
#include "src/stream/stream.h"

namespace iawj {

struct RunResult {
  // Ok for a completed run. A failed run (invalid spec, memory budget
  // breach, deadline overrun, injected fault) carries the first failure and
  // whatever metrics the workers produced before unwinding — partial
  // matches/progress are meaningful, throughput/latency are best-effort.
  Status status;

  std::string algorithm;
  uint64_t inputs = 0;   // tuples inside the window, both streams
  uint64_t matches = 0;
  uint64_t checksum = 0;  // order-insensitive multiset checksum

  double last_match_ms = 0;  // stream time of the final match
  double elapsed_ms = 0;     // stream time of the whole run
  // Paper §4.2.2: total inputs divided by the timestamp of the last match.
  double throughput_per_ms = 0;
  double p95_latency_ms = 0;
  double mean_latency_ms = 0;

  ProgressRecorder progress;
  LatencyHistogram latency;
  PhaseProfile phases;  // summed across workers
  int64_t peak_tracked_bytes = 0;
  double cpu_time_ms = 0;  // process CPU consumed during the run

  // What the supervisor (join/supervisor.h) did to produce this result:
  // retries, fallbacks, shed tuples. Empty (and free) for unsupervised runs.
  RecoveryLog recovery;

  // Spill activity (io/spill.h): all-zero unless the algorithm staged
  // partitions on disk (HHJ under a memory budget). Serialized as the run
  // record's v6 `spill` block when spill.any().
  SpillStats spill;

  // Disorder-tolerant ingestion accounting (stream/disorder.h): all-zero
  // unless an ingest policy was configured, in which case the supervisor or
  // pipeline fed the inputs through the reorder buffer + watermark +
  // quarantine before execution. Serialized as the run record's v7 `ingest`
  // block when ingest.any().
  IngestStats ingest;

  // Hardware counter measurement (profiling/pmu.h): per-phase deltas summed
  // across workers when $IAWJ_PMU=1 (or --counters=pmu) and the kernel
  // allows perf_event_open; otherwise available=false with the reason.
  pmu::PmuReport pmu;

  // The kernel plan the run executed (common/kernels.h): the resolved mode
  // (scalar under a tracer or $IAWJ_KERNELS=scalar, else auto) and the
  // variant each hot-path phase actually took on this algorithm's sites,
  // accounting for AVX2 runtime dispatch. Serialized as the run record's v8
  // `kernels` block.
  KernelMode kernels_resolved = KernelMode::kScalar;
  std::string kernel_scatter = "scalar";  // "scalar" | "swwc"
  std::string kernel_build = "scalar";    // "scalar" | "lockfree"
  std::string kernel_probe = "scalar";    // "scalar" | "batched" | "simd"

  // Scheduling (join/scheduler.h): the mode the run executed (never kAuto),
  // the resolved morsel size, and — for morsel runs only — per-worker claim
  // and steal counters plus each worker's NUMA node, so Fig. 7 breakdowns
  // and Fig. 20 scalability can attribute imbalance to stolen work.
  SchedulerMode scheduler_resolved = SchedulerMode::kStatic;
  size_t morsel_size = 0;
  int numa_nodes = 1;
  std::vector<MorselStats> worker_morsels;  // empty for static runs
  std::vector<int> worker_nodes;            // parallel to worker_morsels
  MorselStats MorselTotals() const;

  // Per-input-tuple execution cost excluding wait, in nanoseconds of summed
  // worker time (the paper's "cycles per input tuple" y-axis, modulo clock
  // frequency).
  double WorkNsPerInput() const;
};

// Creates a production algorithm instance.
std::unique_ptr<JoinAlgorithm> CreateAlgorithm(AlgorithmId id);
// Creates a cache-simulator-instrumented instance (see profiling/cache_sim.h).
std::unique_ptr<JoinAlgorithm> CreateTracedAlgorithm(AlgorithmId id);

class JoinRunner {
 public:
  // Runs `id` over the window [0, spec.window_ms) of r and s. Never aborts
  // the process: configuration and runtime failures come back in
  // RunResult::status. When a deadline is configured (JoinSpec::deadline_ms
  // or $IAWJ_DEADLINE_MS) a watchdog cancels overrunning workers and the
  // result names the ones that had not finished.
  RunResult Run(AlgorithmId id, const Stream& r, const Stream& s,
                const JoinSpec& spec);

  // As Run, but with a caller-provided instance (e.g. a traced one) and
  // optional per-worker cache simulators.
  RunResult RunWith(JoinAlgorithm* algorithm, const Stream& r,
                    const Stream& s, const JoinSpec& spec,
                    CacheSim* const* cache_sims = nullptr);
};

}  // namespace iawj

#endif  // IAWJ_JOIN_RUNNER_H_
