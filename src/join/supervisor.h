// Supervised execution: policy-driven recovery around JoinRunner (ISSUE 3).
//
// PR 2 made every failure a typed Status; this layer turns those clean
// failures into automatic recovery. A supervised run walks up to three
// nested loops:
//
//   1. Retry — re-attempt the identical configuration up to
//      RetryPolicy::max_attempts times, sleeping an exponentially growing,
//      deterministically jittered backoff between attempts. Only transient
//      codes are retried (deadline_exceeded, resource_exhausted, cancelled,
//      internal); deterministic failures (invalid_argument, data_loss,
//      failed_precondition) fail immediately.
//   2. Fallback — once retries are exhausted, degrade the configuration:
//      resource_exhausted falls back to HHJ (the spill-capable hybrid hash
//      join, which completes the window exactly under the same budget by
//      staging cold partitions on disk) and from HHJ to NPJ (the
//      smallest-footprint in-memory algorithm); internal failures go
//      straight to NPJ; deadline_exceeded halves PRJ's radix bits and
//      then the thread count. Every algorithm produces the identical match
//      multiset, so the answer stays exact. Each step restarts the retry
//      budget and is recorded in the result's RecoveryLog.
//   3. Shedding — before any attempt, both inputs run through the window
//      operator's InputStage (join/window_operator.h): disorder-tolerant
//      ingestion under an ingest policy (stats on RunResult::ingest,
//      quarantined tuples as bounded loss), then the deterministic load
//      shedder under a shed watermark, its loss accounted in the log.
//
// Window-level supervision (retry-then-skip with bounded-loss accounting)
// reuses SuperviseAttempts through RunWindowOnce (join/window_operator.h).
//
// Zero-overhead contract: nothing here runs unless a policy is configured —
// JoinRunner itself is untouched, and an unconfigured Supervisor::Run is a
// policy resolve (a few getenv calls, once per run, no atomics) plus one
// plain JoinRunner::Run.
#ifndef IAWJ_JOIN_SUPERVISOR_H_
#define IAWJ_JOIN_SUPERVISOR_H_

#include <functional>

#include "src/join/recovery.h"
#include "src/join/runner.h"

namespace iawj {

// True for codes that may vanish on a retry (transient pressure or an
// injected/operator fault), false for deterministic configuration and data
// errors. kInternal is retryable because transient operator crashes —
// including every injected fault — surface as internal.
bool IsRetryableCode(StatusCode code);

struct RetryPolicy {
  int max_attempts = 1;         // total attempts including the first
  double backoff_base_ms = 0;   // backoff before the first retry
  double backoff_multiplier = 2.0;
  double jitter = 0.5;          // +/- fraction of the backoff, from the RNG
};

struct SupervisorPolicy {
  RetryPolicy retry;
  bool fallback = false;       // walk the fallback chain after retries
  int max_fallback_steps = 4;  // chain length bound
  bool skip_failed_windows = false;  // pipelines: skip instead of aborting
  double shed_watermark_per_ms = 0;  // sustainable ingest rate; 0 = off
  double shed_max_lag_ms = 1.0;      // tolerated backlog, in ms at watermark
  uint64_t seed = 42;                // jitter + shed sampling determinism

  bool Enabled() const {
    return retry.max_attempts > 1 || fallback || skip_failed_windows ||
           shed_watermark_per_ms > 0;
  }

  // Resolves the effective policy: spec fields win, then the environment
  // ($IAWJ_RETRY=attempts[:backoff_ms[:multiplier]], $IAWJ_FALLBACK=0|1,
  // $IAWJ_SKIP_WINDOWS=0|1, $IAWJ_SHED_WATERMARK=rate[:lag_ms]), then the
  // all-off defaults. Malformed env values are ignored with a warning —
  // supervision must never be the thing that fails a run.
  static SupervisorPolicy Resolve(const JoinSpec& spec);
};

// One supervised attempt: run `id` under `spec` and return the result.
// Callers inject their execution (plain runner, traced runner, window slice
// with its fault site) so the retry/fallback loop stays reusable.
using AttemptFn =
    std::function<RunResult(AlgorithmId id, const JoinSpec& spec)>;

// Drives the retry + fallback loops around `attempt`, recording every
// recovery action into the returned result's RecoveryLog. The log's
// `attempts` is always >= 1 on return (the run was supervised).
RunResult SuperviseAttempts(AlgorithmId id, const JoinSpec& spec,
                            const SupervisorPolicy& policy,
                            const AttemptFn& attempt);

class Supervisor {
 public:
  Supervisor() = default;
  explicit Supervisor(SupervisorPolicy policy)
      : policy_(policy), has_policy_(true) {}

  // As JoinRunner::Run, but supervised: sheds load when a watermark is
  // configured, then retries / falls back per policy. The result's
  // RecoveryLog records everything that happened; result.algorithm names
  // the algorithm that finally produced the result.
  RunResult Run(AlgorithmId id, const Stream& r, const Stream& s,
                const JoinSpec& spec);

 private:
  SupervisorPolicy policy_;
  bool has_policy_ = false;  // false: resolve from spec + env per run
};

}  // namespace iawj

#endif  // IAWJ_JOIN_SUPERVISOR_H_
