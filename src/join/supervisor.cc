#include "src/join/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/join/window_operator.h"
#include "src/profiling/metrics.h"
#include "src/stream/disorder.h"

namespace iawj {

namespace {

// Publishes one finished supervision episode into the live metrics registry
// (profiling/metrics.h) so recovery activity is visible without parsing run
// records. One relaxed load when metrics are off.
void PublishRecoveryMetrics(const RecoveryLog& log) {
  if (!metrics::Enabled()) return;
  static metrics::Counter* retries =
      metrics::GetCounter("supervisor.retries");
  static metrics::Counter* fallbacks =
      metrics::GetCounter("supervisor.fallbacks");
  static metrics::Counter* windows_skipped =
      metrics::GetCounter("supervisor.windows_skipped");
  static metrics::Counter* tuples_shed =
      metrics::GetCounter("supervisor.tuples_shed");
  if (retries != nullptr && log.attempts > 1) {
    retries->Add(static_cast<uint64_t>(log.attempts - 1));
  }
  if (fallbacks != nullptr && log.fallbacks_taken > 0) {
    fallbacks->Add(static_cast<uint64_t>(log.fallbacks_taken));
  }
  if (windows_skipped != nullptr && log.windows_skipped > 0) {
    windows_skipped->Add(log.windows_skipped);
  }
  if (tuples_shed != nullptr && log.tuples_shed > 0) {
    tuples_shed->Add(log.tuples_shed);
  }
}

}  // namespace

std::string_view RecoveryActionName(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRetry:
      return "retry";
    case RecoveryAction::kFallbackAlgorithm:
      return "fallback_algorithm";
    case RecoveryAction::kHalveThreads:
      return "halve_threads";
    case RecoveryAction::kHalveRadixBits:
      return "halve_radix_bits";
    case RecoveryAction::kSkipWindow:
      return "skip_window";
    case RecoveryAction::kShedLoad:
      return "shed_load";
    case RecoveryAction::kQuarantine:
      return "quarantine";
  }
  return "?";
}

bool IsRetryableCode(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

namespace {

// Parses "a[:b[:c]]" of doubles; returns how many fields parsed (0 = bad).
int ParseColonDoubles(const char* text, double out[3]) {
  int n = 0;
  const char* p = text;
  while (n < 3) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) return 0;
    out[n++] = v;
    if (*end == '\0') return n;
    if (*end != ':') return 0;
    p = end + 1;
  }
  return n;
}

bool EnvBool(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Deterministic exponential backoff with jitter: attempt 1 sleeps ~base,
// attempt 2 ~base*multiplier, ... each +/- jitter fraction drawn from the
// seeded RNG, so a rerun with the same seed sleeps the same schedule.
double BackoffMs(const RetryPolicy& retry, int retry_index, Rng* rng) {
  if (retry.backoff_base_ms <= 0) return 0;
  double backoff = retry.backoff_base_ms;
  for (int i = 1; i < retry_index; ++i) backoff *= retry.backoff_multiplier;
  const double jitter = std::clamp(retry.jitter, 0.0, 1.0);
  // Uniform in [1 - jitter, 1 + jitter).
  return backoff * (1.0 - jitter + 2.0 * jitter * rng->NextDouble());
}

struct FallbackStep {
  RecoveryAction action;
  AlgorithmId id;
  JoinSpec spec;
  std::string detail;
};

// The fallback chain: status code x current configuration -> next, cheaper
// configuration, or nullopt when nothing cheaper is left (DESIGN.md
// "Supervision & recovery policy" documents the full table).
std::optional<FallbackStep> NextFallback(AlgorithmId id, const JoinSpec& spec,
                                         StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
      // Memory pressure: spill before shrinking. HHJ (join/hhj.h) keeps the
      // hot partitions resident and stages the rest on disk, so the window
      // completes exactly under the same budget that just breached. Should
      // HHJ itself exhaust a resource (disk full, budget too small even for
      // spill buffers), degrade once more to NPJ, the smallest-footprint
      // in-memory algorithm; NPJ has nowhere further to go. Every step
      // emits the identical match multiset — the answer stays exact.
      if (id != AlgorithmId::kHhj && id != AlgorithmId::kNpj) {
        FallbackStep step{RecoveryAction::kFallbackAlgorithm,
                          AlgorithmId::kHhj, spec,
                          std::string(AlgorithmName(id)) + " -> HHJ (spill)"};
        return step;
      }
      if (id == AlgorithmId::kHhj) {
        FallbackStep step{RecoveryAction::kFallbackAlgorithm,
                          AlgorithmId::kNpj, spec, "HHJ -> NPJ"};
        return step;
      }
      return std::nullopt;
    case StatusCode::kInternal:
      // A transient operator failure: degrade straight to NPJ — the failure
      // was not about memory, so the spill machinery buys nothing.
      if (id != AlgorithmId::kNpj) {
        FallbackStep step{RecoveryAction::kFallbackAlgorithm,
                          AlgorithmId::kNpj, spec,
                          std::string(AlgorithmName(id)) + " -> NPJ"};
        return step;
      }
      return std::nullopt;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      // Time pressure: cheapen PRJ's partitioning first, then shrink the
      // worker pool (on an oversubscribed host fewer workers finish
      // sooner; JB needs its group size to keep dividing the pool).
      if (id == AlgorithmId::kPrj && spec.radix_bits > 4) {
        FallbackStep step{RecoveryAction::kHalveRadixBits, id, spec, ""};
        step.spec.radix_bits = spec.radix_bits / 2;
        step.detail = "radix_bits " + std::to_string(spec.radix_bits) +
                      " -> " + std::to_string(step.spec.radix_bits);
        return step;
      }
      if (spec.num_threads > 1) {
        FallbackStep step{RecoveryAction::kHalveThreads, id, spec, ""};
        step.spec.num_threads = spec.num_threads / 2;
        if ((id == AlgorithmId::kShjJb || id == AlgorithmId::kPmjJb) &&
            !step.spec.Validate(id).ok()) {
          // Halving broke the JB grouping; shrink the group with the pool.
          step.spec.jb_group_size = 1;
        }
        step.detail = "threads " + std::to_string(spec.num_threads) + " -> " +
                      std::to_string(step.spec.num_threads);
        return step;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

}  // namespace

SupervisorPolicy SupervisorPolicy::Resolve(const JoinSpec& spec) {
  SupervisorPolicy policy;
  policy.seed = spec.supervisor_seed;

  // Retry: spec wins, then $IAWJ_RETRY=attempts[:backoff_ms[:multiplier]].
  if (spec.retry_max_attempts > 0) {
    policy.retry.max_attempts = spec.retry_max_attempts;
  } else if (const char* env = std::getenv("IAWJ_RETRY")) {
    double v[3];
    const int n = ParseColonDoubles(env, v);
    if (n >= 1 && v[0] >= 1) {
      policy.retry.max_attempts = static_cast<int>(v[0]);
      if (n >= 2 && v[1] >= 0) policy.retry.backoff_base_ms = v[1];
      if (n >= 3 && v[2] >= 1) policy.retry.backoff_multiplier = v[2];
    } else if (env[0] != '\0') {
      IAWJ_LOG(Warning) << "ignoring malformed IAWJ_RETRY='" << env
                        << "' (want attempts[:backoff_ms[:multiplier]])";
    }
  }
  if (spec.retry_backoff_ms >= 0) {
    policy.retry.backoff_base_ms = spec.retry_backoff_ms;
  }

  policy.fallback = spec.fallback_enabled || EnvBool("IAWJ_FALLBACK");
  policy.skip_failed_windows =
      spec.skip_failed_windows || EnvBool("IAWJ_SKIP_WINDOWS");

  // Shedding: spec wins (negative = explicitly off), then
  // $IAWJ_SHED_WATERMARK=rate_per_ms[:max_lag_ms].
  if (spec.shed_watermark_per_ms > 0) {
    policy.shed_watermark_per_ms = spec.shed_watermark_per_ms;
  } else if (spec.shed_watermark_per_ms == 0) {
    if (const char* env = std::getenv("IAWJ_SHED_WATERMARK")) {
      double v[3];
      const int n = ParseColonDoubles(env, v);
      if (n >= 1 && v[0] > 0) {
        policy.shed_watermark_per_ms = v[0];
        if (n >= 2 && v[1] >= 0) policy.shed_max_lag_ms = v[1];
      } else if (env[0] != '\0') {
        IAWJ_LOG(Warning) << "ignoring malformed IAWJ_SHED_WATERMARK='" << env
                          << "' (want rate_per_ms[:max_lag_ms])";
      }
    }
  }
  return policy;
}

RunResult SuperviseAttempts(AlgorithmId id, const JoinSpec& spec,
                            const SupervisorPolicy& policy,
                            const AttemptFn& attempt) {
  Rng rng(policy.seed);
  RecoveryLog log;
  const int max_attempts = std::max(1, policy.retry.max_attempts);

  AlgorithmId current_id = id;
  JoinSpec current_spec = spec;
  RunResult result;
  for (int step = 0;; ++step) {
    for (int a = 1; a <= max_attempts; ++a) {
      ++log.attempts;
      result = attempt(current_id, current_spec);
      if (result.status.ok()) {
        PublishRecoveryMetrics(log);
        result.recovery = std::move(log);
        return result;
      }
      if (a == max_attempts || !IsRetryableCode(result.status.code())) break;
      const double backoff = BackoffMs(policy.retry, a, &rng);
      log.events.push_back({RecoveryAction::kRetry, result.status.code(),
                            log.attempts,
                            "attempt " + std::to_string(log.attempts) +
                                " failed: " +
                                std::string(
                                    StatusCodeName(result.status.code())),
                            backoff});
      if (backoff > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
    }
    if (!policy.fallback || step >= policy.max_fallback_steps ||
        !IsRetryableCode(result.status.code())) {
      break;
    }
    const auto next =
        NextFallback(current_id, current_spec, result.status.code());
    if (!next.has_value()) break;
    log.events.push_back({next->action, result.status.code(), log.attempts,
                          next->detail, 0});
    ++log.fallbacks_taken;
    current_id = next->id;
    current_spec = next->spec;
  }
  PublishRecoveryMetrics(log);
  result.recovery = std::move(log);
  return result;
}

RunResult Supervisor::Run(AlgorithmId id, const Stream& r, const Stream& s,
                          const JoinSpec& spec) {
  const SupervisorPolicy policy =
      has_policy_ ? policy_ : SupervisorPolicy::Resolve(spec);
  const IngestPolicy ingest_policy = IngestPolicy::Resolve(
      spec.disorder_slack_ms, spec.allowed_lateness_ms, spec.ingest_dedup);
  JoinRunner runner;
  if (!policy.Enabled() && !ingest_policy.Enabled()) {
    return runner.Run(id, r, s, spec);
  }

  // The window operator's ingest → shed stage, one per input: ingestion
  // restores ts order through the reorder buffer + watermark + quarantine
  // (stream/disorder.h) so the shedder's backlog model and the algorithms'
  // sorted-stream assumption see an honest ordered stream, and shedding
  // thins it once, so every attempt sees the same input (deterministic:
  // same watermark + seed => same surviving tuples).
  InputStage stage_r(ingest_policy, policy, policy.seed);
  InputStage stage_s(ingest_policy, policy, policy.seed + 1);
  Stream staged_r, staged_s;
  if (!stage_r.passthrough()) {
    const std::span<const Tuple> out_r = stage_r.Push(r.tuples, /*end=*/true);
    staged_r.tuples.assign(out_r.begin(), out_r.end());
    const std::span<const Tuple> out_s = stage_s.Push(s.tuples, /*end=*/true);
    staged_s.tuples.assign(out_s.begin(), out_s.end());
  }
  const Stream& run_r = stage_r.passthrough() ? r : staged_r;
  const Stream& run_s = stage_s.passthrough() ? s : staged_s;

  RunResult result =
      policy.Enabled()
          ? SuperviseAttempts(
                id, spec, policy,
                [&](AlgorithmId attempt_id, const JoinSpec& attempt_spec) {
                  return runner.Run(attempt_id, run_r, run_s, attempt_spec);
                })
          : runner.Run(id, run_r, run_s, spec);
  const RecoveryLog shed_log =
      ShedLoss(stage_r.tuples_shed() + stage_s.tuples_shed(),
               stage_r.shed_in() + stage_s.shed_in(),
               policy.shed_watermark_per_ms);
  if (shed_log.tuples_shed > 0) {
    PublishRecoveryMetrics(shed_log);
    result.recovery.Merge(shed_log);
  }
  if (ingest_policy.Enabled()) {
    IngestStats ingest_stats = stage_r.ingest_stats();
    ingest_stats.Merge(stage_s.ingest_stats());
    result.ingest = ingest_stats;
    // Quarantine is priced at this run's own match rate.
    const double rate = result.inputs > 0
                            ? static_cast<double>(result.matches) /
                                  static_cast<double>(result.inputs)
                            : 0;
    result.recovery.Merge(QuarantineLoss(ingest_stats, rate));
  }
  return result;
}

}  // namespace iawj
