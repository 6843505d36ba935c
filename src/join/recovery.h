// Recovery accounting for supervised execution (ISSUE 3).
//
// Every supervised run carries a RecoveryLog describing what the supervisor
// had to do to produce the result: retries taken, fallback steps walked,
// windows skipped with their bounded-loss accounting, and tuples shed under
// overload. An untouched log (the default) is all zeros with no events —
// no allocation, no atomics — so unsupervised runs pay nothing for it.
//
// Two summary predicates matter downstream (CLI exit codes, run records):
//   recovered() — the run needed intervention but the final result is
//                 complete (retries/fallbacks only; all algorithms produce
//                 the identical match multiset, so an algorithm fallback
//                 still yields the exact answer);
//   degraded()  — data was lost in a bounded, accounted way (windows
//                 skipped, tuples shed, or tuples quarantined by the
//                 ingest layer), so the result is approximate.
#ifndef IAWJ_JOIN_RECOVERY_H_
#define IAWJ_JOIN_RECOVERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace iawj {

enum class RecoveryAction {
  kRetry,              // same configuration, one more attempt
  kFallbackAlgorithm,  // e.g. PRJ -> NPJ after resource_exhausted
  kHalveThreads,       // deadline pressure: fewer workers
  kHalveRadixBits,     // deadline pressure on PRJ: cheaper partitioning
  kSkipWindow,         // pipeline gave up on one window (bounded loss)
  kShedLoad,           // overload shedding before execution (bounded loss)
  kQuarantine,         // ingest quarantined tuples (late/dup/corrupt loss)
};

std::string_view RecoveryActionName(RecoveryAction action);

struct RecoveryEvent {
  RecoveryAction action = RecoveryAction::kRetry;
  StatusCode trigger = StatusCode::kOk;  // failure code that provoked it
  int attempt = 0;      // global attempt number that failed (1-based)
  std::string detail;   // human-readable, e.g. "PRJ -> NPJ", "threads 4 -> 2"
  double backoff_ms = 0;  // slept before the next attempt (retries only)
};

struct RecoveryLog {
  std::vector<RecoveryEvent> events;

  // Attempts consumed to reach the final outcome; 0 = unsupervised run
  // (no supervision policy was in effect, nothing was counted).
  int attempts = 0;
  int fallbacks_taken = 0;

  // Bounded-loss accounting. tuples_dropped counts the skipped windows'
  // input tuples plus tuples the ingest layer quarantined (dropped-late,
  // duplicate, corrupt — stream/disorder.h); est_matches_lost extrapolates
  // the matches they would have produced (see window_pipeline.cc and
  // window_operator.h's QuarantineLoss for the estimators).
  uint64_t windows_skipped = 0;
  uint64_t tuples_dropped = 0;
  double est_matches_lost = 0;

  // Overload shedding (stream.h ShedToWatermark), both streams combined.
  uint64_t tuples_shed = 0;
  double shed_ratio = 0;

  bool recovered() const { return attempts > 1 || fallbacks_taken > 0; }
  bool degraded() const {
    return windows_skipped > 0 || tuples_shed > 0 || tuples_dropped > 0;
  }
  bool empty() const {
    return events.empty() && attempts <= 1 && fallbacks_taken == 0 &&
           !degraded();
  }

  // Folds `other` into this log (pipeline aggregation across windows).
  void Merge(const RecoveryLog& other) {
    events.insert(events.end(), other.events.begin(), other.events.end());
    attempts += other.attempts;
    fallbacks_taken += other.fallbacks_taken;
    windows_skipped += other.windows_skipped;
    tuples_dropped += other.tuples_dropped;
    est_matches_lost += other.est_matches_lost;
    tuples_shed += other.tuples_shed;
    if (other.tuples_shed > 0) shed_ratio = other.shed_ratio;
  }
};

}  // namespace iawj

#endif  // IAWJ_JOIN_RECOVERY_H_
