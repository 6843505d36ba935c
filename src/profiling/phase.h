// Per-thread execution-time breakdown (paper §5.3, Figure 7).
//
// Each worker attributes its wall time to one of six phases; the runner
// aggregates per-thread profiles into the per-input-tuple breakdown the paper
// reports: wait / partition / build-sort / merge / probe / others.
#ifndef IAWJ_PROFILING_PHASE_H_
#define IAWJ_PROFILING_PHASE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "src/profiling/pmu.h"
#include "src/profiling/trace.h"

namespace iawj {

enum class Phase : int {
  kWait = 0,
  kPartition,
  kBuild,   // hash-table construction, or "sort" for sort-based algorithms
  kSort,    // tuple sorting (sort-based algorithms)
  kMerge,   // run/partition merging (sort-based algorithms)
  kProbe,   // tuple matching
  kOther,
};
inline constexpr int kNumPhases = 7;

std::string_view PhaseName(Phase phase);

// One worker thread's accumulated nanoseconds per phase. Not thread-safe;
// each worker owns exactly one.
class PhaseProfile {
 public:
  PhaseProfile() { ns_.fill(0); }

  void AddNs(Phase phase, uint64_t ns) { ns_[static_cast<int>(phase)] += ns; }
  uint64_t GetNs(Phase phase) const { return ns_[static_cast<int>(phase)]; }

  void Merge(const PhaseProfile& other) {
    for (int i = 0; i < kNumPhases; ++i) ns_[i] += other.ns_[i];
  }

  uint64_t TotalNs() const {
    uint64_t total = 0;
    for (auto v : ns_) total += v;
    return total;
  }

 private:
  std::array<uint64_t, kNumPhases> ns_;
};

// RAII phase attribution. Nesting is allowed: time spent in an inner scope is
// charged to the inner phase only. When the thread has a trace recorder
// installed (trace::ScopedThreadTrace), the scope also emits a Chrome-trace
// span named after the phase; when a PMU group is installed
// (pmu::ScopedThreadPmu), entering/leaving the scope snapshots the hardware
// counters so PMU deltas follow the same nesting rules as nanoseconds.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfile* profile, Phase phase)
      : profile_(profile),
        phase_(phase),
        traced_(trace::Active()),
        pmu_prev_(pmu::SwitchPhase(phase)),
        start_(std::chrono::steady_clock::now()) {
    if (traced_) trace::BeginSpan(PhaseName(phase).data());
  }
  ~ScopedPhase() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    profile_->AddNs(phase_, static_cast<uint64_t>(ns));
    pmu::SwitchPhase(pmu_prev_);
    if (traced_) trace::EndSpan();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfile* profile_;
  Phase phase_;
  bool traced_;
  Phase pmu_prev_;
  std::chrono::steady_clock::time_point start_;
};

// Manual start/stop timer for phases interleaved at block granularity,
// where RAII scopes would be awkward (the eager engine's pull loop and its
// join states).
//
// Every phase change reads the clock once; a Switch to the phase already
// running reads none, so callers may switch per block without checking.
// clock_reads() counts the reads, which lets tests pin the budget.
//
// With a trace recorder installed the stopwatch also draws a phase timeline,
// but at bounded granularity: an open trace span only closes when the phase
// changes AND the span has been open at least trace::g_min_span_ns. Eager
// loops change phase every block; exact span-per-change would emit many
// thousands of events, so the timeline shows the phase that *started* each
// ≥threshold stretch while the nanosecond-exact attribution stays in
// PhaseProfile. The event count is thereby bounded by
// run_duration / min_span per thread.
class PhaseStopwatch {
 public:
  explicit PhaseStopwatch(PhaseProfile* profile) : profile_(profile) {}

  void Switch(Phase phase) {
    if (running_ && phase == current_) return;
    pmu::SwitchPhase(phase);  // throttled internally; see pmu.h cost model
    const auto now = std::chrono::steady_clock::now();
    ++clock_reads_;
    if (running_) {
      profile_->AddNs(current_, static_cast<uint64_t>(
                                    std::chrono::duration_cast<
                                        std::chrono::nanoseconds>(now - mark_)
                                        .count()));
    }
    current_ = phase;
    mark_ = now;
    running_ = true;
    if (trace::Active()) {
      const uint64_t now_ns = trace::NowNs();
      if (!tracing_) {
        trace::BeginSpan(PhaseName(phase).data());
        span_phase_ = phase;
        span_start_ns_ = now_ns;
        tracing_ = true;
      } else if (phase != span_phase_ &&
                 now_ns - span_start_ns_ >=
                     trace::g_min_span_ns.load(std::memory_order_relaxed)) {
        trace::EndSpan();
        trace::BeginSpan(PhaseName(phase).data());
        span_phase_ = phase;
        span_start_ns_ = now_ns;
      }
    }
  }

  void Stop() {
    if (!running_) return;
    const auto now = std::chrono::steady_clock::now();
    ++clock_reads_;
    profile_->AddNs(current_,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now - mark_)
                            .count()));
    running_ = false;
    if (tracing_) {
      trace::EndSpan();
      tracing_ = false;
    }
  }

  uint64_t clock_reads() const { return clock_reads_; }

 private:
  PhaseProfile* profile_;
  Phase current_ = Phase::kOther;
  std::chrono::steady_clock::time_point mark_;
  bool running_ = false;
  uint64_t clock_reads_ = 0;
  // Trace-timeline state (meaningful only while tracing_).
  Phase span_phase_ = Phase::kOther;
  uint64_t span_start_ns_ = 0;
  bool tracing_ = false;
};

}  // namespace iawj

#endif  // IAWJ_PROFILING_PHASE_H_
