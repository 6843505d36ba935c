#include "src/join/window_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/join/supervisor.h"
#include "src/join/window_operator.h"
#include "src/profiling/metrics.h"
#include "src/profiling/trace.h"

namespace iawj {

namespace {

// Shared driver: pushes both whole streams through one WindowOperator
// (ingest → shed → segment) and flushes it, running one IaWJ per sealed
// window. Degrades gracefully on failure: each failed window is retried
// and fallen back per the supervision policy (join/supervisor.h), then —
// under a skip policy — skipped with bounded-loss accounting so one
// poisoned window cannot sink the pipeline. Without supervision, the first
// non-OK window is recorded with its partial metrics, its status copied to
// the pipeline, and no further windows run.
PipelineResult RunWindows(const Stream& r, const Stream& s,
                          const JoinSpec& spec, const WindowShape& shape,
                          const AlgorithmPolicy& policy) {
  PipelineResult pipeline;
  // Window lifecycle lands on the pipeline thread's trace row; the runner
  // nests each per-window run span inside (its ScopedThreadTrace is a no-op
  // while ours is installed).
  trace::ScopedThreadTrace pipeline_trace("window pipeline");
  JoinRunner runner;

  // Resolved once per pipeline, not per window: with nothing configured the
  // whole supervision layer reduces to this one resolve and the unsupervised
  // single-attempt path below.
  const SupervisorPolicy supervision = SupervisorPolicy::Resolve(spec);
  const IngestPolicy ingest = IngestPolicy::Resolve(
      spec.disorder_slack_ms, spec.allowed_lateness_ms, spec.ingest_dedup);
  WindowOperator op(shape, ingest, supervision);

  // Completed-window totals drive the skipped-window loss estimator.
  uint64_t ok_inputs = 0;
  uint64_t ok_matches = 0;
  bool stopped = false;

  op.Flush(r.tuples, s.tuples, [&](SealedWindow window) {
    if (stopped) return;
    const Stream& wr = window.r;
    const Stream& ws = window.s;
    JoinSpec window_spec = spec;
    window_spec.window_ms = window.length_ms;
    trace::Instant("window_open", static_cast<double>(window.index));
    WindowRun run;
    run.window_index = window.index;
    run.window_start_ms = window.start_ms;
    const AlgorithmId id = policy(wr, ws);
    run.result = RunWindowOnce(runner, id, wr, ws, window_spec, supervision,
                               window.index);
    if (supervision.Enabled()) pipeline.recovery.Merge(run.result.recovery);
    const bool failed = !run.result.status.ok();
    if (!failed) {
      pipeline.total_inputs += run.result.inputs;
      pipeline.total_matches += run.result.matches;
      pipeline.total_checksum += run.result.checksum;
      pipeline.total_elapsed_ms += run.result.elapsed_ms;
      ok_inputs += run.result.inputs;
      ok_matches += run.result.matches;
    }
    trace::Instant("window_close", static_cast<double>(window.index));
    trace::Counter("pipeline_matches",
                   static_cast<double>(pipeline.total_matches));
    if (failed && supervision.skip_failed_windows &&
        IsRetryableCode(run.result.status.code())) {
      // Bounded-loss skip: the pipeline survives, but this window's tuples
      // are gone. Estimate the matches lost as the larger of what the
      // failed attempt got out before dying (its progressiveness recorder)
      // and the completed windows' match rate extrapolated over the
      // dropped inputs.
      const uint64_t dropped = wr.size() + ws.size();
      const double rate =
          ok_inputs > 0 ? static_cast<double>(ok_matches) /
                              static_cast<double>(ok_inputs)
                        : 0;
      const double est_lost =
          std::max(static_cast<double>(run.result.progress.total()),
                   rate * static_cast<double>(dropped));
      ++pipeline.recovery.windows_skipped;
      if (metrics::Enabled()) {
        if (auto* c = metrics::GetCounter("supervisor.windows_skipped")) {
          c->Add();
        }
      }
      pipeline.recovery.tuples_dropped += dropped;
      pipeline.recovery.est_matches_lost += est_lost;
      pipeline.recovery.events.push_back(
          {RecoveryAction::kSkipWindow, run.result.status.code(),
           pipeline.recovery.attempts,
           "window " + std::to_string(window.index) + " skipped after " +
               run.result.status.ToString() + "; dropped " +
               std::to_string(dropped) + " tuples",
           0});
      trace::Instant("window_skip", static_cast<double>(window.index));
      pipeline.windows.push_back(std::move(run));
      return;
    }
    if (failed) {
      pipeline.status = run.result.status;
      stopped = true;
    }
    pipeline.windows.push_back(std::move(run));
  });

  // Shedding is reported ahead of the windows' events, as it happened
  // before any of them ran; quarantine follows them, priced at the
  // completed windows' match rate.
  RecoveryLog recovery = ShedLoss(op.tuples_shed(), op.shed_in(),
                                  supervision.shed_watermark_per_ms);
  recovery.Merge(pipeline.recovery);
  pipeline.recovery = std::move(recovery);
  if (ingest.Enabled()) {
    pipeline.ingest = op.ingest_stats();
    const double rate = ok_inputs > 0 ? static_cast<double>(ok_matches) /
                                            static_cast<double>(ok_inputs)
                                      : 0;
    pipeline.recovery.Merge(QuarantineLoss(pipeline.ingest, rate));
  }
  return pipeline;
}

}  // namespace

PipelineResult RunTumblingWindows(const Stream& r, const Stream& s,
                                  const JoinSpec& spec,
                                  const AlgorithmPolicy& policy) {
  if (spec.window_ms < 1) {
    PipelineResult pipeline;
    pipeline.status =
        Status::InvalidArgument("tumbling windows need window_ms >= 1");
    return pipeline;
  }
  return RunWindows(r, s, spec, WindowShape::Tumbling(spec.window_ms),
                    policy);
}

PipelineResult RunTumblingWindows(AlgorithmId id, const Stream& r,
                                  const Stream& s, const JoinSpec& spec) {
  return RunTumblingWindows(
      r, s, spec, [id](const Stream&, const Stream&) { return id; });
}

PipelineResult RunSlidingWindows(const Stream& r, const Stream& s,
                                 const JoinSpec& spec, uint32_t hop_ms,
                                 const AlgorithmPolicy& policy) {
  if (hop_ms < 1) {
    PipelineResult pipeline;
    pipeline.status =
        Status::InvalidArgument("sliding windows need hop_ms >= 1");
    return pipeline;
  }
  return RunWindows(r, s, spec, WindowShape::Sliding(spec.window_ms, hop_ms),
                    policy);
}

PipelineResult RunSlidingWindows(AlgorithmId id, const Stream& r,
                                 const Stream& s, const JoinSpec& spec,
                                 uint32_t hop_ms) {
  return RunSlidingWindows(
      r, s, spec, hop_ms, [id](const Stream&, const Stream&) { return id; });
}

PipelineResult RunSessionWindows(const Stream& r, const Stream& s,
                                 const JoinSpec& spec, uint32_t gap_ms,
                                 const AlgorithmPolicy& policy) {
  if (gap_ms < 1) {
    PipelineResult pipeline;
    pipeline.status =
        Status::InvalidArgument("session windows need gap_ms >= 1");
    return pipeline;
  }
  return RunWindows(r, s, spec, WindowShape::Session(gap_ms), policy);
}

PipelineResult RunSessionWindows(AlgorithmId id, const Stream& r,
                                 const Stream& s, const JoinSpec& spec,
                                 uint32_t gap_ms) {
  return RunSessionWindows(
      r, s, spec, gap_ms, [id](const Stream&, const Stream&) { return id; });
}

}  // namespace iawj
