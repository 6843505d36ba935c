// Inter-window execution built from IaWJ building blocks.
//
// The paper scopes itself to a single window and notes that "designing
// efficient inter-window join algorithms by taking IaWJ as a building block
// is an exciting topic for further investigation" (§2). These pipelines are
// that composition for tumbling, sliding and session windows: both input
// streams are pushed whole into a WindowOperator (join/window_operator.h) —
// the same ingest → shed → segment operator iawj_serve feeds batch by
// batch — which is then flushed; each window it seals is joined with a
// configurable IaWJ algorithm (optionally chosen per window by the adaptive
// policy), and per-window metrics aggregate into a run summary. Each window
// is replayed on its own clock, i.e. windows execute back-to-back rather
// than overlapped — a deliberate simplification that keeps per-window
// semantics identical to the paper's single-window runs.
#ifndef IAWJ_JOIN_WINDOW_PIPELINE_H_
#define IAWJ_JOIN_WINDOW_PIPELINE_H_

#include <functional>
#include <vector>

#include "src/join/runner.h"

namespace iawj {

struct WindowRun {
  uint32_t window_index = 0;
  uint64_t window_start_ms = 0;
  RunResult result;
};

struct PipelineResult {
  // Ok when every window completed (or was skipped under a skip policy; see
  // `recovery`). On the first unrecovered-and-unskippable window failure
  // the pipeline stops, keeps the completed windows plus the failed one
  // (its RunResult carries the per-run failure), and copies that status
  // here. Invalid segmentation parameters (window/hop/gap of 0) also land
  // here, with no windows run.
  Status status;

  std::vector<WindowRun> windows;
  // Aggregates cover windows that completed OK; a failed or skipped
  // window's partial metrics stay on its WindowRun but are excluded here,
  // so the totals and the loss accounting in `recovery` stay consistent.
  uint64_t total_inputs = 0;
  uint64_t total_matches = 0;
  uint64_t total_checksum = 0;  // sum of per-window checksums
  double total_elapsed_ms = 0;  // sum of per-window elapsed stream time

  // Window-level supervision accounting (ISSUE 3): per-window retries and
  // fallbacks, skipped windows with their bounded loss (tuples_dropped +
  // est_matches_lost), and load shedding. Empty when supervision is off.
  RecoveryLog recovery;

  // Disorder-tolerant ingestion accounting (stream/disorder.h): all-zero
  // unless an ingest policy was configured; quarantined tuples are folded
  // into `recovery`'s bounded-loss fields.
  IngestStats ingest;
};

// Chooses the algorithm for one window, given its (already segmented,
// rebased) inputs. The default policy returns a fixed algorithm; the
// adaptive policy (join/adaptive.h) plugs in here.
using AlgorithmPolicy =
    std::function<AlgorithmId(const Stream& r, const Stream& s)>;

// Runs consecutive tumbling windows of spec.window_ms over r and s. Tuples
// beyond the last complete window form a final partial window. The spec's
// clock settings apply to every window (each window restarts the clock).
// When the spec resolves an ingest policy (disorder_slack_ms /
// allowed_lateness_ms / ingest_dedup or their env vars), r and s are taken
// as arrival-order sequences and restored by the operator's ingestion, R
// before S; a shed watermark thins them after. The same applies to the
// sliding and session entry points below.
PipelineResult RunTumblingWindows(const Stream& r, const Stream& s,
                                  const JoinSpec& spec,
                                  const AlgorithmPolicy& policy);

// Convenience overload with a fixed algorithm.
PipelineResult RunTumblingWindows(AlgorithmId id, const Stream& r,
                                  const Stream& s, const JoinSpec& spec);

// Sliding windows: one window of length spec.window_ms starts every hop_ms
// (hop_ms <= window_ms overlaps). Each window instance is an independent
// IaWJ, per the paper's §2 definition — matches in the overlap are reported
// by every window containing them.
PipelineResult RunSlidingWindows(const Stream& r, const Stream& s,
                                 const JoinSpec& spec, uint32_t hop_ms,
                                 const AlgorithmPolicy& policy);

PipelineResult RunSlidingWindows(AlgorithmId id, const Stream& r,
                                 const Stream& s, const JoinSpec& spec,
                                 uint32_t hop_ms);

// Session windows: a window closes once both streams are silent for at
// least gap_ms; window lengths are data-dependent (spec.window_ms is
// ignored for segmentation and set per session internally).
PipelineResult RunSessionWindows(const Stream& r, const Stream& s,
                                 const JoinSpec& spec, uint32_t gap_ms,
                                 const AlgorithmPolicy& policy);

PipelineResult RunSessionWindows(AlgorithmId id, const Stream& r,
                                 const Stream& s, const JoinSpec& spec,
                                 uint32_t gap_ms);

}  // namespace iawj

#endif  // IAWJ_JOIN_WINDOW_PIPELINE_H_
