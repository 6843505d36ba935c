// The push-based window operator: the one ingest → shed → segment
// implementation behind every inter-window consumer (paper §2's next step,
// kept incremental as IBWJ and PanJoin keep their window state).
//
// Each input runs through an InputStage — disorder-tolerant ingestion
// (stream/disorder.h) under an ingest policy, then load shedding (stream.h)
// under a shed watermark — and the stage output is sliced into windows of
// one WindowShape. A window [a, b) seals once b <= the seal frontier of
// both inputs, so it holds exactly what a whole-stream run would give it.
// The offline pipelines (window_pipeline.h) push whole streams and flush;
// iawj_serve pushes each batch of a tenant into that tenant's operator,
// which holds only unsealed tuples and its stages' buffers.
#ifndef IAWJ_JOIN_WINDOW_OPERATOR_H_
#define IAWJ_JOIN_WINDOW_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/join/recovery.h"
#include "src/join/runner.h"
#include "src/join/supervisor.h"
#include "src/stream/disorder.h"
#include "src/stream/stream.h"

namespace iawj {

// One input's ingest → shed stage; a part is off when its policy is, and
// with both off batches pass through uncopied.
class InputStage {
 public:
  static constexpr uint64_t kEnded = UINT64_MAX;  // frontier once ended

  InputStage(const IngestPolicy& ingest, const SupervisorPolicy& supervision,
             uint64_t shed_seed);

  // Feeds the next arrivals (in ts order unless an ingest policy restores
  // it), then with `end` ends the input. Returns what left the stage, in ts
  // order: `arrivals` itself when passing through, else a stage buffer
  // valid until the next call.
  std::span<const Tuple> Push(std::span<const Tuple> arrivals, bool end);
  // What the last Push admitted before shedding, valid as Push's result is.
  std::span<const Tuple> admitted() const { return admitted_; }
  // Every later output has ts >= frontier(): the last timestamp pushed, or
  // under an ingest policy min(emit frontier, watermark); capped by the
  // shedder's held bucket.
  uint64_t frontier() const;
  size_t held() const;
  bool passthrough() const { return !ingester_ && !shedder_; }
  IngestStats ingest_stats() const {
    return ingester_ ? ingester_->stats() : IngestStats{};
  }
  uint64_t shed_in() const { return shedder_ ? shedder_->tuples_in() : 0; }
  uint64_t tuples_shed() const {
    return shedder_ ? shedder_->tuples_shed() : 0;
  }

 private:
  uint64_t UpstreamFrontier() const;

  std::optional<StreamIngester> ingester_;
  std::optional<StreamShedder> shedder_;
  std::vector<Tuple> ingested_, shed_;  // the last Push's outputs
  std::span<const Tuple> admitted_;
  uint32_t last_ts_ = 0;  // without an ingester: largest timestamp pushed
  bool ended_ = false;
};

// Tumbling windows are sliding windows with hop == length (hop >= 1);
// gap_ms > 0 selects session windows, closed by that much joint silence.
struct WindowShape {
  uint32_t length_ms = 0, hop_ms = 0, gap_ms = 0;

  static WindowShape Tumbling(uint32_t ms) { return {ms, ms, 0}; }
  static WindowShape Sliding(uint32_t ms, uint32_t hop) {
    return {ms, hop, 0};
  }
  static WindowShape Session(uint32_t gap) { return {0, 0, gap}; }
};

struct SealedWindow {
  // start / hop, or the session's ordinal. Empty windows are never emitted
  // but keep their index.
  uint32_t index = 0;
  uint64_t start_ms = 0;
  uint32_t length_ms = 0;
  Stream r, s;  // ts rebased to start_ms
};

using WindowSink = std::function<void(SealedWindow window)>;

class WindowOperator {
 public:
  // Shed seeds: supervision.seed for R, + 1 for S.
  WindowOperator(const WindowShape& shape, const IngestPolicy& ingest,
                 const SupervisorPolicy& supervision);

  // Ingests, sheds and slices the next arrivals (R's first) and hands every
  // window that sealed to `sink`, in window order.
  void Push(std::span<const Tuple> r, std::span<const Tuple> s,
            const WindowSink& sink) {
    Feed(r, s, false, sink);
  }
  // As Push with the inputs' last arrivals, then ends both — R before S's
  // arrivals are ingested, as a whole-stream run ingests — and hands every
  // remaining window to `sink`.
  void Flush(std::span<const Tuple> r, std::span<const Tuple> s,
             const WindowSink& sink) {
    Feed(r, s, true, sink);
  }

  // The seal frontier of input 0 (R) or 1 (S); see InputStage::frontier.
  uint64_t frontier(int input) const { return inputs_[input].stage.frontier(); }
  // Unsealed tuples plus the stages' buffers.
  size_t buffered() const;
  IngestStats ingest_stats() const;  // R's merged with S's
  uint64_t shed_in() const;
  uint64_t tuples_shed() const;

 private:
  struct Input {
    explicit Input(InputStage input_stage) : stage(std::move(input_stage)) {}

    InputStage stage;
    std::vector<Tuple> unsealed;   // stage output of unsealed windows
    std::span<const Tuple> fresh;  // this call's pass-through batch, after it
    std::deque<uint32_t> marks;    // sessions: admitted ts not yet merged
  };

  void Feed(std::span<const Tuple> r, std::span<const Tuple> s, bool end,
            const WindowSink& sink);
  void SealPeriodic(uint64_t limit, const WindowSink& sink);
  void SealSessions(uint64_t limit, const WindowSink& sink);
  void Emit(uint64_t index, uint64_t start, uint64_t end,
            const WindowSink& sink);

  WindowShape shape_;
  Input inputs_[2];
  uint64_t next_window_ = 0;  // periodic: first window not yet sealed
  uint64_t keep_from_ = 0;    // earlier tuples are in sealed windows only
  std::optional<std::pair<uint64_t, uint64_t>> session_;  // open [first, last]
  uint64_t sessions_ = 0;
};

// The stage's bounded loss as recovery accounting, built once for every
// consumer: a shed_load event with tuples_shed / shed_ratio, and a
// quarantine event with tuples_dropped and the matches they would have
// produced at `match_rate`. Empty when nothing was lost.
RecoveryLog ShedLoss(uint64_t tuples_shed, uint64_t tuples_in,
                     double watermark_per_ms);
RecoveryLog QuarantineLoss(const IngestStats& ingest, double match_rate);

// Runs one sealed window: the injected `window_fail` fault, then the
// runner, both inside `supervision`'s retries and fallbacks when enabled.
RunResult RunWindowOnce(JoinRunner& runner, AlgorithmId id, const Stream& r,
                        const Stream& s, const JoinSpec& window_spec,
                        const SupervisorPolicy& supervision,
                        uint64_t window_index);

}  // namespace iawj

#endif  // IAWJ_JOIN_WINDOW_OPERATOR_H_
