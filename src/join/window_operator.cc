#include "src/join/window_operator.h"

#include <algorithm>
#include <string>

#include "src/common/fault.h"

namespace iawj {

namespace {

// The tuples of a ts-ordered span at or after `start` and before `end`.
std::span<const Tuple> Range(std::span<const Tuple> tuples, uint64_t start,
                             uint64_t end = InputStage::kEnded) {
  const auto before = [](const Tuple& t, uint64_t v) { return t.ts < v; };
  const auto lo = std::lower_bound(tuples.begin(), tuples.end(), start, before);
  return {lo, std::lower_bound(lo, tuples.end(), end, before)};
}

}  // namespace

InputStage::InputStage(const IngestPolicy& ingest,
                       const SupervisorPolicy& supervision,
                       uint64_t shed_seed) {
  if (ingest.Enabled()) ingester_.emplace(ingest);
  if (supervision.shed_watermark_per_ms > 0) {
    shedder_.emplace(supervision.shed_watermark_per_ms,
                     supervision.shed_max_lag_ms, shed_seed);
  }
}

std::span<const Tuple> InputStage::Push(std::span<const Tuple> arrivals,
                                        bool end) {
  admitted_ = arrivals;
  if (ingester_) {
    ingested_.clear();
    ingester_->Push(arrivals, &ingested_);
    if (end) {
      ingester_->Flush(&ingested_);
      PublishIngestMetrics(ingester_->stats());
    }
    admitted_ = ingested_;
  } else if (!arrivals.empty()) {
    last_ts_ = std::max(last_ts_, arrivals.back().ts);
  }
  ended_ = ended_ || end;
  if (!shedder_) return admitted_;
  shed_.clear();
  // An ended input's frontier passes every bucket, the held one included.
  shedder_->Push(admitted_, UpstreamFrontier(), &shed_);
  return shed_;
}

uint64_t InputStage::UpstreamFrontier() const {
  if (ended_) return kEnded;
  return ingester_ ? ingester_->frontier() : last_ts_;
}

uint64_t InputStage::frontier() const {
  return shedder_ ? shedder_->frontier(UpstreamFrontier())
                  : UpstreamFrontier();
}

size_t InputStage::held() const {
  return (ingester_ ? ingester_->held() : 0) +
         (shedder_ ? shedder_->held() : 0);
}

WindowOperator::WindowOperator(const WindowShape& shape,
                               const IngestPolicy& ingest,
                               const SupervisorPolicy& supervision)
    : shape_(shape),
      inputs_{Input(InputStage(ingest, supervision, supervision.seed)),
              Input(InputStage(ingest, supervision, supervision.seed + 1))} {}

void WindowOperator::Feed(std::span<const Tuple> r, std::span<const Tuple> s,
                          bool end, const WindowSink& sink) {
  for (Input& in : inputs_) {
    const std::span<const Tuple> out =
        in.stage.Push(&in == &inputs_[0] ? r : s, end);
    if (shape_.gap_ms > 0) {
      // Session boundaries are drawn on the admitted stream, before shedding.
      for (const Tuple& t : in.stage.admitted()) {
        if (in.marks.empty() || in.marks.back() != t.ts) {
          in.marks.push_back(t.ts);
        }
      }
    }
    if (in.stage.passthrough()) {
      // Windows sealed now are sliced straight from the caller's batch, so
      // each tuple is copied once per window that contains it.
      in.fresh = out;
    } else {
      in.unsealed.insert(in.unsealed.end(), out.begin(), out.end());
    }
  }
  const uint64_t limit =
      std::min(inputs_[0].stage.frontier(), inputs_[1].stage.frontier());
  if (shape_.gap_ms > 0) {
    SealSessions(limit, sink);
  } else {
    SealPeriodic(limit, sink);
  }
  for (Input& in : inputs_) {  // keep what a later window can still hold
    in.unsealed.erase(in.unsealed.begin(),
                      in.unsealed.end() -
                          static_cast<std::ptrdiff_t>(
                              Range(in.unsealed, keep_from_).size()));
    const std::span<const Tuple> tail = Range(in.fresh, keep_from_);
    in.unsealed.insert(in.unsealed.end(), tail.begin(), tail.end());
    in.fresh = {};
  }
}

void WindowOperator::SealPeriodic(uint64_t limit, const WindowSink& sink) {
  const uint64_t hop = shape_.hop_ms, length = shape_.length_ms;
  for (;;) {
    // Skip to the first window holding the earliest remaining tuple: the
    // ones before it are empty, and they end before the limit, so they
    // cannot fill later.
    uint64_t first = InputStage::kEnded;
    for (const Input& in : inputs_) {
      for (const std::span<const Tuple> part :
           {std::span<const Tuple>(in.unsealed), in.fresh}) {
        const auto rest = Range(part, next_window_ * hop);
        if (!rest.empty()) first = std::min<uint64_t>(first, rest[0].ts);
      }
    }
    if (first == InputStage::kEnded) break;
    const uint64_t k = std::max(
        next_window_, first >= length ? (first - length) / hop + 1 : 0);
    if (k * hop + length > limit) break;
    next_window_ = k + 1;
    Emit(k, k * hop, k * hop + length, sink);
  }
  keep_from_ = next_window_ * hop;
}

void WindowOperator::SealSessions(uint64_t limit, const WindowSink& sink) {
  const auto close = [&] {
    Emit(sessions_++, session_->first, session_->second + 1, sink);
    keep_from_ = session_->second + 1;
    session_.reset();
  };
  // Merge both inputs' admitted timestamps up to the limit, in ts order.
  for (;;) {
    std::deque<uint32_t>* next = nullptr;
    for (Input& in : inputs_) {
      if (!in.marks.empty() && (next == nullptr || in.marks[0] < (*next)[0])) {
        next = &in.marks;
      }
    }
    if (next == nullptr || (*next)[0] > limit) break;
    const uint64_t ts = next->front();
    next->pop_front();
    if (session_ && ts - session_->second >= shape_.gap_ms) close();
    if (!session_) session_.emplace(ts, ts);
    session_->second = ts;
  }
  // A limit a full gap past the open session means nothing can extend it.
  if (session_ && limit >= session_->second + shape_.gap_ms) close();
}

void WindowOperator::Emit(uint64_t index, uint64_t start, uint64_t end,
                          const WindowSink& sink) {
  SealedWindow window{static_cast<uint32_t>(index), start,
                      static_cast<uint32_t>(end - start), {}, {}};
  for (const Input& in : inputs_) {
    const auto older = Range(in.unsealed, start, end);
    const auto newer = Range(in.fresh, start, end);
    std::vector<Tuple>& out = (&in == &inputs_[0] ? window.r : window.s).tuples;
    out.reserve(older.size() + newer.size());
    for (const std::span<const Tuple> part : {older, newer}) {
      for (const Tuple& t : part) {
        out.push_back(Tuple{static_cast<uint32_t>(t.ts - start), t.key});
      }
    }
  }
  if (window.r.size() + window.s.size() > 0) sink(std::move(window));
}

size_t WindowOperator::buffered() const {
  return inputs_[0].unsealed.size() + inputs_[0].stage.held() +
         inputs_[1].unsealed.size() + inputs_[1].stage.held();
}

IngestStats WindowOperator::ingest_stats() const {
  IngestStats stats = inputs_[0].stage.ingest_stats();
  stats.Merge(inputs_[1].stage.ingest_stats());
  return stats;
}

uint64_t WindowOperator::shed_in() const {
  return inputs_[0].stage.shed_in() + inputs_[1].stage.shed_in();
}

uint64_t WindowOperator::tuples_shed() const {
  return inputs_[0].stage.tuples_shed() + inputs_[1].stage.tuples_shed();
}

RecoveryLog ShedLoss(uint64_t tuples_shed, uint64_t tuples_in,
                     double watermark_per_ms) {
  RecoveryLog log;
  if (tuples_shed == 0) return log;
  log.tuples_shed = tuples_shed;
  log.shed_ratio =
      static_cast<double>(tuples_shed) / static_cast<double>(tuples_in);
  log.events.push_back(
      {RecoveryAction::kShedLoad, StatusCode::kOk, 0,
       "shed " + std::to_string(tuples_shed) + " of " +
           std::to_string(tuples_in) + " tuples at watermark " +
           std::to_string(watermark_per_ms) + "/ms",
       0});
  return log;
}

RecoveryLog QuarantineLoss(const IngestStats& ingest, double match_rate) {
  RecoveryLog log;
  const uint64_t quarantined = ingest.quarantined();
  if (quarantined == 0) return log;
  log.tuples_dropped = quarantined;
  log.est_matches_lost = match_rate * static_cast<double>(quarantined);
  log.events.push_back(
      {RecoveryAction::kQuarantine, StatusCode::kOk, 0,
       "ingest quarantined " + std::to_string(quarantined) + " tuples (" +
           std::to_string(ingest.late_dropped) + " late, " +
           std::to_string(ingest.duplicates) + " duplicate, " +
           std::to_string(ingest.corrupt) + " corrupt)",
       0});
  return log;
}

RunResult RunWindowOnce(JoinRunner& runner, AlgorithmId id, const Stream& r,
                        const Stream& s, const JoinSpec& window_spec,
                        const SupervisorPolicy& supervision,
                        uint64_t window_index) {
  const AttemptFn attempt = [&](AlgorithmId attempt_id,
                                const JoinSpec& attempt_spec) {
    if (fault::Enabled() && fault::Inject("window_fail")) {
      // The window fails wholesale without executing, the shape of an
      // operator crash between segmentation and the join.
      RunResult result;
      result.algorithm = std::string(AlgorithmName(attempt_id));
      result.inputs = r.size() + s.size();
      result.status = Status::Internal("injected window failure (window " +
                                       std::to_string(window_index) + ")");
      return result;
    }
    return runner.Run(attempt_id, r, s, attempt_spec);
  };
  return supervision.Enabled()
             ? SuperviseAttempts(id, window_spec, supervision, attempt)
             : attempt(id, window_spec);
}

}  // namespace iawj
