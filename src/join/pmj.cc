#include "src/join/pmj.h"

#include <algorithm>

#include "src/join/merge_join.h"

namespace iawj {

template <typename Tracer>
PmjState<Tracer>::PmjState(const EagerStateConfig& config, Tracer tracer)
    : run_threshold_(std::max<uint64_t>(
          64, static_cast<uint64_t>(
                  config.pmj_delta * static_cast<double>(config.expected_r +
                                                         config.expected_s)))),
      sort_options_{config.use_simd},
      cancel_(config.cancel),
      tracer_(std::move(tracer)) {}

template <typename Tracer>
void PmjState<Tracer>::OnR(const Tuple& r, MatchSink& sink,
                           PhaseStopwatch& sw) {
  sw.Switch(Phase::kBuild);
  cur_r_.PushBack(PackTuple(r));
  MaybeSealRun(sink, sw);
}

template <typename Tracer>
void PmjState<Tracer>::OnS(const Tuple& s, MatchSink& sink,
                           PhaseStopwatch& sw) {
  sw.Switch(Phase::kBuild);
  cur_s_.PushBack(PackTuple(s));
  MaybeSealRun(sink, sw);
}

template <typename Tracer>
void PmjState<Tracer>::MaybeSealRun(MatchSink& sink, PhaseStopwatch& sw) {
  if (cur_r_.size() + cur_s_.size() >= run_threshold_) {
    SealRun(sink, sw);
  }
}

template <typename Tracer>
void PmjState<Tracer>::SealRun(MatchSink& sink, PhaseStopwatch& sw) {
  if (cur_r_.empty() && cur_s_.empty()) return;

  sw.Switch(Phase::kSort);
  sort::SortPacked(cur_r_.data(), cur_r_.size(), sort_options_);
  sort::SortPacked(cur_s_.data(), cur_s_.size(), sort_options_);

  // Intra-run matches are delivered immediately — PMJ's progressiveness.
  sw.Switch(Phase::kProbe);
  tracer_.SetPhase(Phase::kProbe);
  MergeJoin(cur_r_.data(), cur_r_.size(), cur_s_.data(), cur_s_.size(), sink,
            tracer_, cancel_, [](size_t, size_t) { return true; });

  runs_r_.push_back(std::move(cur_r_));
  runs_s_.push_back(std::move(cur_s_));
  cur_r_ = mem::TrackedBuffer<uint64_t>();
  cur_s_ = mem::TrackedBuffer<uint64_t>();
}

template <typename Tracer>
void PmjState<Tracer>::Finish(MatchSink& sink, PhaseStopwatch& sw) {
  SealRun(sink, sw);
  if (runs_r_.empty()) return;
  if (runs_r_.size() == 1) return;  // every pair was intra-run

  // Merge phase: combine all runs (values + run tags) for each side.
  sw.Switch(Phase::kMerge);
  size_t total_r = 0, total_s = 0;
  std::vector<sort::Run> rr, sr;
  for (const auto& run : runs_r_) {
    rr.push_back({run.data(), run.size()});
    total_r += run.size();
  }
  for (const auto& run : runs_s_) {
    sr.push_back({run.data(), run.size()});
    total_s += run.size();
  }
  mem::TrackedBuffer<uint64_t> rv(total_r), sv(total_s);
  std::vector<uint32_t> rt(total_r), st(total_s);
  sort::MultiwayMergeTagged(rr, rv.data(), rt.data());
  sort::MultiwayMergeTagged(sr, sv.data(), st.data());

  // Cross-run matches only; intra-run pairs were emitted at seal time.
  sw.Switch(Phase::kProbe);
  tracer_.SetPhase(Phase::kProbe);
  MergeJoin(rv.data(), total_r, sv.data(), total_s, sink, tracer_, cancel_,
            [&](size_t a, size_t b) { return rt[a] != st[b]; });
}

template class PmjState<NullTracer>;
template class PmjState<SimTracer>;

}  // namespace iawj
