// Progressive Merge Join state (Dittrich et al.; paper §3.2.1, Figure 1b).
//
// Following the paper's modernized PMJ: tuples from both streams accumulate
// until the sorting step size δ (a fraction of the worker's expected input)
// is reached; the accumulated subsets are then sorted and immediately
// merge-joined (intra-run matches delivered early), and the sorted runs stay
// in main memory. When the input is exhausted, all runs are merged and
// cross-run matches are produced — a tagged multiway merge skips pairs from
// the same run, which were already emitted.
#ifndef IAWJ_JOIN_PMJ_H_
#define IAWJ_JOIN_PMJ_H_

#include <vector>

#include "src/join/eager_engine.h"
#include "src/memory/tracker.h"
#include "src/sort/avxsort.h"
#include "src/sort/merge.h"

namespace iawj {

template <typename Tracer = NullTracer>
class PmjState : public EagerState {
 public:
  PmjState(const EagerStateConfig& config, Tracer tracer);

  void OnR(const Tuple& r, MatchSink& sink, PhaseStopwatch& sw) override;
  void OnS(const Tuple& s, MatchSink& sink, PhaseStopwatch& sw) override;
  void Finish(MatchSink& sink, PhaseStopwatch& sw) override;

  size_t num_runs() const { return runs_r_.size(); }

 private:
  void MaybeSealRun(MatchSink& sink, PhaseStopwatch& sw);
  void SealRun(MatchSink& sink, PhaseStopwatch& sw);

  uint64_t run_threshold_;
  sort::Options sort_options_;
  const CancelToken* cancel_;
  Tracer tracer_;

  mem::TrackedBuffer<uint64_t> cur_r_;
  mem::TrackedBuffer<uint64_t> cur_s_;
  std::vector<mem::TrackedBuffer<uint64_t>> runs_r_;
  std::vector<mem::TrackedBuffer<uint64_t>> runs_s_;
};

// Member definitions live in pmj.cc; these are the only instantiations.
extern template class PmjState<NullTracer>;
extern template class PmjState<SimTracer>;

}  // namespace iawj

#endif  // IAWJ_JOIN_PMJ_H_
