// Progressive Merge Join state (Dittrich et al.; paper §3.2.1, Figure 1b).
//
// Following the paper's modernized PMJ: tuples from both streams accumulate
// until the sorting step size δ (a fraction of the worker's expected input)
// is reached; the accumulated subsets are then sorted and immediately
// merge-joined (intra-run matches delivered early), and the sorted runs stay
// in main memory. When the input is exhausted, the merge phase joins the
// runs in place, one key at a time, as MPSM (Albutiu et al.) joins sorted
// runs without merging them first: a heap over each side's run heads finds
// the next key. For a key present on both sides, the side with more tuples
// of the key has its runs' equal-key sub-blocks gathered into one scratch
// block, and every tuple of the other side meets that block except its own
// run's sub-block, whose pairs were emitted when the run sealed. Under JM
// every worker holds all of R and a share of S, so S leads. No merged copy
// of either side and no run tags are kept.
#ifndef IAWJ_JOIN_PMJ_H_
#define IAWJ_JOIN_PMJ_H_

#include <vector>

#include "src/join/eager_engine.h"
#include "src/memory/tracker.h"
#include "src/sort/avxsort.h"

namespace iawj {

template <typename Tracer = NullTracer>
class PmjState : public EagerState {
 public:
  PmjState(const EagerStateConfig& config, Tracer tracer);

  void OnR(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) override;
  void OnS(TupleBlock block, MatchSink& sink, PhaseStopwatch& sw) override;
  void Finish(MatchSink& sink, PhaseStopwatch& sw) override;

  size_t num_runs() const { return runs_r_.size(); }

 private:
  // Appends block to `side` (cur_r_ or cur_s_), sealing a run each time the
  // current one reaches the threshold.
  void Append(TupleBlock block, mem::TrackedBuffer<uint64_t>& side,
              MatchSink& sink, PhaseStopwatch& sw);
  void SealRun(MatchSink& sink, PhaseStopwatch& sw);
  // The merge phase: cross-run matches only.
  void JoinAcrossRuns(MatchSink& sink);

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
