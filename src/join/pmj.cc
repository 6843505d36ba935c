#include "src/join/pmj.h"

#include <algorithm>
#include <vector>

#include "src/join/merge_join.h"

namespace iawj {

namespace {

// First position in [begin, end) at which before() turns false; before()
// must hold at begin and be monotone. Gallops from begin, then bisects, so
// the cost is logarithmic in the distance moved. Records every read.
template <typename Tracer, typename Before>
const uint64_t* Gallop(const uint64_t* begin, const uint64_t* end,
                       Before&& before, Tracer& tracer) {
  const size_t n = static_cast<size_t>(end - begin);
  size_t lo = 0;  // before(begin[lo]) holds
  size_t step = 1;
  while (lo + step < n) {
    tracer.Access(&begin[lo + step], sizeof(uint64_t));
    if (!before(begin[lo + step])) break;
    lo += step;
    step *= 2;
  }
  size_t hi = std::min(lo + step, n);  // hi == n or !before(begin[hi])
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    tracer.Access(&begin[mid], sizeof(uint64_t));
    if (before(begin[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return begin + hi;
}

// One side's sorted runs, walked in key order: a cursor per run and a
// min-heap of the head keys of the runs with tuples left. Every step pops
// and pushes one run, so a walk costs O(sub-blocks · log runs) heap work
// plus the gallops, and never scans every run for one key.
template <typename Tracer>
class RunWalk {
 public:
  RunWalk(const std::vector<mem::TrackedBuffer<uint64_t>>& runs,
          Tracer& tracer)
      : tracer_(tracer) {
    cursors_.reserve(runs.size());
    heap_.reserve(runs.size());
    for (const auto& run : runs) {
      cursors_.push_back({run.data(), run.data() + run.size()});
      Push(static_cast<uint32_t>(cursors_.size() - 1));
    }
  }

  bool done() const { return heap_.empty(); }
  uint32_t min_key() const { return heap_.front().key; }

  // Moves every run whose head key is below `key` to its first tuple with
  // key >= `key`.
  void SkipBelow(uint32_t key) {
    while (!heap_.empty() && heap_.front().key < key) {
      const uint32_t run = Pop();
      Cursor& c = cursors_[run];
      c.pos = Gallop(
          c.pos, c.end, [key](uint64_t t) { return PackedKey(t) < key; },
          tracer_);
      Push(run);
    }
  }

  // Calls f(run, tuples, n) with every run's sub-block of tuples of `key`,
  // which must be min_key(), and moves past them.
  template <typename F>
  void Take(uint32_t key, F&& f) {
    while (!heap_.empty() && heap_.front().key == key) {
      const uint32_t run = Pop();
      Cursor& c = cursors_[run];
      const uint64_t* block = c.pos;
      c.pos = Gallop(
          c.pos, c.end, [key](uint64_t t) { return PackedKey(t) <= key; },
          tracer_);
      f(run, block, static_cast<size_t>(c.pos - block));
      Push(run);
    }
  }

 private:
  struct Cursor {
    const uint64_t* pos;
    const uint64_t* end;
  };
  struct Head {
    uint32_t key;
    uint32_t run;
  };
  static bool Later(const Head& a, const Head& b) { return a.key > b.key; }

  void Push(uint32_t run) {
    const Cursor& c = cursors_[run];
    if (c.pos == c.end) return;
    tracer_.Access(c.pos, sizeof(uint64_t));
    heap_.push_back({PackedKey(*c.pos), run});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  uint32_t Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const uint32_t run = heap_.back().run;
    heap_.pop_back();
    return run;
  }

  Tracer& tracer_;
  std::vector<Cursor> cursors_;
  std::vector<Head> heap_;
};

// One side's sub-block of the current key in one run.
struct Piece {
  uint32_t run;
  const uint64_t* data;
  size_t n;
};

// A run's segment [lo, lo + n) of a gathered block.
struct Segment {
  size_t lo = 0;
  size_t n = 0;
};

// Joins one key present on both sides' runs. Gathers `other`'s sub-blocks
// run by run into one block, noting each run's segment [lo, hi). Each tuple
// of `lead` from run i then meets every tuple of the block outside run i's
// segment: the pairs inside it were emitted when run i sealed. The block is
// laid out twice over in `scratch`, so that run i's complement is the one
// span [hi, lo + other_total); a lone sub-block is read where it lies,
// since no leading run owns a segment of it. `segment` is indexed by run
// and left cleared. Returns false when cancelled.
template <Lead kLead, typename Tracer>
bool JoinKey(uint32_t key, const std::vector<Piece>& lead,
             const std::vector<Piece>& other, size_t other_total,
             std::vector<Segment>& segment,
             mem::TrackedBuffer<uint64_t>& scratch, MatchSink& sink,
             Tracer& tracer, const CancelToken* cancel) {
  size_t lo = 0;
  for (const Piece& p : other) {
    segment[p.run] = {lo, p.n};
    lo += p.n;
  }
  const uint64_t* block = other.front().data;
  if (other.size() > 1) {
    if (scratch.size() < 2 * other_total) {
      scratch = mem::TrackedBuffer<uint64_t>(
          std::max(2 * other_total, 2 * scratch.size()));
    }
    for (const Piece& p : other) {
      for (size_t k = 0; k < p.n; ++k) {
        tracer.Access(&p.data[k], sizeof(uint64_t));
      }
      uint64_t* dst = scratch.data() + segment[p.run].lo;
      std::copy_n(p.data, p.n, dst);
      std::copy_n(p.data, p.n, dst + other_total);
    }
    block = scratch.data();
  }

  bool done = true;
  for (const Piece& p : lead) {
    const Segment own = segment[p.run];
    if (own.n == other_total) continue;  // every other tuple is the run's own
    done = JoinLedBlock<kLead>(key, p.data, p.n, block + own.lo + own.n,
                               other_total - own.n, sink, tracer, cancel);
    if (!done) break;
  }
  for (const Piece& p : other) segment[p.run] = {};
  return done;
}

}  // namespace

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
void PmjState<Tracer>::OnR(TupleBlock block, MatchSink& sink,
                           PhaseStopwatch& sw) {
  Append(block, cur_r_, sink, sw);
}

template <typename Tracer>
void PmjState<Tracer>::OnS(TupleBlock block, MatchSink& sink,
                           PhaseStopwatch& sw) {
  Append(block, cur_s_, sink, sw);
}

template <typename Tracer>
void PmjState<Tracer>::Append(TupleBlock block,
                              mem::TrackedBuffer<uint64_t>& side,
                              MatchSink& sink, PhaseStopwatch& sw) {
  size_t i = 0;
  while (i < block.size()) {
    sw.Switch(Phase::kBuild);
    // The current run holds fewer than run_threshold_ tuples: every append
    // that reaches it seals.
    const size_t room = run_threshold_ - (cur_r_.size() + cur_s_.size());
    const size_t end = i + std::min<size_t>(room, block.size() - i);
    for (; i < end; ++i) side.PushBack(PackTuple(*block[i]));
    if (cur_r_.size() + cur_s_.size() >= run_threshold_) SealRun(sink, sw);
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
            tracer_, cancel_);

  runs_r_.push_back(std::move(cur_r_));
  runs_s_.push_back(std::move(cur_s_));
  cur_r_ = mem::TrackedBuffer<uint64_t>();
  cur_s_ = mem::TrackedBuffer<uint64_t>();
}

template <typename Tracer>
void PmjState<Tracer>::Finish(MatchSink& sink, PhaseStopwatch& sw) {
  SealRun(sink, sw);
  if (runs_r_.size() <= 1) return;  // every pair was intra-run

  // The merge phase walks the runs and emits the cross-run matches in one
  // pass, so all of it is charged to merge.
  sw.Switch(Phase::kMerge);
  tracer_.SetPhase(Phase::kMerge);
  JoinAcrossRuns(sink);
}

template <typename Tracer>
void PmjState<Tracer>::JoinAcrossRuns(MatchSink& sink) {
  RunWalk<Tracer> r_walk(runs_r_, tracer_);
  RunWalk<Tracer> s_walk(runs_s_, tracer_);

  std::vector<Piece> r_pieces;
  std::vector<Piece> s_pieces;
  std::vector<Segment> segment(runs_r_.size());
  mem::TrackedBuffer<uint64_t> scratch;

  while (!r_walk.done() && !s_walk.done()) {
    if (cancel_ != nullptr && cancel_->cancelled()) return;
    const uint32_t key = r_walk.min_key();
    const uint32_t s_key = s_walk.min_key();
    if (key < s_key) {
      r_walk.SkipBelow(s_key);
      continue;
    }
    if (s_key < key) {
      s_walk.SkipBelow(key);
      continue;
    }

    // Both sides' sub-blocks of the key, run by run; the side with fewer
    // tuples of the key leads, R on ties.
    const auto take = [key](RunWalk<Tracer>& walk, std::vector<Piece>& pieces) {
      pieces.clear();
      size_t total = 0;
      walk.Take(key, [&](uint32_t run, const uint64_t* data, size_t n) {
        pieces.push_back({run, data, n});
        total += n;
      });
      return total;
    };
    const size_t s_total = take(s_walk, s_pieces);
    const size_t r_total = take(r_walk, r_pieces);
    const bool done =
        r_total <= s_total
            ? JoinKey<Lead::kR>(key, r_pieces, s_pieces, s_total, segment,
                                scratch, sink, tracer_, cancel_)
            : JoinKey<Lead::kS>(key, s_pieces, r_pieces, r_total, segment,
                                scratch, sink, tracer_, cancel_);
    if (!done) return;
  }
}

template class PmjState<NullTracer>;
template class PmjState<SimTracer>;

}  // namespace iawj
