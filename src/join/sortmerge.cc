#include "src/join/sortmerge.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/join/merge_join.h"
#include "src/partition/range.h"
#include "src/sort/avxsort.h"
#include "src/sort/merge.h"

namespace iawj {

namespace {

// Packs a tuple chunk into the run buffer and sorts it.
void SortChunk(std::span<const Tuple> input, const ChunkRange& chunk,
               uint64_t* buf, const sort::Options& options) {
  for (size_t i = chunk.begin; i < chunk.end; ++i) {
    buf[i] = PackTuple(input[i]);
  }
  sort::SortPacked(buf + chunk.begin, chunk.size(), options);
}

// Evenly spaced key samples from each sorted run, used to pick MWay's
// splitter keys.
std::vector<uint32_t> SampleSplitterKeys(const uint64_t* buf, size_t n,
                                         int num_threads) {
  std::vector<uint32_t> samples;
  const int per_run = 16;
  for (int t = 0; t < num_threads; ++t) {
    const ChunkRange run = ChunkForThread(n, t, num_threads);
    for (int k = 0; k < per_run; ++k) {
      if (run.size() == 0) continue;
      const size_t pos = run.begin + run.size() * k / per_run;
      samples.push_back(PackedKey(buf[pos]));
    }
  }
  std::sort(samples.begin(), samples.end());
  std::vector<uint32_t> splitters(num_threads + 1, 0);
  splitters[num_threads] = 0xffffffffu;
  for (int t = 1; t < num_threads; ++t) {
    splitters[t] =
        samples.empty()
            ? 0
            : samples[samples.size() * static_cast<size_t>(t) / num_threads];
  }
  // Splitters must be non-decreasing (they are, post-sort).
  return splitters;
}

struct Seg {
  size_t begin;
  size_t end;
};

std::vector<Seg> InitialSegments(size_t n, int num_threads) {
  std::vector<Seg> segs;
  segs.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    const ChunkRange c = ChunkForThread(n, t, num_threads);
    segs.push_back({c.begin, c.end});
  }
  return segs;
}

}  // namespace

template <typename Tracer>
Status SortMergeJoin<Tracer>::Setup(const JoinContext& ctx) {
  // Two packed copies of each relation (sorted runs + merge output).
  const int64_t buf_bytes = static_cast<int64_t>(
      (ctx.r.size() + ctx.s.size()) * 2 * sizeof(uint64_t));
  if (Status s = mem::Preflight(buf_bytes, "sort-merge run buffers");
      !s.ok()) {
    return s;
  }
  const int threads = ctx.spec->num_threads;
  r_buf_.Resize(ctx.r.size());
  s_buf_.Resize(ctx.s.size());
  r_merged_.Resize(ctx.r.size());
  s_merged_.Resize(ctx.s.size());
  splitter_keys_.assign(threads + 1, 0);
  merge_off_r_.assign(threads + 1, 0);
  merge_off_s_.assign(threads + 1, 0);
  probe_split_r_.assign(threads + 1, 0);
  probe_split_s_.assign(threads + 1, 0);
  final_r_ = nullptr;
  final_s_ = nullptr;

  morsel_ = ctx.MorselMode();
  mpass_phases_r_.clear();
  mpass_phases_s_.clear();
  if (morsel_) {
    const size_t t = static_cast<size_t>(threads);
    sort_phase_.Reset(*ctx.scheduler, 2 * t, 1);
    probe_phase_.Reset(*ctx.scheduler, t, 1);
    if (strategy_ == MergeStrategy::kMultiway) {
      merge_phase_.Reset(*ctx.scheduler, t, 1);
    } else {
      // MPass pass structure is deterministic from T: segments halve each
      // pass (plus an odd leftover copy), so every pass's task count is
      // known here — exactly what lets phases be Reset single-threaded.
      for (size_t segs = t; segs > 1;) {
        const size_t jobs = segs / 2;
        const size_t tasks = jobs + (segs % 2);
        mpass_phases_r_.emplace_back();
        mpass_phases_r_.back().Reset(*ctx.scheduler, tasks, 1);
        mpass_phases_s_.emplace_back();
        mpass_phases_s_.back().Reset(*ctx.scheduler, tasks, 1);
        segs = jobs + (segs % 2);
      }
    }
  }
  return Status::Ok();
}

template <typename Tracer>
void SortMergeJoin<Tracer>::Teardown() {
  r_buf_ = mem::TrackedBuffer<uint64_t>();
  s_buf_ = mem::TrackedBuffer<uint64_t>();
  r_merged_ = mem::TrackedBuffer<uint64_t>();
  s_merged_ = mem::TrackedBuffer<uint64_t>();
}

template <typename Tracer>
bool SortMergeJoin<Tracer>::RunMultiwayMergePhase(const JoinContext& ctx,
                                                  int worker,
                                                  PhaseProfile& prof) {
  const int threads = ctx.spec->num_threads;

  // Worker 0 picks splitter keys and computes every worker's merge ranges:
  // within run i, worker t owns [lb(run_i, key_t), lb(run_i, key_{t+1})),
  // and its output starts at the sum of lower bounds across runs.
  if (worker == 0) {
    splitter_keys_ = SampleSplitterKeys(r_buf_.data(), ctx.r.size(), threads);
    for (int t = 0; t <= threads; ++t) {
      size_t off_r = 0, off_s = 0;
      for (int run = 0; run < threads; ++run) {
        const ChunkRange rr = ChunkForThread(ctx.r.size(), run, threads);
        const ChunkRange sr = ChunkForThread(ctx.s.size(), run, threads);
        off_r += LowerBoundKey(r_buf_.data() + rr.begin, rr.size(),
                               splitter_keys_[t]);
        off_s += LowerBoundKey(s_buf_.data() + sr.begin, sr.size(),
                               splitter_keys_[t]);
      }
      merge_off_r_[t] = off_r;
      merge_off_s_[t] = off_s;
    }
    merge_off_r_[threads] = ctx.r.size();
    merge_off_s_[threads] = ctx.s.size();
  }
  if (ctx.AbortRequested()) return true;
  ctx.barrier->arrive_and_wait();

  {
    ScopedPhase merge(&prof, Phase::kMerge);
    // One merge task per splitter range; its claimant multiway-merges that
    // key range of every run into a disjoint output slice, so any worker
    // can execute any task. Static mode keeps task t on worker t.
    const auto merge_side = [&](const mem::TrackedBuffer<uint64_t>& buf,
                                size_t n, uint64_t* out, size_t out_begin,
                                int range) {
      std::vector<sort::Run> runs;
      for (int run = 0; run < threads; ++run) {
        const ChunkRange c = ChunkForThread(n, run, threads);
        const size_t lo = c.begin + LowerBoundKey(buf.data() + c.begin,
                                                  c.size(),
                                                  splitter_keys_[range]);
        const size_t hi =
            c.begin + LowerBoundKey(buf.data() + c.begin, c.size(),
                                    splitter_keys_[range + 1]);
        if (hi > lo) runs.push_back({buf.data() + lo, hi - lo});
      }
      sort::MultiwayMerge(runs, out + out_begin);
    };
    const auto merge_range = [&](int range) {
      merge_side(r_buf_, ctx.r.size(), r_merged_.data(),
                 merge_off_r_[range], range);
      merge_side(s_buf_, ctx.s.size(), s_merged_.data(),
                 merge_off_s_[range], range);
    };
    if (morsel_) {
      ChunkRange task;
      while (merge_phase_.Next(*ctx.scheduler, worker, &task)) {
        if (ctx.Cancelled()) break;
        merge_range(static_cast<int>(task.begin));
      }
    } else {
      merge_range(worker);
    }
  }

  // The last splitter range also covers keys >= splitter[threads-1] up to
  // the sentinel, so the merged arrays are complete and globally sorted.
  if (worker == 0) {
    probe_split_r_ = merge_off_r_;
    probe_split_s_ = merge_off_s_;
    final_r_ = r_merged_.data();
    final_s_ = s_merged_.data();
  }
  if (ctx.AbortRequested()) return true;
  ctx.barrier->arrive_and_wait();
  return false;
}

template <typename Tracer>
bool SortMergeJoin<Tracer>::RunMultiPassMergePhase(const JoinContext& ctx,
                                                   int worker,
                                                   PhaseProfile& prof) {
  const int threads = ctx.spec->num_threads;
  const sort::Options options{ctx.spec->use_simd};

  {
    ScopedPhase merge(&prof, Phase::kMerge);
    // Successive two-way merge passes with a barrier per pass; every worker
    // derives the same segment list deterministically. Returns true when the
    // run was cancelled (barrier already dropped).
    const auto run_passes = [&](size_t n, uint64_t* a, uint64_t* b,
                                std::vector<MorselPhase>& phases,
                                const uint64_t** final_out) -> bool {
      std::vector<Seg> segs = InitialSegments(n, threads);
      uint64_t* src = a;
      uint64_t* dst = b;
      size_t pass = 0;
      while (segs.size() > 1) {
        if (ctx.AbortRequested()) return true;
        const size_t jobs = segs.size() / 2;
        // Task j < jobs merges segments 2j and 2j+1; task jobs (odd pass
        // only) copies the leftover segment through. Output slices are
        // disjoint, so any worker can run any task.
        const auto run_task = [&](size_t j) {
          if (j < jobs) {
            const Seg& x = segs[2 * j];
            const Seg& y = segs[2 * j + 1];
            sort::MergePacked(src + x.begin, x.end - x.begin, src + y.begin,
                              y.end - y.begin, dst + x.begin, options);
          } else {
            const Seg& last = segs.back();
            std::copy(src + last.begin, src + last.end, dst + last.begin);
          }
        };
        if (morsel_) {
          // phases[pass] was sized in Setup from the same segment
          // recurrence, so it holds exactly jobs (+1 when odd) tasks.
          ChunkRange task;
          while (phases[pass].Next(*ctx.scheduler, worker, &task)) {
            if (ctx.Cancelled()) break;
            run_task(task.begin);
          }
        } else {
          for (size_t j = 0; j < jobs; ++j) {
            if (j % static_cast<size_t>(threads) ==
                static_cast<size_t>(worker)) {
              run_task(j);
            }
          }
          // Odd leftover segment: copied through by its deterministic owner.
          if (segs.size() % 2 == 1 &&
              jobs % static_cast<size_t>(threads) ==
                  static_cast<size_t>(worker)) {
            run_task(jobs);
          }
        }
        ++pass;
        std::vector<Seg> next;
        next.reserve(jobs + 1);
        for (size_t j = 0; j < jobs; ++j) {
          next.push_back({segs[2 * j].begin, segs[2 * j + 1].end});
        }
        if (segs.size() % 2 == 1) next.push_back(segs.back());
        segs = std::move(next);
        std::swap(src, dst);
        ctx.barrier->arrive_and_wait();
      }
      *final_out = src;
      return false;
    };
    const uint64_t* final_r = nullptr;
    const uint64_t* final_s = nullptr;
    if (run_passes(ctx.r.size(), r_buf_.data(), r_merged_.data(),
                   mpass_phases_r_, &final_r)) {
      return true;
    }
    if (run_passes(ctx.s.size(), s_buf_.data(), s_merged_.data(),
                   mpass_phases_s_, &final_s)) {
      return true;
    }
    if (worker == 0) {
      final_r_ = final_r;
      final_s_ = final_s;
    }
  }

  if (worker == 0) {
    // Key-aligned probe ranges over the globally sorted arrays.
    probe_split_r_ = KeyAlignedSplits(final_r_, ctx.r.size(), threads);
    for (int t = 1; t < threads; ++t) {
      const size_t pos = probe_split_r_[t];
      probe_split_s_[t] =
          pos < ctx.r.size()
              ? LowerBoundKey(final_s_, ctx.s.size(), PackedKey(final_r_[pos]))
              : ctx.s.size();
    }
    probe_split_s_[0] = 0;
    probe_split_s_[threads] = ctx.s.size();
  }
  if (ctx.AbortRequested()) return true;
  ctx.barrier->arrive_and_wait();
  return false;
}

template <typename Tracer>
void SortMergeJoin<Tracer>::RunWorker(const JoinContext& ctx, int worker) {
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  Tracer tracer = MakeWorkerTracer<Tracer>(ctx, worker);
  const int threads = ctx.spec->num_threads;
  const sort::Options options{ctx.spec->use_simd};

  {
    ScopedPhase wait(&prof, Phase::kWait);
    ctx.WaitUntil(ctx.window_close_ms);
  }
  if (ctx.AbortRequested()) return;

  {
    ScopedPhase sort_phase(&prof, Phase::kSort);
    if (morsel_) {
      // 2T sort tasks: t < T packs+sorts R run t, t >= T the S run t-T. The
      // run layout itself stays the static thread-chunk division (the merge
      // phases depend on it); only the executor of each run is dynamic.
      ChunkRange task;
      while (sort_phase_.Next(*ctx.scheduler, worker, &task)) {
        if (ctx.Cancelled()) break;
        const int t = static_cast<int>(task.begin);
        if (t < threads) {
          SortChunk(ctx.r, ChunkForThread(ctx.r.size(), t, threads),
                    r_buf_.data(), options);
        } else {
          SortChunk(ctx.s, ChunkForThread(ctx.s.size(), t - threads, threads),
                    s_buf_.data(), options);
        }
      }
    } else {
      SortChunk(ctx.r, ChunkForThread(ctx.r.size(), worker, threads),
                r_buf_.data(), options);
      SortChunk(ctx.s, ChunkForThread(ctx.s.size(), worker, threads),
                s_buf_.data(), options);
    }
  }
  if (ctx.AbortRequested()) return;
  ctx.barrier->arrive_and_wait();

  const bool aborted = strategy_ == MergeStrategy::kMultiway
                           ? RunMultiwayMergePhase(ctx, worker, prof)
                           : RunMultiPassMergePhase(ctx, worker, prof);
  if (aborted) return;

  {
    ScopedPhase probe(&prof, Phase::kProbe);
    tracer.SetPhase(Phase::kProbe);
    // Merge-joins key-aligned range t of the globally sorted arrays. Runs
    // only after the final barrier phase, so it simply stops when
    // cancelled.
    const auto probe_range = [&](size_t t) {
      const size_t r_begin = probe_split_r_[t];
      const size_t s_begin = probe_split_s_[t];
      MergeJoin(final_r_ + r_begin, probe_split_r_[t + 1] - r_begin,
                final_s_ + s_begin, probe_split_s_[t + 1] - s_begin, sink,
                tracer, ctx.cancel);
    };
    if (morsel_) {
      ChunkRange task;
      while (probe_phase_.Next(*ctx.scheduler, worker, &task)) {
        if (ctx.Cancelled()) break;
        probe_range(task.begin);
      }
    } else {
      probe_range(static_cast<size_t>(worker));
    }
  }
}

template class SortMergeJoin<NullTracer>;
template class SortMergeJoin<SimTracer>;

std::unique_ptr<JoinAlgorithm> MakeMway() {
  return std::make_unique<SortMergeJoin<NullTracer>>(MergeStrategy::kMultiway);
}
std::unique_ptr<JoinAlgorithm> MakeMpass() {
  return std::make_unique<SortMergeJoin<NullTracer>>(
      MergeStrategy::kMultiPass);
}
std::unique_ptr<JoinAlgorithm> MakeMwayTraced() {
  return std::make_unique<SortMergeJoin<SimTracer>>(MergeStrategy::kMultiway);
}
std::unique_ptr<JoinAlgorithm> MakeMpassTraced() {
  return std::make_unique<SortMergeJoin<SimTracer>>(
      MergeStrategy::kMultiPass);
}

}  // namespace iawj
