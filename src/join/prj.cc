#include "src/join/prj.h"

#include "src/hash/bucket_chain.h"
#include "src/hash/linear_probe.h"
#include "src/hash/prefetch.h"
#include "src/hash/simd_probe.h"
#include "src/partition/radix.h"
#include "src/partition/range.h"

namespace iawj {

namespace {

// Radix of the second pass: bits [bits1, bits1 + bits2) of the key.
inline uint32_t Radix2Of(uint32_t key, int bits1, int bits2) {
  return (key >> bits1) & ((1u << bits2) - 1);
}

}  // namespace

template <typename Tracer>
Status PrjJoin<Tracer>::Setup(const JoinContext& ctx) {
  const int bits = ctx.spec->radix_bits;
  if (ctx.spec->radix_passes == 2 && bits >= 2) {
    bits1_ = bits / 2;
    bits2_ = bits - bits1_;
  } else {
    bits1_ = bits;
    bits2_ = 0;
  }
  parts1_ = size_t{1} << bits1_;
  parts_total_ = size_t{1} << bits;

  // Scattered copies of both relations, doubled in two-pass mode, dominate
  // PRJ's footprint; preflight them against the memory budget before
  // committing anything.
  const int64_t passes = bits2_ > 0 ? 2 : 1;
  const int64_t copy_bytes =
      static_cast<int64_t>((ctx.r.size() + ctx.s.size()) * sizeof(Tuple)) *
      passes;
  if (Status s = mem::Preflight(copy_bytes, "PRJ partition buffers");
      !s.ok()) {
    return s;
  }

  const int threads = ctx.spec->num_threads;
  r_out_.Resize(ctx.r.size());
  s_out_.Resize(ctx.s.size());
  morsel_ = ctx.MorselMode();
  if (morsel_) {
    // Pass-1 state is per-morsel: raise the morsel size when needed so the
    // histogram/cursor block stays bounded regardless of input size.
    const auto pass1_morsel = [&](size_t n) {
      const size_t floor_size = (n + kMaxPass1Morsels - 1) / kMaxPass1Morsels;
      const size_t size = ctx.scheduler->morsel_size();
      return size < floor_size ? floor_size : size;
    };
    morsel_r_ = pass1_morsel(ctx.r.size());
    morsel_s_ = pass1_morsel(ctx.s.size());
    hist_phase_r_.Reset(*ctx.scheduler, ctx.r.size(), morsel_r_);
    hist_phase_s_.Reset(*ctx.scheduler, ctx.s.size(), morsel_s_);
    scatter_phase_r_.Reset(*ctx.scheduler, ctx.r.size(), morsel_r_);
    scatter_phase_s_.Reset(*ctx.scheduler, ctx.s.size(), morsel_s_);
    hist_r_.assign(hist_phase_r_.num_morsels() * parts1_, 0);
    hist_s_.assign(hist_phase_s_.num_morsels() * parts1_, 0);
    cursors_r_.assign(hist_phase_r_.num_morsels() * parts1_, 0);
    cursors_s_.assign(hist_phase_s_.num_morsels() * parts1_, 0);
    refine_phase_.Reset(*ctx.scheduler, parts1_, 1);
    join_phase_.Reset(*ctx.scheduler, bits2_ > 0 ? parts_total_ : parts1_,
                      1);
  } else {
    hist_r_.assign(static_cast<size_t>(threads) * parts1_, 0);
    hist_s_.assign(static_cast<size_t>(threads) * parts1_, 0);
  }
  offsets_r_.assign(parts1_ + 1, 0);
  offsets_s_.assign(parts1_ + 1, 0);
  if (bits2_ > 0) {
    r_out2_.Resize(ctx.r.size());
    s_out2_.Resize(ctx.s.size());
    final_off_r_.assign(parts_total_ + 1, 0);
    final_off_s_.assign(parts_total_ + 1, 0);
  }
  next_refine_.store(0);
  next_join_.store(0);
  return Status::Ok();
}

template <typename Tracer>
void PrjJoin<Tracer>::Teardown() {
  r_out_ = mem::TrackedBuffer<Tuple>();
  s_out_ = mem::TrackedBuffer<Tuple>();
  r_out2_ = mem::TrackedBuffer<Tuple>();
  s_out2_ = mem::TrackedBuffer<Tuple>();
  hist_r_.clear();
  hist_s_.clear();
  cursors_r_.clear();
  cursors_s_.clear();
}

namespace {

// Computes this thread's scatter cursors: global partition offset plus the
// histogram contributions of lower-numbered threads.
std::vector<uint64_t> ScatterCursors(const std::vector<uint64_t>& hist,
                                     const std::vector<uint64_t>& offsets,
                                     size_t parts, int thread) {
  std::vector<uint64_t> cursors(parts);
  for (size_t p = 0; p < parts; ++p) {
    uint64_t below = 0;
    for (int t = 0; t < thread; ++t) below += hist[t * parts + p];
    cursors[p] = offsets[p] + below;
  }
  return cursors;
}

}  // namespace

// Pass 2 (two-pass mode): refine each pass-1 partition by the remaining
// radix bits, drained from a shared task queue. Writes disjoint slot ranges
// of the final offset arrays, so no synchronization is needed beyond the
// queue counter.
template <typename Tracer>
bool PrjJoin<Tracer>::RunSecondPass(const JoinContext& ctx, int worker,
                                    Tracer& tracer) {
  const size_t parts2 = size_t{1} << bits2_;
  std::vector<uint64_t> hist(parts2);
  // One refine task per pass-1 partition, drained from the shared atomic
  // counter (static) or the morsel phase (morsel mode — same tasks, but
  // steals are counted and NUMA-ordered).
  const auto next_task = [&](size_t* p1) -> bool {
    if (morsel_) {
      ChunkRange task;
      if (!refine_phase_.Next(*ctx.scheduler, worker, &task)) return false;
      *p1 = task.begin;
      return true;
    }
    *p1 = next_refine_.fetch_add(1, std::memory_order_relaxed);
    return *p1 < parts1_;
  };
  while (true) {
    if (ctx.Cancelled()) return true;
    size_t p1;
    if (!next_task(&p1)) break;

    const auto refine = [&](const mem::TrackedBuffer<Tuple>& in,
                            mem::TrackedBuffer<Tuple>& out,
                            const std::vector<uint64_t>& offsets1,
                            std::vector<uint64_t>& final_off) {
      const uint64_t begin = offsets1[p1], end = offsets1[p1 + 1];
      std::fill(hist.begin(), hist.end(), 0);
      for (uint64_t i = begin; i < end; ++i) {
        ++hist[Radix2Of(in[i].key, bits1_, bits2_)];
      }
      // Exclusive prefix into the final offset slots for this p1 range.
      uint64_t cursor = begin;
      std::vector<uint64_t> cursors(parts2);
      for (size_t p2 = 0; p2 < parts2; ++p2) {
        final_off[p1 * parts2 + p2] = cursor;
        cursors[p2] = cursor;
        cursor += hist[p2];
      }
      // Refine scatter over the next bits2_ key bits; kernel-dispatched like
      // pass 1 (the shift selects the second-pass radix).
      RadixScatterKernel(in.data() + begin, end - begin, bits2_,
                         cursors.data(), out.data(), tracer,
                         ctx.kernels.swwc_scatter, /*shift=*/bits1_);
    };
    refine(r_out_, r_out2_, offsets_r_, final_off_r_);
    refine(s_out_, s_out2_, offsets_s_, final_off_s_);
  }
  return false;
}

template <typename Tracer>
bool PrjJoin<Tracer>::JoinPartitions(const JoinContext& ctx, int worker,
                                     Tracer& tracer) {
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  const bool two_pass = bits2_ > 0;
  const Tuple* r_data = two_pass ? r_out2_.data() : r_out_.data();
  const Tuple* s_data = two_pass ? s_out2_.data() : s_out_.data();
  const size_t num_parts = two_pass ? parts_total_ : parts1_;

  const auto range_of = [&](size_t p, bool side_r, uint64_t* begin,
                            uint64_t* end) {
    if (two_pass) {
      const auto& off = side_r ? final_off_r_ : final_off_s_;
      *begin = off[p];
      *end = p + 1 < parts_total_
                 ? off[p + 1]
                 : (side_r ? ctx.r.size() : ctx.s.size());
    } else {
      const auto& off = side_r ? offsets_r_ : offsets_s_;
      *begin = off[p];
      *end = off[p + 1];
    }
  };

  // Build/probe one partition with the configured hash-table backend. The
  // auto plan probes linear-probe tables with the AVX2 vertical probe
  // (hash/simd_probe.h) and bucket chains with the group-prefetched batched
  // probe (hash/prefetch.h); the latter is mostly a wash for cache-resident
  // partitions but a clear win once skew or low radix bits leave partitions
  // bigger than L2. Partition-private builds stay scalar.
  const KernelPlan& plan = ctx.kernels;
  const bool nonscalar_probe = plan.batched_probe || plan.simd_probe;
  const auto join_one = [&](auto& table, uint64_t r_begin, uint64_t r_end,
                            uint64_t s_begin, uint64_t s_end) {
    {
      ScopedPhase build(&prof, Phase::kBuild);
      tracer.SetPhase(Phase::kBuild);
      for (uint64_t i = r_begin; i < r_end; ++i) {
        tracer.Access(&r_data[i], sizeof(Tuple));
        table.Insert(r_data[i], tracer);
      }
    }
    {
      ScopedPhase probe(&prof, Phase::kProbe);
      tracer.SetPhase(Phase::kProbe);
      if (nonscalar_probe) {
        kernels::ProbeDispatch(
            table, s_data + s_begin, s_end - s_begin,
            [&](const Tuple& s, const Tuple& r) {
              sink.OnMatch(s.key, r.ts, s.ts);
            },
            tracer, plan);
      } else {
        for (uint64_t i = s_begin; i < s_end; ++i) {
          const Tuple s = s_data[i];
          tracer.Access(&s_data[i], sizeof(Tuple));
          table.Probe(
              s.key, [&](Tuple r) { sink.OnMatch(s.key, r.ts, s.ts); },
              tracer);
        }
      }
    }
  };

  const bool linear =
      ctx.spec->hash_table_kind == HashTableKind::kLinearProbe;
  const auto next_task = [&](size_t* p) -> bool {
    if (morsel_) {
      ChunkRange task;
      if (!join_phase_.Next(*ctx.scheduler, worker, &task)) return false;
      *p = task.begin;
      return true;
    }
    *p = next_join_.fetch_add(1, std::memory_order_relaxed);
    return *p < num_parts;
  };
  while (true) {
    if (ctx.Cancelled()) return true;
    size_t p;
    if (!next_task(&p)) break;
    uint64_t r_begin, r_end, s_begin, s_end;
    range_of(p, /*side_r=*/true, &r_begin, &r_end);
    range_of(p, /*side_r=*/false, &s_begin, &s_end);
    if (r_begin == r_end || s_begin == s_end) continue;

    if (linear) {
      LinearProbeTable<Tracer> table(r_end - r_begin);
      join_one(table, r_begin, r_end, s_begin, s_end);
    } else {
      BucketChainTable<Tracer> table(r_end - r_begin);
      join_one(table, r_begin, r_end, s_begin, s_end);
    }
  }
  return false;
}

template <typename Tracer>
void PrjJoin<Tracer>::RunWorker(const JoinContext& ctx, int worker) {
  PhaseProfile& prof = ctx.profile(worker);
  Tracer tracer = MakeWorkerTracer<Tracer>(ctx, worker);
  const int threads = ctx.spec->num_threads;

  {
    ScopedPhase wait(&prof, Phase::kWait);
    ctx.WaitUntil(ctx.window_close_ms);
  }
  if (ctx.AbortRequested()) return;

  {
    ScopedPhase partition(&prof, Phase::kPartition);
    tracer.SetPhase(Phase::kPartition);

    // Pass 1: histograms over the low bits1_ bits — one per thread chunk
    // (static) or one per morsel (morsel mode), claimed dynamically.
    if (morsel_) {
      ChunkRange m;
      while (hist_phase_r_.Next(*ctx.scheduler, worker, &m)) {
        if (ctx.AbortRequested()) return;
        RadixHistogram(ctx.r.data() + m.begin, m.size(), bits1_,
                       &hist_r_[(m.begin / morsel_r_) * parts1_]);
      }
      while (hist_phase_s_.Next(*ctx.scheduler, worker, &m)) {
        if (ctx.AbortRequested()) return;
        RadixHistogram(ctx.s.data() + m.begin, m.size(), bits1_,
                       &hist_s_[(m.begin / morsel_s_) * parts1_]);
      }
    } else {
      const ChunkRange r_chunk =
          ChunkForThread(ctx.r.size(), worker, threads);
      const ChunkRange s_chunk =
          ChunkForThread(ctx.s.size(), worker, threads);
      RadixHistogram(ctx.r.data() + r_chunk.begin, r_chunk.size(), bits1_,
                     &hist_r_[static_cast<size_t>(worker) * parts1_]);
      RadixHistogram(ctx.s.data() + s_chunk.begin, s_chunk.size(), bits1_,
                     &hist_s_[static_cast<size_t>(worker) * parts1_]);
    }
    if (ctx.AbortRequested()) return;
    ctx.barrier->arrive_and_wait();

    // Worker 0 publishes pass-1 partition offsets (and, in morsel mode, the
    // per-morsel scatter cursor rows — the scatter phase walks the same
    // morsel grid, so row m starts where the partition-p counts of morsels
    // < m end).
    if (worker == 0) {
      const size_t chunks_r =
          morsel_ ? hist_phase_r_.num_morsels() : static_cast<size_t>(threads);
      const size_t chunks_s =
          morsel_ ? hist_phase_s_.num_morsels() : static_cast<size_t>(threads);
      for (size_t p = 0; p < parts1_; ++p) {
        uint64_t total_r = 0, total_s = 0;
        for (size_t c = 0; c < chunks_r; ++c) {
          total_r += hist_r_[c * parts1_ + p];
        }
        for (size_t c = 0; c < chunks_s; ++c) {
          total_s += hist_s_[c * parts1_ + p];
        }
        offsets_r_[p + 1] = offsets_r_[p] + total_r;
        offsets_s_[p + 1] = offsets_s_[p] + total_s;
      }
      if (morsel_) {
        const auto fill_cursors = [this](const std::vector<uint64_t>& hist,
                                         const std::vector<uint64_t>& offsets,
                                         std::vector<uint64_t>& cursors,
                                         size_t chunks) {
          std::vector<uint64_t> running(offsets.begin(), offsets.end() - 1);
          for (size_t m = 0; m < chunks; ++m) {
            for (size_t p = 0; p < parts1_; ++p) {
              cursors[m * parts1_ + p] = running[p];
              running[p] += hist[m * parts1_ + p];
            }
          }
        };
        fill_cursors(hist_r_, offsets_r_, cursors_r_, chunks_r);
        fill_cursors(hist_s_, offsets_s_, cursors_s_, chunks_s);
      }
    }
    if (ctx.AbortRequested()) return;
    ctx.barrier->arrive_and_wait();

    // Pass-1 scatter into partition-contiguous buffers (write-combining
    // kernel when enabled; see common/kernels.h). Each morsel's cursor row
    // is touched only by its claimant, so the kernel can mutate it in
    // place exactly like the static per-thread cursor vector.
    if (morsel_) {
      ChunkRange m;
      while (scatter_phase_r_.Next(*ctx.scheduler, worker, &m)) {
        if (ctx.AbortRequested()) return;
        RadixScatterKernel(ctx.r.data() + m.begin, m.size(), bits1_,
                           &cursors_r_[(m.begin / morsel_r_) * parts1_],
                           r_out_.data(), tracer, ctx.kernels.swwc_scatter);
      }
      while (scatter_phase_s_.Next(*ctx.scheduler, worker, &m)) {
        if (ctx.AbortRequested()) return;
        RadixScatterKernel(ctx.s.data() + m.begin, m.size(), bits1_,
                           &cursors_s_[(m.begin / morsel_s_) * parts1_],
                           s_out_.data(), tracer, ctx.kernels.swwc_scatter);
      }
    } else {
      const ChunkRange r_chunk =
          ChunkForThread(ctx.r.size(), worker, threads);
      const ChunkRange s_chunk =
          ChunkForThread(ctx.s.size(), worker, threads);
      auto r_cursors = ScatterCursors(hist_r_, offsets_r_, parts1_, worker);
      RadixScatterKernel(ctx.r.data() + r_chunk.begin, r_chunk.size(),
                         bits1_, r_cursors.data(), r_out_.data(), tracer,
                         ctx.kernels.swwc_scatter);
      auto s_cursors = ScatterCursors(hist_s_, offsets_s_, parts1_, worker);
      RadixScatterKernel(ctx.s.data() + s_chunk.begin, s_chunk.size(),
                         bits1_, s_cursors.data(), s_out_.data(), tracer,
                         ctx.kernels.swwc_scatter);
    }
    if (ctx.AbortRequested()) return;
    ctx.barrier->arrive_and_wait();

    if (bits2_ > 0) {
      if (RunSecondPass(ctx, worker, tracer)) {
        ctx.barrier->arrive_and_drop();
        return;
      }
      ctx.barrier->arrive_and_wait();
    }
  }

  // Per-partition cache-resident joins from a shared task queue. Every
  // barrier phase is complete once a worker reaches this point, so an abort
  // here unwinds with a plain return.
  JoinPartitions(ctx, worker, tracer);
}

template class PrjJoin<NullTracer>;
template class PrjJoin<SimTracer>;

std::unique_ptr<JoinAlgorithm> MakePrj() {
  return std::make_unique<PrjJoin<NullTracer>>();
}

std::unique_ptr<JoinAlgorithm> MakePrjTraced() {
  return std::make_unique<PrjJoin<SimTracer>>();
}

}  // namespace iawj
