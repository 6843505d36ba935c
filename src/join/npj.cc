#include "src/join/npj.h"

#include <algorithm>

#include "src/hash/prefetch.h"

namespace iawj {

template <typename Tracer>
template <typename Table>
void NpjJoin<Tracer>::RunWorkerOn(Table& table, const JoinContext& ctx,
                                  int worker) {
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  Tracer tracer = MakeWorkerTracer<Tracer>(ctx, worker);

  // Cancellation checkpoints every 8K tuples: one relaxed load amortized
  // over the batch, invisible next to the hash-table work. The batched
  // kernels process 8K-tuple stripes between checkpoints for the same
  // cadence.
  constexpr size_t kCancelMask = 8191;
  constexpr size_t kCancelStripe = kCancelMask + 1;

  // Lazy approach: wait out the window before processing starts.
  {
    ScopedPhase wait(&prof, Phase::kWait);
    ctx.WaitUntil(ctx.window_close_ms);
  }
  if (ctx.AbortRequested()) return;

  const bool morsel = ctx.MorselMode();

  // Build: all threads insert R into the shared table — their equisized
  // chunks in static mode, dynamically claimed morsels otherwise. Under the
  // auto plan each insert is one release CAS instead of a latch round trip.
  {
    ScopedPhase build(&prof, Phase::kBuild);
    tracer.SetPhase(Phase::kBuild);
    const auto build_range = [&](const ChunkRange& chunk) -> bool {
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        if ((i & kCancelMask) == 0 && ctx.AbortRequested()) return false;
        tracer.Access(&ctx.r[i], sizeof(Tuple));
        table.Insert(ctx.r[i], tracer);
      }
      return true;
    };
    if (morsel) {
      ChunkRange m;
      while (build_phase_.Next(*ctx.scheduler, worker, &m)) {
        if (!build_range(m)) return;
      }
    } else if (!build_range(
                   ChunkForThread(ctx.r.size(), worker,
                                  ctx.spec->num_threads))) {
      return;
    }
  }

  ctx.barrier->arrive_and_wait();

  // Probe: concurrently match S against the shared table, same division.
  {
    ScopedPhase probe(&prof, Phase::kProbe);
    tracer.SetPhase(Phase::kProbe);
    const auto probe_range = [&](const ChunkRange& chunk) -> bool {
      if (ctx.kernels.batched_probe) {
        const auto on_match = [&](const Tuple& s, const Tuple& r) {
          sink.OnMatch(s.key, r.ts, s.ts);
        };
        for (size_t i = chunk.begin; i < chunk.end; i += kCancelStripe) {
          if (ctx.AbortRequested()) return false;
          const size_t end = std::min(chunk.end, i + kCancelStripe);
          kernels::ProbeBatched(table, ctx.s.data() + i, end - i, on_match,
                                tracer);
        }
      } else {
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          if ((i & kCancelMask) == 0 && ctx.AbortRequested()) return false;
          const Tuple s = ctx.s[i];
          tracer.Access(&ctx.s[i], sizeof(Tuple));
          table.Probe(
              s.key, [&](Tuple r) { sink.OnMatch(s.key, r.ts, s.ts); },
              tracer);
        }
      }
      return true;
    };
    if (morsel) {
      ChunkRange m;
      while (probe_phase_.Next(*ctx.scheduler, worker, &m)) {
        if (!probe_range(m)) return;
      }
    } else if (!probe_range(
                   ChunkForThread(ctx.s.size(), worker,
                                  ctx.spec->num_threads))) {
      return;
    }
  }
}

template <typename Tracer>
void NpjJoin<Tracer>::RunWorker(const JoinContext& ctx, int worker) {
  if (lockfree_table_ != nullptr) {
    RunWorkerOn(*lockfree_table_, ctx, worker);
  } else {
    RunWorkerOn(*table_, ctx, worker);
  }
}

template class NpjJoin<NullTracer>;
template class NpjJoin<SimTracer>;

std::unique_ptr<JoinAlgorithm> MakeNpj() {
  return std::make_unique<NpjJoin<NullTracer>>();
}

std::unique_ptr<JoinAlgorithm> MakeNpjTraced() {
  return std::make_unique<NpjJoin<SimTracer>>();
}

}  // namespace iawj
