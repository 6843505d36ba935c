#include "src/join/eager_engine.h"

#include <algorithm>
#include <array>
#include <thread>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/join/pmj.h"
#include "src/join/shj.h"
#include "src/profiling/trace.h"

namespace iawj {

RouterState::~RouterState() {
  mem::Add(-static_cast<int64_t>(last_dispatch_.size()) * kBytesPerEntry);
}

void RouterState::Note(uint32_t key, int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      last_dispatch_.try_emplace(key, static_cast<uint32_t>(worker));
  it->second = static_cast<uint32_t>(worker);
  ++dispatched_;
  if (inserted) mem::Add(kBytesPerEntry);
}

template <typename Tracer>
std::string_view EagerJoin<Tracer>::name() const {
  if (kind_ == EagerKind::kShj) {
    return scheme_ == DistributionScheme::kJoinMatrix ? "SHJ-JM" : "SHJ-JB";
  }
  return scheme_ == DistributionScheme::kJoinMatrix ? "PMJ-JM" : "PMJ-JB";
}

template <typename Tracer>
Status EagerJoin<Tracer>::Setup(const JoinContext& ctx) {
  distribution_ = std::make_unique<Distribution>(
      scheme_, ctx.spec->num_threads, ctx.spec->jb_group_size);
  if (scheme_ == DistributionScheme::kJoinBiclique) {
    router_ = std::make_unique<RouterState>();
  }
  morsel_ = ctx.MorselMode();
  if (morsel_) {
    // One claim lane per core group (JM: a single lane spanning all
    // workers). Workers resolve S morsel ownership through the grid in the
    // pull loop instead of the static seq % lane-count rule.
    s_claims_.Reset(ctx.s.size(), ctx.scheduler->morsel_size(),
                    distribution_->num_groups());
  }
  return Status::Ok();
}

template <typename Tracer>
std::unique_ptr<EagerState> EagerJoin<Tracer>::MakeState(
    const JoinContext& ctx, int worker, Tracer tracer) const {
  (void)worker;
  const int threads = ctx.spec->num_threads;
  EagerStateConfig config;
  config.pmj_delta = ctx.spec->pmj_delta;
  config.store_pointers = !ctx.spec->eager_physical_partition;
  config.use_simd = ctx.spec->use_simd;
  config.cache_kernels = ctx.kernels.batched_probe || ctx.kernels.simd_probe;
  config.simd_probe = ctx.kernels.simd_probe;
  config.cancel = ctx.cancel;
  if (scheme_ == DistributionScheme::kJoinMatrix) {
    config.expected_r = ctx.r.size();  // R replicated to every worker
    config.expected_s = ctx.s.size() / threads + 1;
  } else {
    // R replicated within one of T/g groups; S partitioned across workers.
    config.expected_r =
        ctx.r.size() / static_cast<uint64_t>(distribution_->num_groups()) + 1;
    config.expected_s = ctx.s.size() / threads + 1;
  }

  if (kind_ == EagerKind::kPmj) {
    return std::make_unique<PmjState<Tracer>>(config, std::move(tracer));
  }
  if (ctx.spec->hash_table_kind == HashTableKind::kLinearProbe) {
    return std::make_unique<ShjLinearState<Tracer>>(config,
                                                    std::move(tracer));
  }
  if (config.store_pointers) {
    return std::make_unique<ShjPointerState<Tracer>>(config,
                                                     std::move(tracer));
  }
  return std::make_unique<ShjValueState<Tracer>>(config, std::move(tracer));
}

template <typename Tracer>
void EagerJoin<Tracer>::RunWorker(const JoinContext& ctx, int worker) {
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  Tracer tracer = MakeWorkerTracer<Tracer>(ctx, worker);
  const Distribution& dist = *distribution_;
  const bool physical = ctx.spec->eager_physical_partition;
  const bool jb = scheme_ == DistributionScheme::kJoinBiclique;
  const int threads = ctx.spec->num_threads;

  std::unique_ptr<EagerState> state = MakeState(ctx, worker, tracer);
  RouterState* router = router_.get();

  // Morsel mode: S ownership is first-claimant per morsel (see ClaimGrid).
  // One cached (morsel, owned) pair suffices because a worker only ever
  // consults its own lane and scans seq in order.
  const bool morsel = morsel_;
  MorselScheduler* const sched = ctx.scheduler;
  const int group = jb ? worker / dist.group_size() : 0;
  const int group_base = group * dist.group_size();
  size_t cur_morsel = static_cast<size_t>(-1);
  bool cur_owned = false;
  const auto owns_r = [&](const Tuple& t, uint64_t seq) {
    return dist.OwnsR(worker, t, seq);
  };
  const auto owns_s = [&](const Tuple& t, uint64_t seq) -> bool {
    if (!morsel) return dist.OwnsS(worker, t, seq);
    if (jb && dist.GroupOf(t.key) != group) return false;
    const size_t m = s_claims_.morsel_of(seq);
    if (m != cur_morsel) {
      cur_morsel = m;
      const int winner = s_claims_.Claim(group, m, worker);
      cur_owned = winner == worker;
      if (cur_owned) {
        MorselStats& st = sched->stats(worker);
        ++st.morsels;
        // The worker the static round-robin rule would have picked; a claim
        // by anyone else is a steal (remote when it crosses NUMA nodes).
        const int home =
            jb ? group_base + static_cast<int>(
                                  m % static_cast<size_t>(dist.group_size()))
               : static_cast<int>(m % static_cast<size_t>(threads));
        if (home != worker) {
          ++st.steals;
          if (sched->node_of(home) != sched->node_of(worker)) {
            ++st.remote_steals;
          }
        }
      }
    }
    if (cur_owned) ++sched->stats(worker).tuples;
    return cur_owned;
  };

  // Worker-local copies when physical partitioning is on. Value states copy
  // each block before returning, so a later reallocation moves nothing they
  // still reference; pointer states run only without physical partitioning.
  mem::TrackedBuffer<Tuple> local_r;
  mem::TrackedBuffer<Tuple> local_s;
  std::array<const Tuple*, kEagerPullBlock> owned{};

  // Routes in[begin, end) (at most one block) and returns the tuples this
  // worker owns. The caller has switched to the partition phase.
  const auto route = [&](std::span<const Tuple> in, size_t begin, size_t end,
                         const auto& owns, mem::TrackedBuffer<Tuple>& local) {
    size_t n = 0;
    for (size_t i = begin; i < end; ++i) {
      const Tuple& t = in[i];
      tracer.Access(&t, sizeof(Tuple));
      if (!owns(t, i)) continue;
      if (jb) router->Note(t.key, worker);
      if (physical) {
        local.PushBack(t);
      } else {
        owned[n] = &t;
      }
      ++n;
    }
    if (physical) {
      const Tuple* copy = local.data() + (local.size() - n);
      for (size_t k = 0; k < n; ++k) owned[k] = copy + k;
    }
    return TupleBlock(owned.data(), n);
  };

  PhaseStopwatch sw(&prof);
  const std::span<const Tuple> r = ctx.r;
  const std::span<const Tuple> s = ctx.s;
  size_t ir = 0, is = 0;
  // End of the arrived prefix of in[begin, begin + kEagerPullBlock).
  const auto arrived = [](std::span<const Tuple> in, size_t begin,
                          double horizon_ms) {
    const size_t end = std::min(in.size(), begin + kEagerPullBlock);
    size_t k = begin;
    while (k < end && static_cast<double>(in[k].ts) <= horizon_ms) ++k;
    return k;
  };
  // Trace counter of pulled tuples, every kCounterEvery of them.
  constexpr size_t kCounterEvery = 4096;
  size_t next_counter_at = 0;

  // Fault: this worker wedges before pulling a single tuple — the shape of a
  // livelocked consumer. It parks until the deadline watchdog (or a peer's
  // failure) cancels the run; eager workers use no barrier, so a plain
  // return unwinds cleanly.
  if (fault::Enabled() && fault::Inject("eager_stall")) {
    sw.Switch(Phase::kWait);
    while (!ctx.Cancelled()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    sw.Stop();
    return;
  }

  // The §4.2.2 pull loop: alternate between streams, consuming whatever has
  // arrived, a block at a time; stall only when the worker outruns both
  // streams.
  while (ir < r.size() || is < s.size()) {
    if (ctx.Cancelled()) {
      sw.Stop();
      return;
    }
    if (trace::Active() && ir + is >= next_counter_at) {
      trace::Counter("eager_pulled", static_cast<double>(ir + is));
      next_counter_at = ir + is + kCounterEvery;
    }

    const double horizon_ms = ctx.clock->ArrivalHorizonMs();
    const size_t r_end = arrived(r, ir, horizon_ms);
    const size_t s_end = arrived(s, is, horizon_ms);
    if (r_end == ir && s_end == is) {
      sw.Switch(Phase::kWait);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }

    if (r_end > ir) {
      sw.Switch(Phase::kPartition);
      tracer.SetPhase(Phase::kPartition);
      const TupleBlock block = route(r, ir, r_end, owns_r, local_r);
      ir = r_end;
      if (!block.empty()) state->OnR(block, sink, sw);
    }
    if (s_end > is) {
      sw.Switch(Phase::kPartition);
      tracer.SetPhase(Phase::kPartition);
      const TupleBlock block = route(s, is, s_end, owns_s, local_s);
      is = s_end;
      if (!block.empty()) state->OnS(block, sink, sw);
    }
  }

  if (trace::Active()) {
    trace::Instant("eager_streams_drained", static_cast<double>(ir + is));
  }
  state->Finish(sink, sw);
  sw.Stop();
}

template class EagerJoin<NullTracer>;
template class EagerJoin<SimTracer>;

namespace {

template <typename Tracer>
std::unique_ptr<JoinAlgorithm> MakeEagerImpl(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kShjJm:
      return std::make_unique<EagerJoin<Tracer>>(
          EagerKind::kShj, DistributionScheme::kJoinMatrix);
    case AlgorithmId::kShjJb:
      return std::make_unique<EagerJoin<Tracer>>(
          EagerKind::kShj, DistributionScheme::kJoinBiclique);
    case AlgorithmId::kPmjJm:
      return std::make_unique<EagerJoin<Tracer>>(
          EagerKind::kPmj, DistributionScheme::kJoinMatrix);
    case AlgorithmId::kPmjJb:
      return std::make_unique<EagerJoin<Tracer>>(
          EagerKind::kPmj, DistributionScheme::kJoinBiclique);
    default:
      IAWJ_LOG(Fatal) << "not an eager algorithm";
      return nullptr;
  }
}

}  // namespace

std::unique_ptr<JoinAlgorithm> MakeEager(AlgorithmId id) {
  return MakeEagerImpl<NullTracer>(id);
}

std::unique_ptr<JoinAlgorithm> MakeEagerTraced(AlgorithmId id) {
  return MakeEagerImpl<SimTracer>(id);
}

}  // namespace iawj
