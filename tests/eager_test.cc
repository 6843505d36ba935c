// Focused tests for the eager engine internals: PMJ run mechanics, SHJ
// states, stalling behaviour, and the traced (cache-sim) variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/join/pmj.h"
#include "src/join/reference.h"
#include "src/join/runner.h"
#include "src/join/shj.h"

namespace iawj {
namespace {

// Drives an EagerState directly with a synthetic clock and sink.
struct StateHarness {
  StateHarness() : clock(Clock::Mode::kInstant), sw(&profile) {
    clock.Start();
    sink.Bind(&clock);
  }

  Clock clock;
  MatchSink sink;
  PhaseProfile profile;
  PhaseStopwatch sw;
};

// Pointers to every tuple, for handing them to a state as blocks.
std::vector<const Tuple*> Pointers(const std::vector<Tuple>& tuples) {
  std::vector<const Tuple*> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) out.push_back(&t);
  return out;
}

// Feeds r and s in alternating blocks of at most `block` tuples, R first,
// the way the pull loop does.
void FeedAlternating(EagerState& state, const std::vector<Tuple>& r,
                     const std::vector<Tuple>& s, size_t block,
                     StateHarness& h) {
  const std::vector<const Tuple*> rp = Pointers(r);
  const std::vector<const Tuple*> sp = Pointers(s);
  for (size_t i = 0; i < std::max(rp.size(), sp.size()); i += block) {
    if (i < rp.size()) {
      state.OnR(TupleBlock(rp).subspan(i, std::min(block, rp.size() - i)),
                h.sink, h.sw);
    }
    if (i < sp.size()) {
      state.OnS(TupleBlock(sp).subspan(i, std::min(block, sp.size() - i)),
                h.sink, h.sw);
    }
  }
}

std::vector<Tuple> SameKey(size_t n, uint32_t key) {
  return std::vector<Tuple>(n, Tuple{.ts = 0, .key = key});
}

TEST(PmjStateTest, SealsRunsAtDeltaAndFindsCrossRunMatches) {
  StateHarness h;
  EagerStateConfig config;
  config.expected_r = 100;
  config.expected_s = 100;
  config.pmj_delta = 0.5;  // threshold = 100 tuples per run
  PmjState<NullTracer> state(config, NullTracer{});

  // 1st run: key 1 on R side only. 2nd run: key 1 on S side only.
  // The match can only be found by the cross-run merge in Finish().
  const std::vector<Tuple> r = SameKey(100, 1);
  state.OnR(Pointers(r), h.sink, h.sw);
  EXPECT_EQ(state.num_runs(), 1u);
  EXPECT_EQ(h.sink.count(), 0u);  // no S tuples yet

  const std::vector<Tuple> s = SameKey(100, 1);
  state.OnS(Pointers(s), h.sink, h.sw);
  EXPECT_EQ(state.num_runs(), 2u);
  EXPECT_EQ(h.sink.count(), 0u);  // still: runs never met

  state.Finish(h.sink, h.sw);
  EXPECT_EQ(h.sink.count(), 100u * 100u);
}

TEST(PmjStateTest, IntraRunMatchesEmittedEagerly) {
  StateHarness h;
  EagerStateConfig config;
  config.expected_r = 50;
  config.expected_s = 50;
  config.pmj_delta = 1.0;  // threshold = 100: everything is one run
  PmjState<NullTracer> state(config, NullTracer{});
  const std::vector<Tuple> r = SameKey(50, 9);
  const std::vector<Tuple> s = SameKey(50, 9);
  FeedAlternating(state, r, s, 10, h);
  // The 100th tuple triggers the seal, which merge-joins the run.
  EXPECT_EQ(state.num_runs(), 1u);
  EXPECT_EQ(h.sink.count(), 50u * 50u);
  state.Finish(h.sink, h.sw);
  EXPECT_EQ(h.sink.count(), 50u * 50u);  // nothing double counted
}

TEST(PmjStateTest, TinyDeltaProducesManyRuns) {
  StateHarness h;
  EagerStateConfig config;
  config.expected_r = 10000;
  config.expected_s = 10000;
  config.pmj_delta = 0.01;  // threshold = 200
  PmjState<NullTracer> state(config, NullTracer{});
  Rng rng(1);
  std::vector<Tuple> r, s;
  for (int i = 0; i < 2000; ++i) {
    const Tuple t{.ts = 0, .key = static_cast<uint32_t>(rng.NextBounded(50))};
    (i % 2 == 0 ? r : s).push_back(t);
  }
  FeedAlternating(state, r, s, 64, h);
  state.Finish(h.sink, h.sw);
  EXPECT_GE(state.num_runs(), 9u);
  const ReferenceResult expected = NestedLoopJoin(r, s);
  EXPECT_EQ(h.sink.count(), expected.matches);
  EXPECT_EQ(h.sink.checksum(), expected.checksum);
}

// δ = 0.01 seals a run every 100 tuples here, so nearly every pair is
// found by the cross-run merge phase: over unique keys each key's two
// tuples almost always lie in different runs; over one hot key most runs
// hold a sub-block of the key, and each R tuple meets the 9,000 gathered S
// tuples outside its own run's segment in three MatchSink runs, whose
// edges fall anywhere in that complement.
TEST(PmjStateTest, ManyRunsMatchNestedLoop) {
  Rng rng(5);
  std::vector<uint32_t> keys(5000);
  for (uint32_t k = 0; k < keys.size(); ++k) keys[k] = k;
  const auto shuffled = [&] {
    std::vector<uint32_t> out = keys;
    for (size_t i = out.size() - 1; i > 0; --i) {
      std::swap(out[i], out[rng.NextBounded(i + 1)]);
    }
    return out;
  };
  const auto with_keys = [&](const std::vector<uint32_t>& ks) {
    std::vector<Tuple> out;
    for (uint32_t k : ks) {
      out.push_back({.ts = static_cast<uint32_t>(rng.NextBounded(1000)),
                     .key = k});
    }
    return out;
  };
  struct Case {
    const char* name;
    std::vector<Tuple> r, s;
  };
  const std::vector<Case> cases = {
      {"unique", with_keys(shuffled()), with_keys(shuffled())},
      {"hot", with_keys(std::vector<uint32_t>(1000, 7)),
       with_keys(std::vector<uint32_t>(9000, 7))},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StateHarness h;
    EagerStateConfig config;
    config.expected_r = 5000;
    config.expected_s = 5000;
    config.pmj_delta = 0.01;  // threshold = 100
    PmjState<NullTracer> state(config, NullTracer{});
    FeedAlternating(state, c.r, c.s, kEagerPullBlock, h);
    state.Finish(h.sink, h.sw);
    EXPECT_EQ(state.num_runs(), (c.r.size() + c.s.size()) / 100);
    const ReferenceResult expected = NestedLoopJoin(c.r, c.s);
    EXPECT_EQ(h.sink.count(), expected.matches);
    EXPECT_EQ(h.sink.checksum(), expected.checksum);
  }
}

// Every equal-key block, at a seal and in the merge phase, is led by the
// side with fewer tuples of its key, so a state's runs scale with each
// key's smaller side. Key 1 is R-heavy (2,000 R tuples against 20 S) and
// key 2 S-heavy (the reverse); δ = 0.01 seals a run every 100 tuples, so
// most pairs meet in the merge phase. Each key's 20 tuples lead at most one
// run at their seal and one in the merge phase. Led by R, key 1 would cost
// a run per R tuple of every seal that holds its S tuples, and another per
// R tuple in the merge phase.
TEST(PmjStateTest, SmallerSideLeadsLopsidedKeys) {
  Rng rng(8);
  const auto tuples = [&](size_t n1, size_t n2) {
    std::vector<Tuple> out;
    for (size_t i = 0; i < n1 + n2; ++i) {
      out.push_back({.ts = static_cast<uint32_t>(rng.NextBounded(1000)),
                     .key = i < n1 ? 1u : 2u});
    }
    for (size_t i = out.size() - 1; i > 0; --i) {
      std::swap(out[i], out[rng.NextBounded(i + 1)]);
    }
    return out;
  };
  const std::vector<Tuple> r = tuples(2000, 20);
  const std::vector<Tuple> s = tuples(20, 2000);

  StateHarness h;
  EagerStateConfig config;
  config.expected_r = 5000;
  config.expected_s = 5000;
  config.pmj_delta = 0.01;  // threshold = 100
  PmjState<NullTracer> state(config, NullTracer{});
  FeedAlternating(state, r, s, 50, h);
  state.Finish(h.sink, h.sw);
  EXPECT_EQ(state.num_runs(), 41u);  // 40 full, and Finish seals 40 tuples

  const ReferenceResult expected = NestedLoopJoin(r, s);
  EXPECT_EQ(h.sink.count(), expected.matches);
  EXPECT_EQ(h.sink.checksum(), expected.checksum);
  // The merge phase alone: each of the two keys' 20 leading tuples meets
  // the other side's tuples outside its own run in exactly one run.
  EXPECT_GE(h.sink.runs(), 2u * 20);
  EXPECT_LE(h.sink.runs(), 2u * (20 + 20));
}

// The stopwatch reads the clock per phase change, and a state changes phase
// a constant number of times per block (PMJ: per sealed run), not per tuple.
TEST(PmjStateTest, OneBlockCostsConstantClockReads) {
  Rng rng(3);
  std::vector<Tuple> block(10000);
  for (Tuple& t : block) {
    t = {.ts = 0, .key = static_cast<uint32_t>(rng.NextBounded(100))};
  }
  const std::vector<const Tuple*> pointers = Pointers(block);
  // δ = 1 never seals inside the 20,000 tuples; δ = 0.01 seals a run every
  // 2,000 tuples, at one sort, one probe and one build switch each.
  for (const double delta : {1.0, 0.01}) {
    SCOPED_TRACE(delta);
    StateHarness h;
    EagerStateConfig config;
    config.expected_r = 100000;
    config.expected_s = 100000;
    config.pmj_delta = delta;
    PmjState<NullTracer> state(config, NullTracer{});
    state.OnR(pointers, h.sink, h.sw);
    state.OnS(pointers, h.sink, h.sw);
    EXPECT_LE(h.sw.clock_reads(), 1 + 3 * state.num_runs());
  }
}

TEST(ShjStateTest, OneBlockCostsConstantClockReads) {
  Rng rng(4);
  std::vector<Tuple> block(10000);
  for (Tuple& t : block) {
    t = {.ts = 0, .key = static_cast<uint32_t>(rng.NextBounded(100))};
  }
  const std::vector<const Tuple*> pointers = Pointers(block);
  EagerStateConfig config;
  config.expected_r = block.size();
  config.expected_s = block.size();
  const uint64_t matches = NestedLoopJoin(block, block).matches;
  const auto check = [&](EagerState&& state) {
    StateHarness h;
    state.OnR(pointers, h.sink, h.sw);
    EXPECT_EQ(h.sw.clock_reads(), 2u);  // build, then probe
    state.OnS(pointers, h.sink, h.sw);
    EXPECT_EQ(h.sw.clock_reads(), 4u);
    EXPECT_EQ(h.sink.count(), matches);
  };
  {
    SCOPED_TRACE("value");
    check(ShjValueState<NullTracer>(config, NullTracer{}));
  }
  {
    SCOPED_TRACE("pointer");
    check(ShjPointerState<NullTracer>(config, NullTracer{}));
  }
  {
    SCOPED_TRACE("linear");
    check(ShjLinearState<NullTracer>(config, NullTracer{}));
  }
}

TEST(ShjStateTest, ValueAndPointerStatesAgree) {
  Rng rng(2);
  std::vector<Tuple> r(500), s(500);
  for (auto& t : r) {
    t = {.ts = static_cast<uint32_t>(rng.NextBounded(100)),
         .key = static_cast<uint32_t>(rng.NextBounded(30))};
  }
  for (auto& t : s) {
    t = {.ts = static_cast<uint32_t>(rng.NextBounded(100)),
         .key = static_cast<uint32_t>(rng.NextBounded(30))};
  }
  const ReferenceResult expected = NestedLoopJoin(r, s);

  EagerStateConfig config;
  config.expected_r = r.size();
  config.expected_s = s.size();

  // Block sizes of one tuple (the pull loop's old granularity), an odd
  // size and the pull loop's own.
  for (const size_t block : {size_t{1}, size_t{37}, kEagerPullBlock}) {
    SCOPED_TRACE(block);
    StateHarness hv;
    ShjValueState<NullTracer> value_state(config, NullTracer{});
    FeedAlternating(value_state, r, s, block, hv);
    EXPECT_EQ(hv.sink.count(), expected.matches);
    EXPECT_EQ(hv.sink.checksum(), expected.checksum);

    StateHarness hp;
    ShjPointerState<NullTracer> pointer_state(config, NullTracer{});
    FeedAlternating(pointer_state, r, s, block, hp);
    EXPECT_EQ(hp.sink.count(), expected.matches);
    EXPECT_EQ(hp.sink.checksum(), expected.checksum);
  }
}

TEST(EagerEngine, StallsWhenConsumingFasterThanArrival) {
  // Slow trickle: the engine must accumulate wait time (paper §4.2.2: "the
  // eager algorithms may still stall if they consume tuples faster than
  // tuple arrival").
  MicroSpec mspec;
  mspec.rate_r = 2;
  mspec.rate_s = 2;
  mspec.window_ms = 60;
  const MicroWorkload w = GenerateMicro(mspec);

  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 60;
  spec.clock_mode = Clock::Mode::kRealTime;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kShjJm, w.r, w.s, spec);
  EXPECT_GT(result.phases.GetNs(Phase::kWait), 10'000'000u);
}

TEST(TracedAlgorithms, ProduceSameResultsAndCountAccesses) {
  MicroSpec mspec;
  mspec.size_r = 2000;
  mspec.size_s = 2000;
  mspec.dupe = 5;
  const MicroWorkload w = GenerateMicro(mspec);
  const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());

  JoinSpec spec;
  spec.num_threads = 2;
  JoinRunner runner;
  for (AlgorithmId id : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(id));
    std::vector<CacheSim> sims;
    sims.reserve(spec.num_threads);
    for (int t = 0; t < spec.num_threads; ++t) {
      sims.push_back(CacheSim::XeonGold6126());
    }
    std::vector<CacheSim*> sim_ptrs;
    for (auto& sim : sims) sim_ptrs.push_back(&sim);

    auto traced = CreateTracedAlgorithm(id);
    const RunResult result =
        runner.RunWith(traced.get(), w.r, w.s, spec, sim_ptrs.data());
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);

    uint64_t accesses = 0;
    for (const auto& sim : sims) accesses += sim.Total().accesses;
    EXPECT_GT(accesses, w.r.size() + w.s.size());
  }
}

}  // namespace
}  // namespace iawj
