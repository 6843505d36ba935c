// Tests for the runner and its metric collection: throughput/latency/
// progressiveness semantics, phase breakdowns, real-time clock behaviour,
// spec validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/join/merge_join.h"
#include "src/join/reference.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

MicroWorkload SmallWorkload() {
  MicroSpec spec;
  spec.size_r = 4000;
  spec.size_s = 4000;
  spec.window_ms = 100;
  spec.dupe = 4;
  spec.seed = 5;
  return GenerateMicro(spec);
}

TEST(Runner, MetricsAreInternallyConsistent) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  JoinRunner runner;
  for (AlgorithmId id : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult result = runner.Run(id, w.r, w.s, spec);
    EXPECT_EQ(result.algorithm, AlgorithmName(id));
    EXPECT_GT(result.matches, 0u);
    EXPECT_EQ(result.progress.total(), result.matches);
    EXPECT_EQ(result.latency.count(), result.matches);
    EXPECT_GT(result.throughput_per_ms, 0);
    EXPECT_GT(result.elapsed_ms, 0);
    EXPECT_GE(result.elapsed_ms, result.last_match_ms);
    EXPECT_LE(result.p95_latency_ms,
              result.latency.QuantileMs(1.0) + 1e-9);
    EXPECT_GE(result.p95_latency_ms, result.latency.QuantileMs(0.5) - 1e-9);
    EXPECT_GT(result.phases.TotalNs(), 0u);
    EXPECT_GT(result.peak_tracked_bytes, 0);
  }
}

TEST(Runner, ThroughputDefinitionInputsOverLastMatch) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 100;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  EXPECT_NEAR(result.throughput_per_ms,
              static_cast<double>(result.inputs) / result.last_match_ms,
              1e-6);
}

TEST(Runner, LazyAlgorithmsWaitForWindowInRealTime) {
  MicroSpec mspec;
  mspec.rate_r = 20;
  mspec.rate_s = 20;
  mspec.window_ms = 50;
  const MicroWorkload w = GenerateMicro(mspec);

  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 50;
  spec.clock_mode = Clock::Mode::kRealTime;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  // The lazy join cannot finish before the window closes...
  EXPECT_GE(result.last_match_ms, 48.0);
  // ...and its workers spend that time in the wait phase.
  EXPECT_GT(result.phases.GetNs(Phase::kWait), 40'000'000u);
}

TEST(Runner, EagerDeliversMatchesBeforeWindowCloses) {
  MicroSpec mspec;
  mspec.rate_r = 50;
  mspec.rate_s = 50;
  mspec.window_ms = 60;
  mspec.dupe = 5;
  const MicroWorkload w = GenerateMicro(mspec);

  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 60;
  spec.clock_mode = Clock::Mode::kRealTime;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kShjJm, w.r, w.s, spec);
  ASSERT_GT(result.matches, 0u);
  // SHJ produces its first matches long before the window closes.
  EXPECT_LT(result.progress.TimeToFractionMs(0.05), 55.0);
}

TEST(Runner, RealTimeAndInstantProduceSameMatches) {
  MicroSpec mspec;
  mspec.rate_r = 100;
  mspec.rate_s = 100;
  mspec.window_ms = 40;
  mspec.dupe = 3;
  const MicroWorkload w = GenerateMicro(mspec);
  const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());

  JoinRunner runner;
  for (AlgorithmId id : {AlgorithmId::kNpj, AlgorithmId::kShjJm,
                         AlgorithmId::kPmjJb, AlgorithmId::kMpass}) {
    SCOPED_TRACE(AlgorithmName(id));
    for (Clock::Mode mode :
         {Clock::Mode::kInstant, Clock::Mode::kRealTime}) {
      JoinSpec spec;
      spec.num_threads = 2;
      spec.window_ms = 40;
      spec.clock_mode = mode;
      const RunResult result = runner.Run(id, w.r, w.s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(Runner, TimeScaleAcceleratesStreams) {
  MicroSpec mspec;
  mspec.rate_r = 20;
  mspec.rate_s = 20;
  mspec.window_ms = 200;
  const MicroWorkload w = GenerateMicro(mspec);

  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 200;
  spec.clock_mode = Clock::Mode::kRealTime;
  spec.time_scale = 10.0;  // 200 stream-ms in ~20 wall-ms
  JoinRunner runner;
  const auto wall_start = std::chrono::steady_clock::now();
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  EXPECT_GE(result.last_match_ms, 190.0);  // stream time still ~window
  EXPECT_LT(wall_ms, 150.0);               // but wall time compressed
}

TEST(Runner, ValidateRejectsBadSpecs) {
  JoinSpec spec;
  spec.num_threads = 0;
  EXPECT_FALSE(spec.Validate(AlgorithmId::kNpj).ok());
  spec = JoinSpec{};
  spec.radix_bits = 0;
  EXPECT_FALSE(spec.Validate(AlgorithmId::kPrj).ok());
  EXPECT_TRUE(spec.Validate(AlgorithmId::kNpj).ok());
  spec = JoinSpec{};
  spec.pmj_delta = 0;
  EXPECT_FALSE(spec.Validate(AlgorithmId::kPmjJm).ok());
  spec = JoinSpec{};
  spec.num_threads = 4;
  spec.jb_group_size = 3;
  EXPECT_FALSE(spec.Validate(AlgorithmId::kShjJb).ok());
  EXPECT_TRUE(spec.Validate(AlgorithmId::kShjJm).ok());
}

TEST(Runner, PhaseBreakdownReflectsAlgorithmStructure) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  JoinRunner runner;

  const RunResult npj = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  EXPECT_GT(npj.phases.GetNs(Phase::kBuild), 0u);
  EXPECT_GT(npj.phases.GetNs(Phase::kProbe), 0u);
  EXPECT_EQ(npj.phases.GetNs(Phase::kSort), 0u);

  const RunResult mway = runner.Run(AlgorithmId::kMway, w.r, w.s, spec);
  EXPECT_GT(mway.phases.GetNs(Phase::kSort), 0u);
  EXPECT_GT(mway.phases.GetNs(Phase::kMerge), 0u);

  const RunResult prj = runner.Run(AlgorithmId::kPrj, w.r, w.s, spec);
  EXPECT_GT(prj.phases.GetNs(Phase::kPartition), 0u);

  const RunResult shj = runner.Run(AlgorithmId::kShjJm, w.r, w.s, spec);
  EXPECT_GT(shj.phases.GetNs(Phase::kPartition), 0u);
  EXPECT_GT(shj.phases.GetNs(Phase::kBuild), 0u);
  EXPECT_GT(shj.phases.GetNs(Phase::kProbe), 0u);
}

TEST(Runner, WorkPerInputExcludesWait) {
  RunResult r;
  r.inputs = 100;
  r.phases.AddNs(Phase::kWait, 10000);
  r.phases.AddNs(Phase::kProbe, 500);
  EXPECT_DOUBLE_EQ(r.WorkNsPerInput(), 5.0);
}

// Packed S tuples of one key with distinct timestamps, as a merge join
// hands them to MatchSink::OnRun.
std::vector<uint64_t> EqualKeyBlock(uint32_t key, size_t n) {
  std::vector<uint64_t> s;
  for (size_t b = 0; b < n; ++b) {
    s.push_back(PackTuple({.ts = static_cast<uint32_t>(3 * b), .key = key}));
  }
  return s;
}

// A run of n matches records what n OnMatch calls record: the same count
// and checksum, and n latency and progress observations.
void ExpectRunMatchesSingles(Clock::Mode mode) {
  Clock clock(mode);
  clock.Start();
  MatchSink run_sink, single_sink;
  run_sink.Bind(&clock);
  single_sink.Bind(&clock);
  const std::vector<uint64_t> s = EqualKeyBlock(42, MatchSink::kMaxRun);
  run_sink.OnRun(42, 17, s.data(), s.size(), [](size_t) { return true; });
  for (uint64_t packed : s) single_sink.OnMatch(42, 17, PackedTs(packed));

  EXPECT_EQ(run_sink.count(), s.size());
  EXPECT_EQ(run_sink.count(), single_sink.count());
  EXPECT_EQ(run_sink.checksum(), single_sink.checksum());
  for (const MatchSink* sink : {&run_sink, &single_sink}) {
    EXPECT_EQ(sink->latency().count(), s.size());
    EXPECT_EQ(sink->progress().total(), s.size());
  }
}

TEST(MatchSink, RunMatchesSinglesUnderInstantClock) {
  ExpectRunMatchesSingles(Clock::Mode::kInstant);
}

TEST(MatchSink, RunMatchesSinglesUnderRealTimeClock) {
  ExpectRunMatchesSingles(Clock::Mode::kRealTime);
}

TEST(MatchSink, InstantRunSharesOneStamp) {
  Clock clock(Clock::Mode::kInstant);
  clock.Start();
  MatchSink sink;
  sink.Bind(&clock);
  const std::vector<uint64_t> s = EqualKeyBlock(7, 1000);
  sink.OnRun(7, 0, s.data(), s.size(), [](size_t) { return true; });
  // The lowest rank and the highest fall in the same latency bucket.
  EXPECT_EQ(sink.latency().QuantileMs(1.0 / 1000),
            sink.latency().QuantileMs(1));
  EXPECT_EQ(sink.progress().Curve().size(), 1u);
}

TEST(MatchSink, AcceptFiltersRunMatches) {
  Clock clock(Clock::Mode::kInstant);
  clock.Start();
  MatchSink none, even, singles;
  for (MatchSink* sink : {&none, &even, &singles}) sink->Bind(&clock);
  const std::vector<uint64_t> s = EqualKeyBlock(9, 100);

  none.OnRun(9, 5, s.data(), s.size(), [](size_t) { return false; });
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.checksum(), 0u);
  EXPECT_EQ(none.runs(), 0u);
  EXPECT_EQ(none.latency().count(), 0u);
  EXPECT_EQ(none.progress().total(), 0u);
  EXPECT_EQ(none.last_match_ms(), 0);

  even.OnRun(9, 5, s.data(), s.size(), [](size_t b) { return b % 2 == 0; });
  for (size_t b = 0; b < s.size(); b += 2) {
    singles.OnMatch(9, 5, PackedTs(s[b]));
  }
  EXPECT_EQ(even.count(), 50u);
  EXPECT_EQ(even.checksum(), singles.checksum());
  EXPECT_EQ(even.runs(), 1u);
  EXPECT_EQ(singles.runs(), 50u);
  EXPECT_EQ(even.latency().count(), 50u);
  EXPECT_EQ(even.progress().total(), 50u);
}

// A run led by an S tuple records what its pairs record through OnMatch:
// the same count and checksum, and one latency and progress observation
// per pair, in one run.
void ExpectMirroredRunMatchesSingles(Clock::Mode mode) {
  Clock clock(mode);
  clock.Start();
  constexpr uint32_t kSTs = 40;
  const std::vector<uint64_t> r = EqualKeyBlock(42, MatchSink::kMaxRun);
  for (const bool masked : {false, true}) {
    SCOPED_TRACE(masked ? "accept even" : "accept all");
    const auto accept = [masked](size_t b) { return !masked || b % 2 == 0; };
    MatchSink run_sink, single_sink;
    run_sink.Bind(&clock);
    single_sink.Bind(&clock);
    run_sink.OnRun<Lead::kS>(42, kSTs, r.data(), r.size(), accept);
    uint64_t pairs = 0;
    for (size_t b = 0; b < r.size(); ++b) {
      if (!accept(b)) continue;
      single_sink.OnMatch(42, PackedTs(r[b]), kSTs);
      ++pairs;
    }

    EXPECT_EQ(run_sink.count(), pairs);
    EXPECT_EQ(run_sink.checksum(), single_sink.checksum());
    EXPECT_EQ(run_sink.runs(), 1u);
    EXPECT_EQ(single_sink.runs(), pairs);
    for (const MatchSink* sink : {&run_sink, &single_sink}) {
      EXPECT_EQ(sink->latency().count(), pairs);
      EXPECT_EQ(sink->progress().total(), pairs);
    }

    // The flag swaps the roles: led by R, the same tuples are other pairs.
    MatchSink r_led;
    r_led.Bind(&clock);
    r_led.OnRun(42, kSTs, r.data(), r.size(), accept);
    EXPECT_NE(r_led.checksum(), run_sink.checksum());
  }
}

TEST(MatchSink, MirroredRunMatchesSinglesUnderInstantClock) {
  ExpectMirroredRunMatchesSingles(Clock::Mode::kInstant);
}

TEST(MatchSink, MirroredRunMatchesSinglesUnderRealTimeClock) {
  ExpectMirroredRunMatchesSingles(Clock::Mode::kRealTime);
}

// Sorted packed tuples, as the merge joins hold them.
std::vector<uint64_t> SortedPacked(const std::vector<Tuple>& tuples) {
  std::vector<uint64_t> packed;
  for (const Tuple& t : tuples) packed.push_back(PackTuple(t));
  std::sort(packed.begin(), packed.end());
  return packed;
}

// Each equal-key block is led by its smaller side, so a block of |R_k| x
// |S_k| pairs costs min(|R_k|, |S_k|) runs per kMaxRun-chunk of the larger
// side: 3 x 5,000 is 3 x 2 runs either way round, not 5,000 x 1.
TEST(MergeJoin, SmallerSideLeadsEachEqualKeyBlock) {
  Clock clock(Clock::Mode::kInstant);
  clock.Start();
  Rng rng(21);
  struct Block {
    size_t nr;
    size_t ns;
  };
  for (const Block block : {Block{3, 5000}, Block{5000, 3}, Block{300, 300}}) {
    SCOPED_TRACE(testing::Message() << block.nr << " x " << block.ns);
    // The block's key 50, between keys that find no partner.
    std::vector<Tuple> r, s;
    const auto add = [&](std::vector<Tuple>& side, size_t n, uint32_t key) {
      for (size_t i = 0; i < n; ++i) {
        side.push_back(
            {.ts = static_cast<uint32_t>(rng.NextBounded(1000)), .key = key});
      }
    };
    add(r, 10, 10);
    add(s, 10, 20);
    add(r, block.nr, 50);
    add(s, block.ns, 50);
    add(r, 10, 70);
    add(s, 10, 90);
    const std::vector<uint64_t> pr = SortedPacked(r);
    const std::vector<uint64_t> ps = SortedPacked(s);

    MatchSink sink;
    sink.Bind(&clock);
    NullTracer tracer;
    MergeJoin(pr.data(), pr.size(), ps.data(), ps.size(), sink, tracer,
              nullptr);

    const ReferenceResult expected = NestedLoopJoin(r, s);
    EXPECT_EQ(sink.count(), expected.matches);
    EXPECT_EQ(sink.checksum(), expected.checksum);
    const size_t lead = std::min(block.nr, block.ns);
    const size_t other = std::max(block.nr, block.ns);
    const size_t chunks =
        (other + MatchSink::kMaxRun - 1) / MatchSink::kMaxRun;
    EXPECT_EQ(sink.runs(), lead * chunks);
  }
}

}  // namespace
}  // namespace iawj
