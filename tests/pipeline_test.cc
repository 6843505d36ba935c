// Tests for the tumbling-window pipeline and the adaptive algorithm.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/join/adaptive.h"
#include "src/join/reference.h"
#include "src/join/window_pipeline.h"
#include "src/stream/disorder.h"

namespace iawj {
namespace {

// A stream spanning several windows with matching keys.
Stream MultiWindowStream(size_t n, uint32_t horizon_ms, uint32_t key_domain,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples(n);
  for (auto& t : tuples) {
    t.key = static_cast<uint32_t>(rng.NextBounded(key_domain));
    t.ts = static_cast<uint32_t>(rng.NextBounded(horizon_ms));
  }
  return MakeStream(std::move(tuples));
}

// Oracle: per-window nested-loop joins (tuples only match within a window).
uint64_t WindowedReferenceMatches(const Stream& r, const Stream& s,
                                  uint32_t window_ms) {
  uint64_t total = 0;
  const uint32_t horizon = std::max(r.MaxTs(), s.MaxTs()) + 1;
  for (uint32_t start = 0; start < horizon; start += window_ms) {
    std::vector<Tuple> wr, ws;
    for (const Tuple& t : r.tuples) {
      if (t.ts >= start && t.ts < start + window_ms) wr.push_back(t);
    }
    for (const Tuple& t : s.tuples) {
      if (t.ts >= start && t.ts < start + window_ms) ws.push_back(t);
    }
    total += NestedLoopJoin(wr, ws).matches;
  }
  return total;
}

TEST(WindowPipeline, MatchesPerWindowReference) {
  const Stream r = MultiWindowStream(4000, 500, 80, 1);
  const Stream s = MultiWindowStream(4000, 500, 80, 2);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;  // five windows

  const uint64_t expected = WindowedReferenceMatches(r, s, 100);
  for (AlgorithmId id : {AlgorithmId::kNpj, AlgorithmId::kMpass,
                         AlgorithmId::kShjJm, AlgorithmId::kPmjJb}) {
    SCOPED_TRACE(AlgorithmName(id));
    const PipelineResult result = RunTumblingWindows(id, r, s, spec);
    EXPECT_EQ(result.total_matches, expected);
    EXPECT_EQ(result.windows.size(), 5u);
    EXPECT_EQ(result.total_inputs, r.size() + s.size());
  }
}

TEST(WindowPipeline, TuplesNeverJoinAcrossWindows) {
  // Same key in different windows: zero matches.
  Stream r = MakeStream({{.ts = 10, .key = 1}, {.ts = 210, .key = 2}});
  Stream s = MakeStream({{.ts = 110, .key = 1}, {.ts = 310, .key = 2}});
  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 100;
  const PipelineResult result =
      RunTumblingWindows(AlgorithmId::kNpj, r, s, spec);
  EXPECT_EQ(result.total_matches, 0u);
}

TEST(WindowPipeline, SkipsEmptyWindows) {
  Stream r = MakeStream({{.ts = 10, .key = 1}, {.ts = 910, .key = 1}});
  Stream s = MakeStream({{.ts = 20, .key = 1}, {.ts = 920, .key = 1}});
  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 100;
  const PipelineResult result =
      RunTumblingWindows(AlgorithmId::kNpj, r, s, spec);
  EXPECT_EQ(result.total_matches, 2u);
  ASSERT_EQ(result.windows.size(), 2u);  // windows 0 and 9 only
  EXPECT_EQ(result.windows[0].window_index, 0u);
  EXPECT_EQ(result.windows[1].window_index, 9u);
}

TEST(WindowPipeline, PolicyIsConsultedPerWindow) {
  const Stream r = MultiWindowStream(2000, 300, 50, 3);
  const Stream s = MultiWindowStream(2000, 300, 50, 4);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  int calls = 0;
  const PipelineResult result = RunTumblingWindows(
      r, s, spec, [&calls](const Stream&, const Stream&) {
        ++calls;
        return calls % 2 == 0 ? AlgorithmId::kMway : AlgorithmId::kNpj;
      });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.total_matches, WindowedReferenceMatches(r, s, 100));
}

TEST(WindowPipeline, SlidingWindowsReportOverlapMatches) {
  // One matching pair at ts 10/20; window 100, hop 50: the pair is inside
  // windows starting at 0 (and only that one, since window [50,150) misses
  // ts=10 and window start times align at hops).
  Stream r = MakeStream({{.ts = 10, .key = 1}});
  Stream s = MakeStream({{.ts = 20, .key = 1}});
  JoinSpec spec;
  spec.num_threads = 1;
  spec.window_ms = 100;
  PipelineResult result =
      RunSlidingWindows(AlgorithmId::kNpj, r, s, spec, /*hop_ms=*/50);
  EXPECT_EQ(result.total_matches, 1u);

  // Pair at ts 60/70 falls into both window [0,100) and window [50,150).
  r = MakeStream({{.ts = 60, .key = 2}});
  s = MakeStream({{.ts = 70, .key = 2}});
  result = RunSlidingWindows(AlgorithmId::kNpj, r, s, spec, /*hop_ms=*/50);
  EXPECT_EQ(result.total_matches, 2u);
}

TEST(WindowPipeline, SlidingWithHopEqualWindowIsTumbling) {
  const Stream r = MultiWindowStream(2000, 400, 60, 7);
  const Stream s = MultiWindowStream(2000, 400, 60, 8);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  const PipelineResult sliding =
      RunSlidingWindows(AlgorithmId::kMpass, r, s, spec, 100);
  const PipelineResult tumbling =
      RunTumblingWindows(AlgorithmId::kMpass, r, s, spec);
  EXPECT_EQ(sliding.total_matches, tumbling.total_matches);
  EXPECT_EQ(sliding.total_checksum, tumbling.total_checksum);
}

TEST(WindowPipeline, SessionWindowsSplitAtSilence) {
  // Two bursts separated by 500ms of silence; a key appearing in both
  // bursts must not match across the gap.
  std::vector<Tuple> r, s;
  for (uint32_t ts = 0; ts < 50; ++ts) {
    r.push_back({ts, 1});
    s.push_back({ts + 1, 1});
  }
  for (uint32_t ts = 600; ts < 650; ++ts) {
    r.push_back({ts, 1});
    s.push_back({ts + 1, 1});
  }
  const Stream rs = MakeStream(std::move(r));
  const Stream ss = MakeStream(std::move(s));

  JoinSpec spec;
  spec.num_threads = 2;
  const PipelineResult result =
      RunSessionWindows(AlgorithmId::kShjJm, rs, ss, spec, /*gap_ms=*/200);
  ASSERT_EQ(result.windows.size(), 2u);
  // Within each burst every pair matches: 50 x 50 per session.
  EXPECT_EQ(result.total_matches, 2u * 50 * 50);
}

TEST(WindowPipeline, SessionWithoutGapsIsOneWindow) {
  const Stream r = MultiWindowStream(1000, 200, 30, 9);
  const Stream s = MultiWindowStream(1000, 200, 30, 10);
  JoinSpec spec;
  spec.num_threads = 2;
  const PipelineResult result =
      RunSessionWindows(AlgorithmId::kNpj, r, s, spec, /*gap_ms=*/1000);
  EXPECT_EQ(result.windows.size(), 1u);
  EXPECT_EQ(result.total_matches,
            NestedLoopJoin(r.view(), s.view()).matches);
}

// Sliding and session windows over arrivals shuffled within the disorder
// slack: the reorder buffer restores the exact order, so every window —
// index, start, inputs, matches, checksum — equals the ordered run's.
TEST(WindowPipeline, ShuffledSlidingAndSessionWindowsMatchOrderedRun) {
  const Stream r = MultiWindowStream(3000, 600, 50, 21);
  const Stream s = MultiWindowStream(3000, 600, 50, 22);
  // Sessions need silences: drop everything in [200, 300) and [420, 470).
  const auto gapped = [](const Stream& in) {
    std::vector<Tuple> kept;
    for (const Tuple& t : in.tuples) {
      if ((t.ts < 200 || t.ts >= 300) && (t.ts < 420 || t.ts >= 470)) {
        kept.push_back(t);
      }
    }
    return Stream{std::move(kept)};
  };
  const Stream gr = gapped(r), gs = gapped(s);
  const Stream shuffled_r = PermuteWithinSlack(gr, 8, 5);
  const Stream shuffled_s = PermuteWithinSlack(gs, 8, 6);

  JoinSpec ordered;
  ordered.num_threads = 2;
  ordered.window_ms = 100;
  ordered.disorder_slack_ms = -1;
  ordered.allowed_lateness_ms = -1;
  ordered.shed_watermark_per_ms = -1;
  JoinSpec ingesting = ordered;
  ingesting.disorder_slack_ms = 8;

  const auto expect_same = [](const PipelineResult& got,
                              const PipelineResult& want) {
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    ASSERT_EQ(got.windows.size(), want.windows.size());
    for (size_t i = 0; i < got.windows.size(); ++i) {
      SCOPED_TRACE("window " + std::to_string(i));
      EXPECT_EQ(got.windows[i].window_index, want.windows[i].window_index);
      EXPECT_EQ(got.windows[i].window_start_ms,
                want.windows[i].window_start_ms);
      EXPECT_EQ(got.windows[i].result.inputs, want.windows[i].result.inputs);
      EXPECT_EQ(got.windows[i].result.matches,
                want.windows[i].result.matches);
      EXPECT_EQ(got.windows[i].result.checksum,
                want.windows[i].result.checksum);
    }
    EXPECT_EQ(got.ingest.late_total, 0u);
  };
  {
    SCOPED_TRACE("sliding");
    const PipelineResult want =
        RunSlidingWindows(AlgorithmId::kNpj, gr, gs, ordered, 40);
    EXPECT_GT(want.windows.size(), 10u);
    expect_same(RunSlidingWindows(AlgorithmId::kNpj, shuffled_r, shuffled_s,
                                  ingesting, 40),
                want);
  }
  {
    SCOPED_TRACE("session");
    const PipelineResult want =
        RunSessionWindows(AlgorithmId::kMway, gr, gs, ordered, 30);
    EXPECT_EQ(want.windows.size(), 3u);
    expect_same(RunSessionWindows(AlgorithmId::kMway, shuffled_r, shuffled_s,
                                  ingesting, 30),
                want);
  }
}

TEST(Adaptive, PicksEagerForSlowStreamsAndSortForHeavyDup) {
  AdaptiveOptions options;
  options.objective = Objective::kLatency;

  // Slow trickle: low arrival rate -> SHJ-JM.
  MicroSpec slow;
  slow.rate_r = slow.rate_s = 50;
  slow.window_ms = 1000;
  const MicroWorkload ws = GenerateMicro(slow);
  EXPECT_EQ(ChooseAlgorithm(ws.r, ws.s, options).algorithm,
            AlgorithmId::kShjJm);

  // Heavy duplication at a high rate -> lazy sort join for throughput.
  MicroSpec dup;
  dup.rate_r = dup.rate_s = 30000;
  dup.window_ms = 200;
  dup.dupe = 100;
  const MicroWorkload wd = GenerateMicro(dup);
  AdaptiveOptions tput;
  tput.objective = Objective::kThroughput;
  tput.hardware.num_cores = 4;
  const AlgorithmId pick = ChooseAlgorithm(wd.r, wd.s, tput).algorithm;
  EXPECT_TRUE(pick == AlgorithmId::kMway || pick == AlgorithmId::kMpass);
}

TEST(Adaptive, RunAdaptiveProducesCorrectJoin) {
  MicroSpec mspec;
  mspec.size_r = mspec.size_s = 3000;
  mspec.window_ms = 500;
  mspec.dupe = 5;
  const MicroWorkload w = GenerateMicro(mspec);
  const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());

  JoinSpec spec;
  spec.num_threads = 3;  // jb_group_size 2 does not divide 3: fallback path
  AdaptiveOptions options;
  options.objective = Objective::kProgressiveness;
  AdaptiveChoice choice;
  const RunResult result = RunAdaptive(w.r, w.s, spec, options, &choice);
  EXPECT_EQ(result.matches, expected.matches);
  EXPECT_EQ(result.checksum, expected.checksum);
}

TEST(Adaptive, SamplingCapKeepsDecisionCheap) {
  MicroSpec mspec;
  mspec.size_r = mspec.size_s = 200000;
  mspec.window_ms = 100;
  mspec.dupe = 50;
  const MicroWorkload w = GenerateMicro(mspec);
  AdaptiveOptions options;
  options.sample_limit = 1000;  // far below the stream size
  const AdaptiveChoice choice = ChooseAlgorithm(w.r, w.s, options);
  // Duplication is a density property; the sample must still detect it.
  EXPECT_EQ(choice.profile.key_duplication, Level::kHigh);
}

TEST(Adaptive, PipelinePolicyAdaptsAcrossWindows) {
  const Stream r = MultiWindowStream(3000, 300, 40, 5);
  const Stream s = MultiWindowStream(3000, 300, 40, 6);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  AdaptiveOptions options;
  const PipelineResult result =
      RunTumblingWindows(r, s, spec, MakeAdaptivePolicy(options));
  EXPECT_EQ(result.total_matches, WindowedReferenceMatches(r, s, 100));
}

}  // namespace
}  // namespace iawj
