// Cross-algorithm correctness: every one of the eight parallel IaWJ
// algorithms must produce the exact multiset of matches the sequential
// nested-loop reference produces — same count, same order-insensitive
// checksum — across workload shapes, thread counts, and algorithm knobs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/join/reference.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

struct WorkloadCase {
  std::string name;
  std::vector<Tuple> r;
  std::vector<Tuple> s;
};

std::vector<Tuple> RandomTuples(size_t n, uint32_t key_domain,
                                uint32_t window_ms, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples(n);
  for (auto& t : tuples) {
    t.key = static_cast<uint32_t>(rng.NextBounded(key_domain));
    t.ts = static_cast<uint32_t>(rng.NextBounded(window_ms));
  }
  return tuples;
}

std::vector<WorkloadCase> MakeWorkloads() {
  std::vector<WorkloadCase> cases;
  cases.push_back({"empty_r", {}, RandomTuples(500, 100, 1000, 1)});
  cases.push_back({"empty_s", RandomTuples(500, 100, 1000, 2), {}});
  cases.push_back({"both_empty", {}, {}});
  cases.push_back({"single_pair",
                   {Tuple{.ts = 5, .key = 7}},
                   {Tuple{.ts = 9, .key = 7}}});
  cases.push_back({"single_no_match",
                   {Tuple{.ts = 5, .key = 7}},
                   {Tuple{.ts = 9, .key = 8}}});
  cases.push_back(
      {"uniform", RandomTuples(4000, 1000, 1000, 3),
       RandomTuples(5000, 1000, 1000, 4)});
  cases.push_back(
      {"heavy_dup", RandomTuples(2000, 13, 1000, 5),
       RandomTuples(3000, 13, 1000, 6)});
  {
    // Every tuple shares one key: the worst case for hash chains, radix
    // partitioning, and key-aligned splits.
    std::vector<Tuple> r(300), s(200);
    for (size_t i = 0; i < r.size(); ++i) {
      r[i] = {static_cast<uint32_t>(i % 1000), 42};
    }
    for (size_t i = 0; i < s.size(); ++i) {
      s[i] = {static_cast<uint32_t>(i % 1000), 42};
    }
    cases.push_back({"all_same_key", std::move(r), std::move(s)});
  }
  cases.push_back(
      {"asymmetric_sizes", RandomTuples(50, 64, 1000, 7),
       RandomTuples(8000, 64, 1000, 8)});
  {
    MicroSpec spec;
    spec.size_r = 3000;
    spec.size_s = 3000;
    spec.window_ms = 1000;
    spec.dupe = 20;
    spec.zipf_key = 1.2;
    spec.seed = 99;
    MicroWorkload micro = GenerateMicro(spec);
    cases.push_back({"zipf_skew", std::move(micro.r.tuples),
                     std::move(micro.s.tuples)});
  }
  return cases;
}

class AlgorithmCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, int>> {};

TEST_P(AlgorithmCorrectnessTest, MatchesNestedLoopReference) {
  const auto [id, threads] = GetParam();
  for (const WorkloadCase& wc : MakeWorkloads()) {
    SCOPED_TRACE(wc.name);
    const Stream r = MakeStream(wc.r);
    const Stream s = MakeStream(wc.s);
    const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());

    JoinSpec spec;
    spec.num_threads = threads;
    spec.window_ms = 1000;
    spec.clock_mode = Clock::Mode::kInstant;
    spec.jb_group_size = threads % 2 == 0 ? 2 : 1;

    JoinRunner runner;
    const RunResult result = runner.Run(id, r, s, spec);
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);
    EXPECT_EQ(result.inputs, r.size() + s.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllThreadCounts, AlgorithmCorrectnessTest,
    ::testing::Combine(::testing::ValuesIn(kAllAlgorithms),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<AlgorithmId, int>>& info) {
      std::string name(AlgorithmName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// --- Knob sweeps: every §5.5 tuning parameter must preserve correctness ---

struct KnobCase {
  std::string name;
  AlgorithmId id;
  JoinSpec spec;
};

class KnobTest : public ::testing::TestWithParam<int> {};

TEST(AlgorithmKnobs, RadixBitsSweepPreservesResults) {
  const Stream r = MakeStream(RandomTuples(4000, 300, 1000, 11));
  const Stream s = MakeStream(RandomTuples(4000, 300, 1000, 12));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  for (int bits : {1, 4, 8, 12, 14}) {
    SCOPED_TRACE(bits);
    JoinSpec spec;
    spec.num_threads = 4;
    spec.radix_bits = bits;
    JoinRunner runner;
    const RunResult result = runner.Run(AlgorithmId::kPrj, r, s, spec);
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);
  }
}

TEST(AlgorithmKnobs, TwoPassRadixMatchesSinglePass) {
  const Stream r = MakeStream(RandomTuples(6000, 500, 1000, 31));
  const Stream s = MakeStream(RandomTuples(6000, 500, 1000, 32));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  for (int bits : {4, 10, 16}) {
    for (int passes : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "bits=" << bits
                                      << " passes=" << passes);
      JoinSpec spec;
      spec.num_threads = 4;
      spec.radix_bits = bits;
      spec.radix_passes = passes;
      JoinRunner runner;
      const RunResult result = runner.Run(AlgorithmId::kPrj, r, s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(AlgorithmKnobs, PmjDeltaSweepPreservesResults) {
  const Stream r = MakeStream(RandomTuples(3000, 200, 1000, 13));
  const Stream s = MakeStream(RandomTuples(3000, 200, 1000, 14));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  for (double delta : {0.01, 0.1, 0.2, 0.5, 1.0}) {
    SCOPED_TRACE(delta);
    JoinSpec spec;
    spec.num_threads = 2;
    spec.pmj_delta = delta;
    JoinRunner runner;
    for (AlgorithmId id : {AlgorithmId::kPmjJm, AlgorithmId::kPmjJb}) {
      const RunResult result = runner.Run(id, r, s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(AlgorithmKnobs, JbGroupSizeSweepPreservesResults) {
  const Stream r = MakeStream(RandomTuples(2000, 150, 1000, 15));
  const Stream s = MakeStream(RandomTuples(2500, 150, 1000, 16));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  for (int g : {1, 2, 4, 8}) {
    SCOPED_TRACE(g);
    JoinSpec spec;
    spec.num_threads = 8;
    spec.jb_group_size = g;
    JoinRunner runner;
    for (AlgorithmId id : {AlgorithmId::kShjJb, AlgorithmId::kPmjJb}) {
      const RunResult result = runner.Run(id, r, s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(AlgorithmKnobs, PhysicalPartitioningPreservesResults) {
  const Stream r = MakeStream(RandomTuples(2000, 100, 1000, 17));
  const Stream s = MakeStream(RandomTuples(2000, 100, 1000, 18));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  for (bool physical : {false, true}) {
    SCOPED_TRACE(physical);
    JoinSpec spec;
    spec.num_threads = 4;
    spec.eager_physical_partition = physical;
    JoinRunner runner;
    for (AlgorithmId id : {AlgorithmId::kShjJm, AlgorithmId::kShjJb,
                           AlgorithmId::kPmjJm, AlgorithmId::kPmjJb}) {
      SCOPED_TRACE(AlgorithmName(id));
      const RunResult result = runner.Run(id, r, s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(AlgorithmKnobs, ScalarSortPathPreservesResults) {
  const Stream r = MakeStream(RandomTuples(5000, 400, 1000, 19));
  const Stream s = MakeStream(RandomTuples(5000, 400, 1000, 20));
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
  JoinSpec spec;
  spec.num_threads = 4;
  spec.use_simd = false;
  JoinRunner runner;
  for (AlgorithmId id : {AlgorithmId::kMway, AlgorithmId::kMpass,
                         AlgorithmId::kPmjJm, AlgorithmId::kPmjJb}) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult result = runner.Run(id, r, s, spec);
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);
  }
}

// Windowing: tuples outside [0, window_ms) must not participate.
TEST(Windowing, OnlyWindowTuplesJoin) {
  std::vector<Tuple> r = RandomTuples(2000, 100, 2000, 21);
  std::vector<Tuple> s = RandomTuples(2000, 100, 2000, 22);
  const Stream rs = MakeStream(r);
  const Stream ss = MakeStream(s);

  // Reference restricted to the window.
  std::vector<Tuple> rw, sw;
  for (const Tuple& t : rs.tuples) {
    if (t.ts < 700) rw.push_back(t);
  }
  for (const Tuple& t : ss.tuples) {
    if (t.ts < 700) sw.push_back(t);
  }
  const ReferenceResult expected = NestedLoopJoin(rw, sw);

  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 700;
  JoinRunner runner;
  for (AlgorithmId id : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult result = runner.Run(id, rs, ss, spec);
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);
    EXPECT_EQ(result.inputs, rw.size() + sw.size());
  }
}

}  // namespace
}  // namespace iawj
