// Differential property test for the kernel layer and the morsel
// scheduler: every algorithm must produce the exact multiset of matches
// (count + order-insensitive checksum vs the sequential nested-loop
// reference) under both kernel modes — the paper's scalar loops and the
// auto plan (SWWC scatter, lock-free NPJ build, AVX2 or batched probe) —
// under both hash-table substrates, and under BOTH scheduler modes —
// static chunking and morsel-driven work stealing with a deliberately tiny
// morsel size — across seeded randomized workloads. The workloads
// deliberately include sizes whose tails are not divisible by the SWWC line
// width (8), the SIMD probe width (8) or the probe batch width (16), heavy
// duplication, skew, and thread counts including 1, odd, and more threads
// than tuples (so workers start with empty morsel ranges).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/kernels.h"
#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/hash/simd_probe.h"
#include "src/join/eager_engine.h"
#include "src/join/reference.h"
#include "src/join/runner.h"
#include "src/serve/protocol.h"

namespace iawj {
namespace {

struct RandomWorkload {
  std::string name;
  std::vector<Tuple> r;
  std::vector<Tuple> s;
  int threads;
  int radix_bits;
};

std::vector<Tuple> RandomTuples(Rng& rng, size_t n, uint32_t key_domain,
                                uint32_t window_ms) {
  std::vector<Tuple> tuples(n);
  for (auto& t : tuples) {
    t.key = static_cast<uint32_t>(rng.NextBounded(key_domain));
    t.ts = static_cast<uint32_t>(rng.NextBounded(window_ms));
  }
  return tuples;
}

// Derives one workload from a seed. Sizes get a [0, 17) jitter so tails are
// rarely divisible by the kernel widths; thread counts cycle through 1, odd,
// and even; key domains range from two keys (maximal duplication) to larger
// than the inputs (mostly unique).
RandomWorkload MakeRandomWorkload(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  RandomWorkload w;
  w.name = "seed" + std::to_string(seed);
  const size_t base_r = 200 + rng.NextBounded(3000);
  const size_t base_s = 200 + rng.NextBounded(3000);
  const size_t n_r = base_r + rng.NextBounded(17);
  const size_t n_s = base_s + rng.NextBounded(17);
  const uint32_t domains[] = {2, 13, 100, 1000, 1u << 20};
  const uint32_t domain = domains[rng.NextBounded(5)];
  w.r = RandomTuples(rng, n_r, domain, 1000);
  w.s = RandomTuples(rng, n_s, domain, 1000);
  const int thread_choices[] = {1, 2, 3, 5, 8};
  w.threads = thread_choices[rng.NextBounded(5)];
  const int bits_choices[] = {1, 3, 7, 10, 13};
  w.radix_bits = bits_choices[rng.NextBounded(5)];
  return w;
}

void ExpectAllAlgorithmsMatchReference(const RandomWorkload& w) {
  const Stream r = MakeStream(w.r);
  const Stream s = MakeStream(w.s);
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());

  for (const KernelMode mode : kAllKernelModes) {
    for (const SchedulerMode sched :
         {SchedulerMode::kStatic, SchedulerMode::kMorsel}) {
      for (const HashTableKind table_kind :
           {HashTableKind::kBucketChain, HashTableKind::kLinearProbe}) {
        for (AlgorithmId id : kAllAlgorithms) {
          SCOPED_TRACE(testing::Message()
                       << w.name << " algo=" << AlgorithmName(id)
                       << " kernels=" << KernelModeName(mode)
                       << " scheduler=" << SchedulerModeName(sched)
                       << " table="
                       << (table_kind == HashTableKind::kLinearProbe
                               ? "linear_probe"
                               : "bucket_chain")
                       << " threads=" << w.threads
                       << " bits=" << w.radix_bits << " r=" << w.r.size()
                       << " s=" << w.s.size());
          JoinSpec spec;
          spec.num_threads = w.threads;
          spec.window_ms = 1000;
          spec.clock_mode = Clock::Mode::kInstant;
          spec.kernels = mode;
          spec.scheduler = sched;
          spec.hash_table_kind = table_kind;
          // Small enough that these few-thousand-tuple inputs split into
          // many morsels per worker, so the steal paths actually execute.
          spec.morsel_size = 128;
          spec.radix_bits = w.radix_bits;
          spec.jb_group_size = w.threads % 2 == 0 ? 2 : 1;
          JoinRunner runner;
          const RunResult result = runner.Run(id, r, s, spec);
          EXPECT_EQ(result.matches, expected.matches);
          EXPECT_EQ(result.checksum, expected.checksum);
          EXPECT_EQ(result.scheduler_resolved, sched);
          EXPECT_EQ(result.kernels_resolved, mode);
        }
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllKernelModesMatchNestedLoop) {
  ExpectAllAlgorithmsMatchReference(MakeRandomWorkload(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(SeededWorkloads, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Deliberate edge shapes the random sweep may under-sample.

TEST(DifferentialEdges, TailsJustBelowAndAboveKernelWidths) {
  // Sizes straddling the SWWC line width (8) and probe batch width (16):
  // the batched loops must hand exact remainders to their tail paths.
  Rng rng(4242);
  for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                         size_t{15}, size_t{16}, size_t{17}, size_t{31},
                         size_t{33}, size_t{127}}) {
    RandomWorkload w;
    w.name = "tail" + std::to_string(n);
    w.r = RandomTuples(rng, n, 8, 1000);
    w.s = RandomTuples(rng, n + rng.NextBounded(3), 8, 1000);
    w.threads = 1 + static_cast<int>(rng.NextBounded(4));
    w.radix_bits = 4;
    ExpectAllAlgorithmsMatchReference(w);
  }
}

TEST(DifferentialEdges, ZipfSkewBothKernelModes) {
  MicroSpec spec;
  spec.size_r = 4000;
  spec.size_s = 4000;
  spec.window_ms = 1000;
  spec.dupe = 25;
  spec.zipf_key = 1.4;
  spec.seed = 77;
  MicroWorkload micro = GenerateMicro(spec);
  RandomWorkload w;
  w.name = "zipf";
  w.r = std::move(micro.r.tuples);
  w.s = std::move(micro.s.tuples);
  w.threads = 3;
  w.radix_bits = 10;
  ExpectAllAlgorithmsMatchReference(w);
}

TEST(DifferentialEdges, MoreThreadsThanTuples) {
  Rng rng(99);
  RandomWorkload w;
  w.name = "tiny_wide";
  w.r = RandomTuples(rng, 5, 3, 1000);
  w.s = RandomTuples(rng, 3, 3, 1000);
  w.threads = 8;
  w.radix_bits = 6;
  ExpectAllAlgorithmsMatchReference(w);
}

// The eager pull loop takes each stream's arrivals in blocks of
// kEagerPullBlock. Inputs one short of, exactly at, one past and one past
// two blocks, plus a heavily duplicated few-thousand-tuple input, run under
// the instant clock (whole blocks) and under the real-time clock over a
// short window (arrivals cut blocks mid-stream), with and without physical
// partitioning, over both table substrates.
TEST(DifferentialEdges, EagerPullBlockBoundaries) {
  Rng rng(2020);
  struct Shape {
    size_t n;
    uint32_t keys;
  };
  const size_t block = kEagerPullBlock;
  const Shape shapes[] = {{block - 1, 64},
                          {block, 64},
                          {block + 1, 64},
                          {2 * block + 1, 64},
                          {3000, 5}};
  for (const Clock::Mode clock :
       {Clock::Mode::kInstant, Clock::Mode::kRealTime}) {
    const uint32_t window_ms = clock == Clock::Mode::kInstant ? 1000 : 25;
    for (const Shape& shape : shapes) {
      const Stream r =
          MakeStream(RandomTuples(rng, shape.n, shape.keys, window_ms));
      const Stream s =
          MakeStream(RandomTuples(rng, shape.n, shape.keys, window_ms));
      const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());
      for (const bool physical : {false, true}) {
        for (const HashTableKind table_kind :
             {HashTableKind::kBucketChain, HashTableKind::kLinearProbe}) {
          for (const AlgorithmId id :
               {AlgorithmId::kShjJm, AlgorithmId::kShjJb, AlgorithmId::kPmjJm,
                AlgorithmId::kPmjJb}) {
            SCOPED_TRACE(testing::Message()
                         << AlgorithmName(id) << " n=" << shape.n
                         << " keys=" << shape.keys << " realtime="
                         << (clock == Clock::Mode::kRealTime)
                         << " physical=" << physical << " table="
                         << (table_kind == HashTableKind::kLinearProbe
                                 ? "linear_probe"
                                 : "bucket_chain"));
            JoinSpec spec;
            spec.num_threads = 2;
            spec.jb_group_size = 1;  // JB partitions R by key, too
            spec.window_ms = window_ms;
            spec.clock_mode = clock;
            spec.eager_physical_partition = physical;
            spec.hash_table_kind = table_kind;
            JoinRunner runner;
            const RunResult result = runner.Run(id, r, s, spec);
            ASSERT_TRUE(result.status.ok()) << result.status.ToString();
            EXPECT_EQ(result.matches, expected.matches);
            EXPECT_EQ(result.checksum, expected.checksum);
          }
        }
      }
    }
  }
}

// Lopsided windows: R:S of 1:20 and 20:1 at dupe 50 put two or three
// tuples of each key on the small side and about fifty on the large one,
// so the small side leads every equal-key block, at every PMJ seal and in
// its merge phase. The merge joins run them under both kernel modes, under
// the instant clock and under the real-time clock over a short window.
TEST(DifferentialEdges, LopsidedWindowsSmallerSideLeads) {
  struct Shape {
    uint64_t size_r;
    uint64_t size_s;
  };
  for (const Shape shape : {Shape{200, 4000}, Shape{4000, 200}}) {
    for (const Clock::Mode clock :
         {Clock::Mode::kInstant, Clock::Mode::kRealTime}) {
      MicroSpec micro;
      micro.size_r = shape.size_r;
      micro.size_s = shape.size_s;
      micro.window_ms = clock == Clock::Mode::kInstant ? 1000 : 25;
      micro.dupe = 50;
      micro.seed = 21;
      const MicroWorkload w = GenerateMicro(micro);
      const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());
      ASSERT_GT(expected.matches, 0u);
      for (const KernelMode mode : kAllKernelModes) {
        for (const AlgorithmId id :
             {AlgorithmId::kMway, AlgorithmId::kMpass, AlgorithmId::kPmjJm,
              AlgorithmId::kPmjJb}) {
          SCOPED_TRACE(testing::Message()
                       << AlgorithmName(id) << " r=" << shape.size_r
                       << " s=" << shape.size_s
                       << " kernels=" << KernelModeName(mode) << " realtime="
                       << (clock == Clock::Mode::kRealTime));
          JoinSpec spec;
          spec.num_threads = 4;
          spec.jb_group_size = 2;
          spec.window_ms = micro.window_ms;
          spec.clock_mode = clock;
          spec.kernels = mode;
          JoinRunner runner;
          const RunResult result = runner.Run(id, w.r, w.s, spec);
          ASSERT_TRUE(result.status.ok()) << result.status.ToString();
          EXPECT_EQ(result.matches, expected.matches);
          EXPECT_EQ(result.checksum, expected.checksum);
        }
      }
    }
  }
}

// The knob plumbing itself: auto defers to the environment, spec wins over
// everything, and tracing always forces scalar kernels.
TEST(KernelModeResolution, SpecEnvAndTracerPrecedence) {
  ASSERT_EQ(unsetenv("IAWJ_KERNELS"), 0);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAuto), KernelMode::kAuto);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kScalar), KernelMode::kScalar);

  ASSERT_EQ(setenv("IAWJ_KERNELS", "scalar", 1), 0);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAuto), KernelMode::kScalar);
  const KernelPlan from_env =
      ResolveKernelPlan(KernelMode::kAuto, /*tracer_enabled=*/false);
  EXPECT_EQ(from_env.mode, KernelMode::kScalar);
  EXPECT_FALSE(from_env.swwc_scatter || from_env.lockfree_build ||
               from_env.batched_probe || from_env.simd_probe);
  ASSERT_EQ(setenv("IAWJ_KERNELS", "auto", 1), 0);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kScalar),
            KernelMode::kScalar);  // spec wins
  ASSERT_EQ(unsetenv("IAWJ_KERNELS"), 0);

  // SimTracer runs force the all-scalar plan regardless of the knob.
  for (const KernelMode mode : kAllKernelModes) {
    const KernelPlan traced = ResolveKernelPlan(mode, /*tracer_enabled=*/true);
    EXPECT_EQ(traced.mode, KernelMode::kScalar);
    EXPECT_FALSE(traced.swwc_scatter);
    EXPECT_FALSE(traced.lockfree_build);
    EXPECT_FALSE(traced.batched_probe);
    EXPECT_FALSE(traced.simd_probe);
  }

  KernelMode parsed = KernelMode::kScalar;
  EXPECT_TRUE(ParseKernelMode("auto", &parsed));
  EXPECT_EQ(parsed, KernelMode::kAuto);
  EXPECT_TRUE(ParseKernelMode("scalar", &parsed));
  EXPECT_EQ(parsed, KernelMode::kScalar);
  EXPECT_EQ(KernelModeChoices(), "auto|scalar");
}

// The per-phase plan: auto is every phase's measured winner, the SIMD probe
// only where the host runs it, and narrowing to an algorithm's sites keeps
// only the variants it has.
TEST(KernelModeResolution, PlanPerPhaseVariants) {
  ASSERT_EQ(unsetenv("IAWJ_KERNELS"), 0);
  ASSERT_EQ(unsetenv("IAWJ_SIMD_PROBE"), 0);
  const KernelPlan scalar =
      ResolveKernelPlan(KernelMode::kScalar, /*tracer_enabled=*/false);
  EXPECT_EQ(scalar.mode, KernelMode::kScalar);
  EXPECT_EQ(KernelScatterVariant(scalar), "scalar");
  EXPECT_EQ(KernelBuildVariant(scalar), "scalar");
  EXPECT_EQ(KernelProbeVariant(scalar), "scalar");

  const KernelPlan plan =
      ResolveKernelPlan(KernelMode::kAuto, /*tracer_enabled=*/false);
  EXPECT_EQ(plan.mode, KernelMode::kAuto);
  EXPECT_TRUE(plan.swwc_scatter);
  EXPECT_TRUE(plan.lockfree_build);
  EXPECT_TRUE(plan.batched_probe);
  EXPECT_EQ(plan.simd_probe, kernels::SimdProbeSupported());
  const std::string linear_probe =
      plan.simd_probe ? "simd" : "batched";  // non-AVX2 hosts: batched

  // Narrowed to NPJ's sites (shared build, chained probe).
  const KernelPlan npj =
      plan.For({.shared_build = true, .chained_probe = true});
  EXPECT_EQ(npj.mode, KernelMode::kAuto);
  EXPECT_EQ(KernelScatterVariant(npj), "scalar");
  EXPECT_EQ(KernelBuildVariant(npj), "lockfree");
  EXPECT_EQ(KernelProbeVariant(npj), "batched");
  // PRJ over bucket chains, then over linear-probe tables.
  const KernelPlan prj =
      plan.For({.radix_scatter = true, .chained_probe = true});
  EXPECT_EQ(KernelScatterVariant(prj), "swwc");
  EXPECT_EQ(KernelBuildVariant(prj), "scalar");
  EXPECT_EQ(KernelProbeVariant(prj), "batched");
  const KernelPlan prj_linear =
      plan.For({.radix_scatter = true, .linear_probe = true});
  EXPECT_EQ(KernelProbeVariant(prj_linear), linear_probe);
  // A sort join has none of the sites.
  const KernelPlan sort = plan.For({});
  EXPECT_EQ(sort.mode, KernelMode::kAuto);
  EXPECT_EQ(KernelScatterVariant(sort), "scalar");
  EXPECT_EQ(KernelBuildVariant(sort), "scalar");
  EXPECT_EQ(KernelProbeVariant(sort), "scalar");

  // The $IAWJ_SIMD_PROBE kill switch leaves linear-probe tables the
  // batched probe.
  ASSERT_EQ(setenv("IAWJ_SIMD_PROBE", "0", 1), 0);
  const KernelPlan killed =
      ResolveKernelPlan(KernelMode::kAuto, /*tracer_enabled=*/false);
  EXPECT_FALSE(killed.simd_probe);
  EXPECT_TRUE(killed.batched_probe);
  EXPECT_TRUE(killed.lockfree_build);
  EXPECT_EQ(KernelProbeVariant(killed.For({.linear_probe = true})),
            "batched");
  ASSERT_EQ(unsetenv("IAWJ_SIMD_PROBE"), 0);
}

// The modes that used to bundle single variants are gone from every
// surface that parses a mode name.
TEST(KernelModeResolution, RetiredModesAreRefused) {
  for (const char* retired : {"swwc", "simd", "lockfree"}) {
    SCOPED_TRACE(retired);
    KernelMode parsed = KernelMode::kScalar;
    EXPECT_FALSE(ParseKernelMode(retired, &parsed));
    EXPECT_EQ(parsed, KernelMode::kScalar);

    json::Value hello;
    ASSERT_TRUE(json::Parse(std::string(R"({"op":"hello","tenant":"t",)") +
                                R"("algo":"npj","kernels":")" + retired +
                                R"("})",
                            &hello)
                    .ok());
    serve::TenantSpec tenant;
    const Status status = serve::TenantSpec::FromHello(hello, &tenant);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();

#ifdef IAWJ_CLI_BIN
    const std::string cmd = std::string(IAWJ_CLI_BIN) + " --kernels=" +
                            retired + " --workload=micro 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    EXPECT_NE(pclose(pipe), 0);
    EXPECT_NE(out.find("unknown --kernels (auto|scalar)"), std::string::npos)
        << out;
#endif  // IAWJ_CLI_BIN
  }
}

}  // namespace
}  // namespace iawj
