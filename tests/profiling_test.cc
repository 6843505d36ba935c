// Unit tests for the profiling substrate: phase timers, progressiveness
// recorder, cache simulator, resource sampler.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/memory/tracker.h"
#include "src/profiling/cache_sim.h"
#include "src/profiling/phase.h"
#include "src/profiling/progress.h"
#include "src/profiling/resource.h"

namespace iawj {
namespace {

TEST(PhaseProfile, AccumulatesAndMerges) {
  PhaseProfile a, b;
  a.AddNs(Phase::kBuild, 100);
  a.AddNs(Phase::kProbe, 50);
  b.AddNs(Phase::kBuild, 10);
  a.Merge(b);
  EXPECT_EQ(a.GetNs(Phase::kBuild), 110u);
  EXPECT_EQ(a.GetNs(Phase::kProbe), 50u);
  EXPECT_EQ(a.TotalNs(), 160u);
}

TEST(PhaseProfile, ScopedPhaseMeasuresWallTime) {
  PhaseProfile profile;
  {
    ScopedPhase scope(&profile, Phase::kSort);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  EXPECT_GE(profile.GetNs(Phase::kSort), 2'000'000u);
  EXPECT_EQ(profile.GetNs(Phase::kMerge), 0u);
}

TEST(PhaseStopwatch, SwitchAttributesToCurrentPhase) {
  PhaseProfile profile;
  PhaseStopwatch sw(&profile);
  sw.Switch(Phase::kPartition);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.Switch(Phase::kProbe);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.Stop();
  EXPECT_GE(profile.GetNs(Phase::kPartition), 1'000'000u);
  EXPECT_GE(profile.GetNs(Phase::kProbe), 1'000'000u);
  // Stop is idempotent.
  sw.Stop();
}

TEST(PhaseStopwatch, SwitchToTheRunningPhaseReadsNoClock) {
  PhaseProfile profile;
  PhaseStopwatch sw(&profile);
  sw.Switch(Phase::kBuild);
  EXPECT_EQ(sw.clock_reads(), 1u);
  for (int i = 0; i < 1000; ++i) sw.Switch(Phase::kBuild);
  EXPECT_EQ(sw.clock_reads(), 1u);
  sw.Switch(Phase::kProbe);
  EXPECT_EQ(sw.clock_reads(), 2u);
  sw.Stop();
  EXPECT_EQ(sw.clock_reads(), 3u);
  sw.Stop();
  EXPECT_EQ(sw.clock_reads(), 3u);
  // After a stop the same phase starts timing again.
  sw.Switch(Phase::kProbe);
  EXPECT_EQ(sw.clock_reads(), 4u);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.Switch(Phase::kProbe);
  sw.Stop();
  EXPECT_GE(profile.GetNs(Phase::kProbe), 1'000'000u);
}

TEST(PhaseNames, AllDistinct) {
  EXPECT_EQ(PhaseName(Phase::kWait), "wait");
  EXPECT_EQ(PhaseName(Phase::kPartition), "partition");
  EXPECT_EQ(PhaseName(Phase::kProbe), "probe");
}

TEST(ProgressRecorder, CurveIsMonotoneCdf) {
  ProgressRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.Record(static_cast<double>(i));
  const auto curve = rec.Curve();
  ASSERT_FALSE(curve.empty());
  double prev_t = 0, prev_f = 0;
  for (const auto& [t, f] : curve) {
    EXPECT_GE(t, prev_t);
    EXPECT_GE(f, prev_f);
    prev_t = t;
    prev_f = f;
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(ProgressRecorder, TimeToFraction) {
  ProgressRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.Record(static_cast<double>(i));
  const double t50 = rec.TimeToFractionMs(0.5);
  EXPECT_NEAR(t50, 500, 100);
  EXPECT_LE(rec.TimeToFractionMs(0.1), t50);
  EXPECT_LE(t50, rec.TimeToFractionMs(0.9));
}

TEST(ProgressRecorder, MergeSumsTotals) {
  ProgressRecorder a, b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2u);
}

TEST(ProgressRecorder, WeightedRecordEqualsRepeatedRecords) {
  const std::pair<double, uint64_t> deliveries[] = {
      {0.5, 4}, {3, 1}, {12, 250}, {700, 9}, {70000, 2}};
  ProgressRecorder weighted, repeated;
  for (const auto& [ms, n] : deliveries) {
    weighted.Record(ms, n);
    for (uint64_t k = 0; k < n; ++k) repeated.Record(ms);
  }
  EXPECT_EQ(weighted.total(), repeated.total());
  EXPECT_EQ(weighted.total(), 266u);
  EXPECT_EQ(weighted.Curve(), repeated.Curve());
  for (double f : {0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(weighted.TimeToFractionMs(f), repeated.TimeToFractionMs(f))
        << f;
  }
}

TEST(CacheSim, SmallWorkingSetHitsL1) {
  CacheSim sim = CacheSim::XeonGold6126();
  std::vector<char> data(8 * 1024);  // fits in 32 KiB L1
  for (int pass = 0; pass < 4; ++pass) {
    for (size_t i = 0; i < data.size(); i += 64) sim.Access(&data[i], 1);
  }
  const CacheCounters total = sim.Total();
  // First pass cold-misses; later passes hit.
  EXPECT_LE(total.l1_misses, data.size() / 64 + 8);
  EXPECT_EQ(total.l3_misses, total.l3_misses);  // well-formed
}

TEST(CacheSim, LargeWorkingSetMissesEverywhere) {
  CacheSim sim = CacheSim::XeonGold6126();
  const size_t big = 64ull * 1024 * 1024;  // 4x L3
  std::vector<char> data(big);
  // Two sequential sweeps: the second still misses L3 (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < big; i += 64) sim.Access(&data[i], 1);
  }
  const CacheCounters total = sim.Total();
  EXPECT_GT(total.l1_misses, big / 64);
  EXPECT_GT(total.l3_misses, big / 64 / 2);
  EXPECT_GT(total.tlb_misses, 0u);
}

TEST(CacheSim, PhaseAttribution) {
  CacheSim sim = CacheSim::XeonGold6126();
  std::vector<char> data(1024 * 1024);
  sim.SetPhase(Phase::kBuild);
  sim.Access(data.data(), 1);
  sim.SetPhase(Phase::kProbe);
  sim.Access(data.data() + 512 * 1024, 1);
  EXPECT_EQ(sim.counters(Phase::kBuild).accesses, 1u);
  EXPECT_EQ(sim.counters(Phase::kProbe).accesses, 1u);
  EXPECT_EQ(sim.counters(Phase::kSort).accesses, 0u);
}

TEST(CacheSim, MultiLineAccessTouchesEveryLine) {
  CacheSim sim = CacheSim::XeonGold6126();
  alignas(64) char block[256];
  sim.Access(block, 256);
  EXPECT_EQ(sim.Total().accesses, 4u);
}

TEST(ResourceSampler, CollectsSamples) {
  mem::Reset();
  ResourceSampler sampler(/*period_ms=*/1.0);
  sampler.Start();
  mem::Add(1 << 20);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();
  mem::Add(-(1 << 20));
  ASSERT_GE(sampler.samples().size(), 2u);
  EXPECT_GE(sampler.samples().back().elapsed_ms,
            sampler.samples().front().elapsed_ms);
  bool saw_memory = false;
  for (const auto& s : sampler.samples()) {
    if (s.tracked_bytes >= (1 << 20)) saw_memory = true;
  }
  EXPECT_TRUE(saw_memory);
  EXPECT_GE(sampler.CpuUtilization(1), 0.0);
}

}  // namespace
}  // namespace iawj
