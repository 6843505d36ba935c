// Unit tests for the common substrate: tuples, bits, RNG, Zipf, clock,
// histogram, status.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/bits.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/common/zipf.h"

namespace iawj {
namespace {

TEST(Tuple, PackOrdersByKeyThenTs) {
  const Tuple a{.ts = 50, .key = 1};
  const Tuple b{.ts = 2, .key = 2};
  const Tuple c{.ts = 70, .key = 2};
  EXPECT_LT(PackTuple(a), PackTuple(b));
  EXPECT_LT(PackTuple(b), PackTuple(c));
}

TEST(Tuple, PackRoundTrips) {
  const Tuple t{.ts = 123456, .key = 0x7fffffff};
  const Tuple back = UnpackTuple(PackTuple(t));
  EXPECT_EQ(back, t);
  EXPECT_EQ(PackedKey(PackTuple(t)), t.key);
  EXPECT_EQ(PackedTs(PackTuple(t)), t.ts);
}

TEST(Tuple, MemoryImageMatchesPackedOrder) {
  // The sort substrate reinterprets Tuple arrays as uint64; verify the
  // little-endian layout yields (key, ts) order.
  const Tuple t{.ts = 7, .key = 9};
  uint64_t raw;
  std::memcpy(&raw, &t, sizeof(raw));
  EXPECT_EQ(raw, PackTuple(t));
}

TEST(Bits, PowersAndLogs) {
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(9), 3);
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(9), 4);
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(65));
  EXPECT_FALSE(IsPow2(0));
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.NextBounded(17), 17u);
    const double d = a.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator zipf(10, 0.0, 1);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next()];
  for (int count : counts) {
    EXPECT_NEAR(count, n / 10, n / 10 * 0.2);
  }
}

TEST(Zipf, HighThetaConcentratesOnSmallValues) {
  ZipfGenerator zipf(1000, 1.5, 2);
  int zero_count = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    if (v == 0) ++zero_count;
  }
  // For theta=1.5, rank 0 holds the majority of the mass.
  EXPECT_GT(zero_count, n / 3);
}

TEST(Zipf, SkewIncreasesWithTheta) {
  const int n = 50000;
  double prev_top = 0;
  for (double theta : {0.0, 0.5, 1.0, 1.5}) {
    ZipfGenerator zipf(100, theta, 3);
    int zero_count = 0;
    for (int i = 0; i < n; ++i) {
      if (zipf.Next() == 0) ++zero_count;
    }
    EXPECT_GE(zero_count + 200, prev_top) << "theta=" << theta;
    prev_top = zero_count;
  }
}

TEST(Clock, InstantModeMakesEverythingAvailable) {
  Clock clock(Clock::Mode::kInstant);
  clock.Start();
  EXPECT_TRUE(clock.HasArrived(0));
  EXPECT_TRUE(clock.HasArrived(1u << 30));
  clock.SleepUntilMs(1e9);  // must not block
}

TEST(Clock, RealTimeAdvancesAndGates) {
  Clock clock(Clock::Mode::kRealTime, /*time_scale=*/1000.0);
  clock.Start();
  EXPECT_TRUE(clock.HasArrived(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double now = clock.NowMs();
  EXPECT_GE(now, 1000.0);  // >= 1ms wall * 1000x scale
  EXPECT_FALSE(clock.HasArrived(1u << 30));
  clock.SleepUntilMs(now + 1000.0);
  EXPECT_GE(clock.NowMs(), now + 1000.0 - 1e-6);
}

TEST(LatencyHistogram, QuantilesOrderedAndApproximate) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.RecordMs(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.QuantileMs(0.5);
  const double p95 = h.QuantileMs(0.95);
  const double p99 = h.QuantileMs(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 500, 50);
  EXPECT_NEAR(p95, 950, 95);
  EXPECT_NEAR(h.MeanMs(), 500.5, 5);
}

TEST(LatencyHistogram, MergeAggregates) {
  LatencyHistogram a, b;
  a.RecordMs(1.0);
  b.RecordMs(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GT(a.QuantileMs(0.99), 50);
  EXPECT_LT(a.QuantileMs(0.01), 5);
}

TEST(LatencyHistogram, EmptyAndNegative) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileMs(0.95), 0);
  h.RecordMs(-5.0);  // clamped to zero
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LT(h.QuantileMs(1.0), 0.01);
}

TEST(LatencyHistogram, WeightedRecordEqualsRepeatedRecords) {
  // Latencies exact in binary, so the weighted sum is exact too.
  const std::pair<double, uint64_t> observations[] = {
      {0.25, 1}, {2.5, 7}, {40.0, 1000}, {0.0, 3}, {1500.0, 2}};
  LatencyHistogram weighted, repeated;
  for (const auto& [ms, n] : observations) {
    weighted.RecordMs(ms, n);
    for (uint64_t k = 0; k < n; ++k) repeated.RecordMs(ms);
  }
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.count(), 1013u);
  EXPECT_DOUBLE_EQ(weighted.MeanMs(), repeated.MeanMs());
  // Quantiles at every rank step see every bucket boundary.
  for (uint64_t rank = 0; rank <= repeated.count(); ++rank) {
    const double q = static_cast<double>(rank) / 1013.0;
    EXPECT_EQ(weighted.QuantileMs(q), repeated.QuantileMs(q)) << q;
  }
  LatencyHistogram none;
  none.RecordMs(3.0, 0);
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.MeanMs(), 0);
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status bad = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "bad knob");
  EXPECT_NE(bad.ToString().find("bad knob"), std::string::npos);
}

}  // namespace
}  // namespace iawj
