#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace iawj {

int LatencyHistogram::BucketIndex(uint64_t us) {
  if (us < kSubBuckets) return static_cast<int>(us);
  const int octave = 63 - std::countl_zero(us);
  const int shift = octave - 4;  // log2(kSubBuckets)
  const int sub = static_cast<int>((us >> shift) & (kSubBuckets - 1));
  const int index = (octave - 3) * kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

double LatencyHistogram::BucketMidUs(int index) {
  if (index < kSubBuckets) return static_cast<double>(index) + 0.5;
  const int octave = index / kSubBuckets + 3;
  const int sub = index % kSubBuckets;
  const double base = std::ldexp(1.0, octave);
  const double step = base / kSubBuckets;
  return base + (sub + 0.5) * step;
}

void LatencyHistogram::RecordMs(double latency_ms, uint64_t n) {
  const double us = std::max(latency_ms, 0.0) * 1000.0;
  buckets_[BucketIndex(static_cast<uint64_t>(us))] += n;
  count_ += n;
  sum_us_ += us * static_cast<double>(n);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double LatencyHistogram::QuantileMs(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += static_cast<double>(buckets_[i]);
    if (seen >= target) return BucketMidUs(i) / 1000.0;
  }
  return BucketMidUs(kNumBuckets - 1) / 1000.0;
}

double LatencyHistogram::MeanMs() const {
  return count_ == 0 ? 0 : sum_us_ / static_cast<double>(count_) / 1000.0;
}

}  // namespace iawj
