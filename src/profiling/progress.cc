#include "src/profiling/progress.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace iawj {

int ProgressRecorder::BucketIndex(double elapsed_ms) {
  const uint64_t ms = static_cast<uint64_t>(std::max(elapsed_ms, 0.0));
  if (ms < kSubBuckets) return static_cast<int>(ms);
  const int octave = 63 - std::countl_zero(ms);
  const int shift = octave - 3;  // log2(kSubBuckets)
  const int sub = static_cast<int>((ms >> shift) & (kSubBuckets - 1));
  return std::min((octave - 2) * kSubBuckets + sub, kNumBuckets - 1);
}

double ProgressRecorder::BucketUpperMs(int index) {
  if (index < kSubBuckets) return static_cast<double>(index + 1);
  const int octave = index / kSubBuckets + 2;
  const int sub = index % kSubBuckets;
  const double base = std::ldexp(1.0, octave);
  const double step = base / kSubBuckets;
  return base + (sub + 1) * step;
}

void ProgressRecorder::Record(double elapsed_ms, uint64_t n) {
  buckets_[BucketIndex(elapsed_ms)] += n;
  total_ += n;
}

void ProgressRecorder::Merge(const ProgressRecorder& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  total_ += other.total_;
}

std::vector<std::pair<double, double>> ProgressRecorder::Curve() const {
  std::vector<std::pair<double, double>> curve;
  if (total_ == 0) return curve;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    curve.emplace_back(BucketUpperMs(i),
                       static_cast<double>(seen) / static_cast<double>(total_));
  }
  return curve;
}

double ProgressRecorder::TimeToFractionMs(double fraction) const {
  if (total_ == 0) return 0;
  const double target = fraction * static_cast<double>(total_);
  double seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += static_cast<double>(buckets_[i]);
    if (seen >= target) return BucketUpperMs(i);
  }
  return BucketUpperMs(kNumBuckets - 1);
}

}  // namespace iawj
