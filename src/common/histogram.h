// Bounded-memory latency histogram with quantile extraction.
//
// Matches are never materialized (Rovio at paper scale produces ~10^8 of
// them); each worker records per-match latency into a log-bucketed histogram
// whose memory footprint is constant, adding a run of matches that share one
// latency in a single weighted record. A quantile is the midpoint of the
// bucket that holds it, with no interpolation inside the bucket: 16 buckets
// per octave keep the midpoint within 1/32 (3.1%) of any latency in its
// bucket from 16 µs up, and within 0.5 µs below — ample for the paper's
// 95th-percentile worst-case latency metric.
#ifndef IAWJ_COMMON_HISTOGRAM_H_
#define IAWJ_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace iawj {

class LatencyHistogram {
 public:
  // Sub-bucketed log2 histogram over microseconds: 32 octaves x 16 linear
  // sub-buckets covers [1us, ~4000s) with ~6% bucket width.
  static constexpr int kOctaves = 32;
  static constexpr int kSubBuckets = 16;
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;

  LatencyHistogram() { buckets_.fill(0); }

  // Records n observations of one latency (milliseconds; clamped at >= 0).
  void RecordMs(double latency_ms, uint64_t n = 1);

  // Merges other into this (used to aggregate per-thread histograms).
  void Merge(const LatencyHistogram& other);

  // Quantile in milliseconds, q in [0, 1]. Returns 0 for an empty histogram.
  double QuantileMs(double q) const;

  double MeanMs() const;
  uint64_t count() const { return count_; }

 private:
  static int BucketIndex(uint64_t us);
  static double BucketMidUs(int index);

  std::array<uint64_t, kNumBuckets> buckets_;
  uint64_t count_ = 0;
  double sum_us_ = 0;
};

}  // namespace iawj

#endif  // IAWJ_COMMON_HISTOGRAM_H_
