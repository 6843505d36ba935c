// Progressiveness recording (paper §4.1, Figure 6).
//
// Progressiveness is the cumulative fraction of matches delivered as a
// function of elapsed stream time. Workers bump a log-scale time bucket by
// the matches recorded at one stamp (MatchSink's run); the curve is
// reconstructed afterwards, bounded-memory regardless of match count.
#ifndef IAWJ_PROFILING_PROGRESS_H_
#define IAWJ_PROFILING_PROGRESS_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace iawj {

class ProgressRecorder {
 public:
  // 48 octaves x 8 sub-buckets over milliseconds: covers [1ms, ~10^9 ms).
  static constexpr int kOctaves = 48;
  static constexpr int kSubBuckets = 8;
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;

  ProgressRecorder() { buckets_.fill(0); }

  // Records n matches delivered at elapsed_ms.
  void Record(double elapsed_ms, uint64_t n = 1);
  void Merge(const ProgressRecorder& other);

  uint64_t total() const { return total_; }

  // (elapsed_ms, cumulative_fraction) samples at non-empty buckets.
  std::vector<std::pair<double, double>> Curve() const;

  // Earliest elapsed time (ms) by which the given fraction of all matches had
  // been produced (e.g., 0.5 for the paper's "first 50% of matches").
  double TimeToFractionMs(double fraction) const;

 private:
  static int BucketIndex(double elapsed_ms);
  static double BucketUpperMs(int index);

  std::array<uint64_t, kNumBuckets> buckets_;
  uint64_t total_ = 0;
};

}  // namespace iawj

#endif  // IAWJ_PROFILING_PROGRESS_H_
