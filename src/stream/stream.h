// In-memory input streams and workload statistics.
//
// Following the paper's methodology (§4.2.2), datasets are fully populated in
// memory with per-tuple arrival timestamps; the virtual clock (common/clock.h)
// decides when each tuple becomes visible to the algorithms.
#ifndef IAWJ_STREAM_STREAM_H_
#define IAWJ_STREAM_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/tuple.h"

namespace iawj {

struct Stream {
  std::vector<Tuple> tuples;  // non-decreasing ts

  size_t size() const { return tuples.size(); }
  std::span<const Tuple> view() const { return tuples; }

  // Largest arrival timestamp (0 for an empty stream).
  uint32_t MaxTs() const;
};

// Sorts tuples by arrival timestamp and wraps them in a Stream.
Stream MakeStream(std::vector<Tuple> tuples);

// Workload statistics as reported in the paper's Table 3.
struct StreamStats {
  uint64_t num_tuples = 0;
  double arrival_rate_per_ms = 0;  // num_tuples / (max_ts + 1)
  uint64_t unique_keys = 0;
  double avg_duplicates_per_key = 0;
  double key_zipf_estimate = 0;  // theta fitted on the key-frequency ranks
};

StreamStats ComputeStats(const Stream& stream);

std::string FormatStats(const StreamStats& stats);

// Overload load shedding (ISSUE 3). Models a consumer that drains
// `watermark_per_ms` tuples per stream-millisecond: walking the arrival
// timeline, a backlog accumulates whenever a 1 ms bucket delivers more than
// the consumer absorbs. Once the backlog exceeds `max_lag_ms` milliseconds'
// worth of tuples (watermark * max_lag_ms), the overflowing bucket is
// thinned back to the lag bound by stride sampling — every k-th survivor,
// with a seeded rotation so the same key positions are not always favoured.
// Output is deterministic in (stream, watermark_per_ms, max_lag_ms, seed).
struct ShedResult {
  Stream stream;            // surviving tuples, arrival order preserved
  uint64_t tuples_in = 0;   // input size
  uint64_t tuples_shed = 0;
  double shed_ratio = 0;    // tuples_shed / tuples_in (0 for empty input)
};

// The shedder fed batch by batch (watermark_per_ms > 0), input in ts
// order. A bucket is shed once no later arrival can join it: a larger
// timestamp arrived, or `upstream_frontier` (every later input has ts >= it;
// UINT64_MAX once the input ended) passed it. Pushing any chunking of a
// stream, the last push with UINT64_MAX, appends exactly ShedToWatermark's
// survivors.
class StreamShedder {
 public:
  StreamShedder(double watermark_per_ms, double max_lag_ms, uint64_t seed);

  void Push(std::span<const Tuple> ordered, uint64_t upstream_frontier,
            std::vector<Tuple>* out);
  // Every tuple appended from now on has ts >= frontier(upstream_frontier).
  uint64_t frontier(uint64_t upstream_frontier) const {
    return bucket_.empty()
               ? upstream_frontier
               : std::min<uint64_t>(bucket_.front().ts, upstream_frontier);
  }
  size_t held() const { return bucket_.size(); }
  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t tuples_shed() const { return tuples_shed_; }

 private:
  void ShedBucket(std::vector<Tuple>* out);

  double watermark_per_ms_;
  double lag_bound_;
  Rng rng_;
  double backlog_ = 0;
  uint32_t last_ts_ = 0;
  std::vector<Tuple> bucket_;  // the newest bucket, one timestamp
  uint64_t tuples_in_ = 0;
  uint64_t tuples_shed_ = 0;
};

// Whole-stream shedding: everything pushed into a StreamShedder at once.
// watermark_per_ms <= 0 disables shedding (the stream is passed through).
ShedResult ShedToWatermark(const Stream& stream, double watermark_per_ms,
                           double max_lag_ms, uint64_t seed);

}  // namespace iawj

#endif  // IAWJ_STREAM_STREAM_H_
