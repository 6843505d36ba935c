#include "src/stream/stream.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "src/common/rng.h"

namespace iawj {

uint32_t Stream::MaxTs() const {
  return tuples.empty() ? 0 : tuples.back().ts;
}

Stream MakeStream(std::vector<Tuple> tuples) {
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](Tuple a, Tuple b) { return a.ts < b.ts; });
  return Stream{std::move(tuples)};
}

StreamStats ComputeStats(const Stream& stream) {
  StreamStats stats;
  stats.num_tuples = stream.size();
  if (stream.size() == 0) return stats;
  stats.arrival_rate_per_ms =
      static_cast<double>(stream.size()) / (stream.MaxTs() + 1);

  std::unordered_map<uint32_t, uint64_t> freq;
  freq.reserve(stream.size());
  for (const Tuple& t : stream.tuples) ++freq[t.key];
  stats.unique_keys = freq.size();
  stats.avg_duplicates_per_key =
      static_cast<double>(stream.size()) / static_cast<double>(freq.size());

  // Fit a Zipf exponent by least squares on log(rank) vs log(frequency) over
  // the most frequent keys — the slope's negation estimates theta. A uniform
  // distribution yields ~0, matching how Table 3 reports key skewness.
  std::vector<uint64_t> counts;
  counts.reserve(freq.size());
  for (const auto& [key, count] : freq) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  const size_t top = std::min<size_t>(counts.size(), 1000);
  if (top >= 2) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t rank = 0; rank < top; ++rank) {
      const double x = std::log(static_cast<double>(rank + 1));
      const double y = std::log(static_cast<double>(counts[rank]));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double n = static_cast<double>(top);
    const double denom = n * sxx - sx * sx;
    if (denom > 1e-12) {
      stats.key_zipf_estimate = std::max(0.0, -(n * sxy - sx * sy) / denom);
    }
  }
  return stats;
}

StreamShedder::StreamShedder(double watermark_per_ms, double max_lag_ms,
                             uint64_t seed)
    : watermark_per_ms_(watermark_per_ms),
      lag_bound_(watermark_per_ms * std::max(0.0, max_lag_ms)),
      rng_(seed) {}

void StreamShedder::Push(std::span<const Tuple> ordered,
                         uint64_t upstream_frontier, std::vector<Tuple>* out) {
  tuples_in_ += ordered.size();
  for (const Tuple& t : ordered) {
    if (!bucket_.empty() && t.ts != bucket_.front().ts) ShedBucket(out);
    bucket_.push_back(t);
  }
  if (!bucket_.empty() && bucket_.front().ts < upstream_frontier) {
    ShedBucket(out);
  }
}

void StreamShedder::ShedBucket(std::vector<Tuple>* out) {
  const uint32_t ts = bucket_.front().ts;
  const size_t arrivals = bucket_.size();

  // Drain the backlog across the silent gap since the previous bucket (the
  // first bucket finds it empty).
  backlog_ = std::max(0.0, backlog_ - watermark_per_ms_ *
                                          static_cast<double>(ts - last_ts_));
  backlog_ += static_cast<double>(arrivals);
  last_ts_ = ts;

  size_t shed = 0;
  if (backlog_ > lag_bound_) {
    // Lagging beyond the bound: thin this bucket back to it, but never
    // touch tuples already admitted in earlier buckets.
    shed = std::min(arrivals,
                    static_cast<size_t>(std::ceil(backlog_ - lag_bound_)));
  }
  const size_t keep = arrivals - shed;
  if (shed == 0) {
    out->insert(out->end(), bucket_.begin(), bucket_.end());
  } else if (keep > 0) {
    // Stride sampling with a seeded rotation: survivor positions are
    // spread evenly across the bucket, and the rotation keeps repeated
    // overloads from always dropping the same arrival offsets. All
    // survivors share one timestamp, so the output stays in ts order.
    const size_t offset = rng_.NextBounded(arrivals);
    size_t taken = 0;
    for (size_t j = 0; j < arrivals && taken < keep; ++j) {
      // Keep position j of the rotated bucket iff it opens a new stride.
      if (j * keep / arrivals != (j + 1) * keep / arrivals) {
        out->push_back(bucket_[(j + offset) % arrivals]);
        ++taken;
      }
    }
  }
  backlog_ -= static_cast<double>(shed);
  tuples_shed_ += shed;
  bucket_.clear();
}

ShedResult ShedToWatermark(const Stream& stream, double watermark_per_ms,
                           double max_lag_ms, uint64_t seed) {
  ShedResult result;
  result.tuples_in = stream.size();
  if (watermark_per_ms <= 0 || stream.size() == 0) {
    result.stream = stream;
    return result;
  }
  StreamShedder shedder(watermark_per_ms, max_lag_ms, seed);
  result.stream.tuples.reserve(stream.size());
  shedder.Push(stream.tuples, UINT64_MAX, &result.stream.tuples);
  result.tuples_shed = shedder.tuples_shed();
  result.shed_ratio = static_cast<double>(result.tuples_shed) /
                      static_cast<double>(result.tuples_in);
  return result;
}

std::string FormatStats(const StreamStats& stats) {
  std::ostringstream os;
  os << "n=" << stats.num_tuples << " rate=" << stats.arrival_rate_per_ms
     << "/ms unique=" << stats.unique_keys
     << " dupe=" << stats.avg_duplicates_per_key
     << " zipf~" << stats.key_zipf_estimate;
  return os.str();
}

}  // namespace iawj
