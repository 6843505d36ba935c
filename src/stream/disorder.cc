#include "src/stream/disorder.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/profiling/metrics.h"

namespace iawj {

namespace {

// How far the disorder_burst fault holds a delivery back, and how long the
// watermark_stall fault freezes the generator. Both deliberately exceed any
// plausible test slack so the faults produce observable disorder.
constexpr size_t kBurstDelayArrivals = 128;
constexpr uint32_t kStallObservations = 256;

// The clock_skew fault's step, matching common/clock.cc's 10 s regression.
constexpr uint32_t kSkewMs = 10000;

// Orders the reorder buffer by (ts, key): a single uint64 comparison, and
// deterministic for equal timestamps.
inline uint64_t HeapKey(Tuple t) {
  return (static_cast<uint64_t>(t.ts) << 32) | t.key;
}

double EnvPositiveDouble(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0) || !std::isfinite(v)) {
    IAWJ_LOG(Warning) << "ignoring malformed " << name << "='" << text
                      << "' (want a non-negative stream-ms value)";
    return 0;
  }
  return v;
}

bool EnvBool(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Stream-ms knobs round up: a slack of 0.5 ms must still hold one tick.
uint32_t CeilTicks(double ms) {
  if (ms <= 0) return 0;
  return static_cast<uint32_t>(std::ceil(ms));
}

}  // namespace

IngestPolicy IngestPolicy::Resolve(double spec_slack_ms,
                                   double spec_allowed_lateness_ms,
                                   bool spec_dedup) {
  IngestPolicy policy;
  if (spec_slack_ms > 0) {
    policy.slack_ms = spec_slack_ms;
  } else if (spec_slack_ms == 0) {
    policy.slack_ms = EnvPositiveDouble("IAWJ_DISORDER_SLACK");
  }
  if (spec_allowed_lateness_ms > 0) {
    policy.allowed_lateness_ms = spec_allowed_lateness_ms;
  } else if (spec_allowed_lateness_ms == 0) {
    policy.allowed_lateness_ms = EnvPositiveDouble("IAWJ_ALLOWED_LATENESS");
  }
  policy.dedup = spec_dedup || EnvBool("IAWJ_INGEST_DEDUP");
  return policy;
}

void IngestStats::Merge(const IngestStats& other) {
  tuples_in += other.tuples_in;
  tuples_out += other.tuples_out;
  reordered += other.reordered;
  late_total += other.late_total;
  late_admitted += other.late_admitted;
  late_dropped += other.late_dropped;
  duplicates += other.duplicates;
  corrupt += other.corrupt;
  watermark_clamps += other.watermark_clamps;
  max_disorder_ms = std::max(max_disorder_ms, other.max_disorder_ms);
  max_ts_ms = std::max(max_ts_ms, other.max_ts_ms);
  final_watermark_ms = std::max(final_watermark_ms, other.final_watermark_ms);
}

WatermarkGenerator::WatermarkGenerator(double allowed_lateness_ms)
    : lateness_ms_(CeilTicks(allowed_lateness_ms)) {}

uint32_t WatermarkGenerator::Observe(uint32_t ts) {
  uint32_t observed = ts;
  if (fault::Enabled()) {
    // Fault "clock_skew": this observation arrives stamped ~10 s in the
    // past, the producer-side shape of the NTP step Clock::Start models.
    // The candidate below regresses; the clamp must absorb it.
    if (fault::Inject("clock_skew")) {
      observed = ts >= kSkewMs ? ts - kSkewMs : 0;
    }
    // Fault "watermark_stall": the generator freezes — observations still
    // count (lateness classification keeps working off the stale mark) but
    // the watermark stops advancing for a burst.
    if (fault::Inject("watermark_stall")) {
      stall_remaining_ = kStallObservations;
    }
  }
  const uint32_t candidate =
      observed > lateness_ms_ ? observed - lateness_ms_ : 0;
  if (stall_remaining_ > 0) {
    --stall_remaining_;
  } else if (candidate > watermark_) {
    watermark_ = candidate;
  } else if (candidate < watermark_) {
    ++clamps_;
  }
  return watermark_;
}

StreamIngester::StreamIngester(const IngestPolicy& policy)
    : slack_(CeilTicks(policy.slack_ms)),
      dedup_(policy.dedup),
      watermark_(policy.allowed_lateness_ms) {}

void StreamIngester::Drain(bool flush) {
  while (!buffer_.empty()) {
    const uint64_t top = buffer_.top();
    const uint32_t ts = static_cast<uint32_t>(top >> 32);
    if (!flush && static_cast<uint64_t>(ts) + slack_ > stats_.max_ts_ms) {
      break;
    }
    buffer_.pop();
    if (dedup_) {
      const auto it = pending_.find(top);
      if (it != pending_.end() && --it->second == 0) pending_.erase(it);
    }
    released_.push_back(Tuple{ts, static_cast<uint32_t>(top)});
    emit_frontier_ = ts;
  }
}

void StreamIngester::Deliver(Tuple t) {
  ++stats_.tuples_in;
  if (t.key >= kKeyDomainLimit) {
    ++stats_.corrupt;
    return;
  }
  const uint32_t wm = watermark_.Observe(t.ts);
  uint32_t& max_seen = stats_.max_ts_ms;
  if (t.ts < max_seen) {
    ++stats_.reordered;
    stats_.max_disorder_ms = std::max(stats_.max_disorder_ms, max_seen - t.ts);
  }
  max_seen = std::max(max_seen, t.ts);
  if (t.ts < emit_frontier_) {
    // Behind the emit frontier: this tuple can no longer be placed in
    // order. Admit it (merged in by Emit) while it is still inside the
    // allowed lateness, quarantine it once the watermark has passed.
    ++stats_.late_total;
    if (t.ts >= wm) {
      ++stats_.late_admitted;
      late_.push(HeapKey(t));
    } else {
      ++stats_.late_dropped;
    }
    return;
  }
  const uint64_t packed = HeapKey(t);
  if (dedup_) {
    const auto [it, inserted] = pending_.try_emplace(packed, 1u);
    if (!inserted) {
      ++stats_.duplicates;
      return;
    }
  }
  buffer_.push(packed);
  Drain(/*flush=*/false);
}

uint32_t StreamIngester::frontier() const {
  return std::min(emit_frontier_, watermark_.Current());
}

// Appends released and admitted-late tuples below the frontier (everything
// when flushing), merged by ts with released tuples first on a tie: the
// order a whole-stream ingest gets by merging its sorted late arrivals into
// the released sequence at the end.
void StreamIngester::Emit(bool flush, std::vector<Tuple>* out) {
  const uint32_t limit = frontier();
  while (!released_.empty() || !late_.empty()) {
    const bool from_released =
        !released_.empty() &&
        (late_.empty() ||
         released_.front().ts <= static_cast<uint32_t>(late_.top() >> 32));
    const Tuple t = from_released
                        ? released_.front()
                        : Tuple{static_cast<uint32_t>(late_.top() >> 32),
                                static_cast<uint32_t>(late_.top())};
    if (!flush && t.ts >= limit) return;
    out->push_back(t);
    ++stats_.tuples_out;
    if (from_released) {
      released_.pop_front();
    } else {
      late_.pop();
    }
  }
}

void StreamIngester::Push(std::span<const Tuple> arrivals,
                          std::vector<Tuple>* out) {
  // The fault sites perturb the arrival sequence itself: disorder_burst
  // holds a delivery back ~128 arrivals, late_tuple holds one to end of
  // stream, dup_tuple delivers one twice.
  const bool faults = fault::Enabled();
  for (const Tuple& t : arrivals) {
    if (faults) {
      if (fault::Inject("late_tuple")) {
        eos_held_.push_back(t);
        continue;
      }
      if (fault::Inject("disorder_burst")) {
        burst_held_.emplace_back(arrival_index_ + kBurstDelayArrivals, t);
        continue;
      }
      if (fault::Inject("dup_tuple")) Deliver(t);
    }
    Deliver(t);
    ++arrival_index_;
    while (!burst_held_.empty() &&
           burst_held_.front().first <= arrival_index_) {
      Deliver(burst_held_.front().second);
      burst_held_.pop_front();
    }
    Emit(/*flush=*/false, out);
  }
}

void StreamIngester::Flush(std::vector<Tuple>* out) {
  for (const auto& [release_at, held] : burst_held_) Deliver(held);
  burst_held_.clear();
  for (const Tuple& held : eos_held_) Deliver(held);
  eos_held_.clear();
  // End of stream: drain the buffer — this is what seals the final windows
  // even when the watermark stalled or never reached them.
  Drain(/*flush=*/true);
  Emit(/*flush=*/true, out);
}

size_t StreamIngester::held() const {
  return buffer_.size() + late_.size() + released_.size() +
         burst_held_.size() + eos_held_.size();
}

IngestStats StreamIngester::stats() const {
  IngestStats st = stats_;
  st.final_watermark_ms = watermark_.Current();
  st.watermark_clamps = watermark_.clamps();
  return st;
}

IngestResult IngestStream(const Stream& arrivals, const IngestPolicy& policy) {
  IngestResult result;
  result.stream.tuples.reserve(arrivals.size());
  StreamIngester ingester(policy);
  ingester.Push(arrivals.tuples, &result.stream.tuples);
  ingester.Flush(&result.stream.tuples);
  result.stats = ingester.stats();
  return result;
}

Stream PermuteWithinSlack(const Stream& stream, uint32_t max_shift_ms,
                          uint64_t seed) {
  std::vector<std::pair<uint64_t, Tuple>> keyed;
  keyed.reserve(stream.size());
  Rng rng(seed);
  for (const Tuple& t : stream.tuples) {
    const uint64_t jitter =
        max_shift_ms > 0 ? rng.NextBounded(uint64_t{max_shift_ms} + 1) : 0;
    keyed.emplace_back(static_cast<uint64_t>(t.ts) + jitter, t);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  Stream permuted;
  permuted.tuples.reserve(keyed.size());
  for (const auto& [jittered_ts, t] : keyed) permuted.tuples.push_back(t);
  return permuted;
}

void PublishIngestMetrics(const IngestStats& stats) {
  if (!metrics::Enabled()) return;
  static metrics::Counter* reordered =
      metrics::GetCounter("ingest.reordered");
  static metrics::Counter* late_admitted =
      metrics::GetCounter("ingest.late_admitted");
  static metrics::Counter* late_dropped =
      metrics::GetCounter("ingest.late_dropped");
  static metrics::Counter* duplicates =
      metrics::GetCounter("ingest.duplicates");
  static metrics::Counter* corrupt = metrics::GetCounter("ingest.corrupt");
  static metrics::Counter* clamps =
      metrics::GetCounter("ingest.watermark_clamps");
  if (reordered != nullptr && stats.reordered > 0) {
    reordered->Add(stats.reordered);
  }
  if (late_admitted != nullptr && stats.late_admitted > 0) {
    late_admitted->Add(stats.late_admitted);
  }
  if (late_dropped != nullptr && stats.late_dropped > 0) {
    late_dropped->Add(stats.late_dropped);
  }
  if (duplicates != nullptr && stats.duplicates > 0) {
    duplicates->Add(stats.duplicates);
  }
  if (corrupt != nullptr && stats.corrupt > 0) corrupt->Add(stats.corrupt);
  if (clamps != nullptr && stats.watermark_clamps > 0) {
    clamps->Add(stats.watermark_clamps);
  }
}

}  // namespace iawj
