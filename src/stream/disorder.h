// Disorder-tolerant ingestion (ISSUE 8 tentpole).
//
// Every consumer downstream of Stream assumes "non-decreasing ts", but real
// arrival sequences are not sorted: network reordering, skewed producer
// clocks, replayed segments and duplicated deliveries all land tuples out of
// order. This layer sits between an arrival-order sequence and the join
// pipelines and restores the sorted-stream contract honestly:
//
//   1. A bounded reorder buffer holds arrivals until the maximum timestamp
//      seen has advanced `slack_ms` past them, then releases them in ts
//      order. Any arrival sequence whose disorder is bounded by slack_ms
//      (each tuple arrives before any tuple more than slack_ms newer) is
//      restored to exact ts order with zero loss.
//   2. A watermark generator tracks `watermark = max_ts_seen -
//      allowed_lateness_ms`, clamped monotone: observations that would
//      regress it (out-of-order arrivals, the injected `clock_skew` fault)
//      are absorbed and counted, never emitted. The `watermark_stall` fault
//      freezes the generator for a burst of observations; end-of-stream
//      still seals every window because the flush drains the buffer.
//   3. A quarantine with typed dispositions: a tuple that arrives behind the
//      emit frontier is *late* — admitted (merged into the output) while its
//      ts is still at or above the watermark, dropped once beyond the
//      allowed lateness; exact (ts, key) re-deliveries inside the reorder
//      window are *duplicates* when dedup is on; tuples whose key falls
//      outside the generators' documented key domain (< 2^31) are *corrupt*.
//      Nothing is silently lost: tuples_out + late_dropped + duplicates +
//      corrupt == tuples_in, and the supervisor folds the dropped counts
//      into its bounded-loss accounting (recovery.tuples_dropped /
//      est_matches_lost).
//
// Zero-overhead contract: with no policy configured (spec knobs 0 and the
// environment unset) callers bypass this layer entirely — no copy, no
// atomics, byte-identical behavior to a build without it.
#ifndef IAWJ_STREAM_DISORDER_H_
#define IAWJ_STREAM_DISORDER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/stream/stream.h"

namespace iawj {

// Effective ingestion policy. Resolution mirrors the supervision knobs
// (join/supervisor.h): the spec field wins, 0 defers to the environment
// ($IAWJ_DISORDER_SLACK / $IAWJ_ALLOWED_LATENESS, stream-ms doubles),
// negative is explicitly off regardless of environment; dedup is OR'd with
// $IAWJ_INGEST_DEDUP. Malformed env values are ignored with a warning —
// ingestion must never be the thing that fails a run.
struct IngestPolicy {
  double slack_ms = 0;             // reorder-buffer hold horizon
  double allowed_lateness_ms = 0;  // watermark = max_ts_seen - this
  bool dedup = false;              // quarantine exact (ts, key) re-deliveries

  // Anything configured? False means callers skip IngestStream entirely.
  bool Enabled() const {
    return slack_ms > 0 || allowed_lateness_ms > 0 || dedup;
  }

  static IngestPolicy Resolve(double spec_slack_ms,
                              double spec_allowed_lateness_ms,
                              bool spec_dedup);
};

// Ingestion accounting; serialized as the run record's v7 "ingest" block
// and mirrored into the ingest.* metrics counters.
struct IngestStats {
  uint64_t tuples_in = 0;       // arrivals delivered (faults included)
  uint64_t tuples_out = 0;      // tuples in the restored, ordered output
  uint64_t reordered = 0;       // arrivals with ts below the max seen so far
  uint64_t late_total = 0;      // arrivals behind the emit frontier
  uint64_t late_admitted = 0;   // late but >= watermark: merged into output
  uint64_t late_dropped = 0;    // late and < watermark: quarantined
  uint64_t duplicates = 0;      // exact re-deliveries (dedup on only)
  uint64_t corrupt = 0;         // key outside the documented domain
  uint64_t watermark_clamps = 0;  // regressions the monotone clamp absorbed
  uint32_t max_disorder_ms = 0;   // largest (max_ts_seen - arrival ts)
  uint32_t max_ts_ms = 0;         // true maximum arrival timestamp
  uint32_t final_watermark_ms = 0;  // generator state at end of stream

  uint64_t quarantined() const { return late_dropped + duplicates + corrupt; }

  // True once the ingest layer processed anything — gates the record block.
  bool any() const { return tuples_in > 0; }

  // Folds `other` in (the two input streams of one run ingest separately).
  void Merge(const IngestStats& other);
};

struct IngestResult {
  Stream stream;  // admitted tuples, non-decreasing ts
  IngestStats stats;
};

// Watermark generator: watermark = max(observed ts) - allowed_lateness,
// clamped monotone. Observations feed through the `clock_skew` fault (the
// observed timestamp regresses ~10 s, the shape of an NTP step on the
// producer) and the `watermark_stall` fault (the generator freezes for a
// burst of observations); in both cases the emitted watermark never
// regresses — Current() is non-decreasing across any Observe sequence.
class WatermarkGenerator {
 public:
  explicit WatermarkGenerator(double allowed_lateness_ms);

  // Feeds one arrival timestamp; returns the (possibly clamped) watermark.
  uint32_t Observe(uint32_t ts);

  uint32_t Current() const { return watermark_; }
  // Observations whose candidate watermark sat below Current(): disorder
  // and injected skew the clamp absorbed.
  uint64_t clamps() const { return clamps_; }

 private:
  uint32_t lateness_ms_;
  uint32_t watermark_ = 0;
  uint64_t clamps_ = 0;
  uint32_t stall_remaining_ = 0;  // observations the stall fault freezes
};

// The ingestion layer fed batch by batch: the reorder buffer, watermark and
// quarantine described above, with their state carried across Push calls.
// Push appends every tuple whose place in the restored order is final;
// Flush ends the stream. Pushing an arrival sequence in any chunking and
// then flushing appends exactly what IngestStream returns for the whole
// sequence, and fires the ingest fault sites on the same arrivals.
class StreamIngester {
 public:
  explicit StreamIngester(const IngestPolicy& policy);

  void Push(std::span<const Tuple> arrivals, std::vector<Tuple>* out);
  // End of stream: delivers the fault-held arrivals, drains the reorder
  // buffer and appends everything left.
  void Flush(std::vector<Tuple>* out);

  // Every tuple appended from now on has ts >= frontier(): the smaller of
  // the emit frontier (a later arrival below it is late) and the watermark
  // (a late arrival below it is dropped, not admitted).
  uint32_t frontier() const;
  // Tuples inside: the reorder buffer, released and admitted-late tuples
  // waiting for the frontier, and arrivals the fault sites hold back.
  size_t held() const;
  IngestStats stats() const;

 private:
  void Deliver(Tuple t);
  void Drain(bool flush);
  void Emit(bool flush, std::vector<Tuple>* out);

  uint32_t slack_;
  bool dedup_;
  WatermarkGenerator watermark_;
  IngestStats stats_;
  // Min-heaps by (ts, key): the bounded reorder buffer, and the late
  // arrivals admitted behind the emit frontier.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
      buffer_, late_;
  // dedup: multiplicity of each exact (ts, key) currently held in the
  // buffer; a re-delivery while the original is still pending quarantines.
  std::unordered_map<uint64_t, uint32_t> pending_;
  std::deque<Tuple> released_;  // left the buffer, order not yet final
  uint32_t emit_frontier_ = 0;  // largest released ts
  // Fault holds: disorder_burst (release arrival index, tuple) and
  // late_tuple (to end of stream).
  std::deque<std::pair<uint64_t, Tuple>> burst_held_;
  std::vector<Tuple> eos_held_;
  uint64_t arrival_index_ = 0;
};

// Feeds an arrival-order sequence (`arrivals.tuples` in delivery order, NOT
// required to be sorted) through the reorder buffer + watermark + quarantine
// and returns the restored ordered stream with its accounting: a
// StreamIngester pushed everything, then flushed. Deterministic in
// (arrivals, policy, active fault spec). The fault sites
// `disorder_burst` (an arrival is held back ~128 deliveries), `late_tuple`
// (an arrival is held to end of stream) and `dup_tuple` (an arrival is
// delivered twice) perturb the delivery sequence here.
IngestResult IngestStream(const Stream& arrivals, const IngestPolicy& policy);

// Deterministically perturbs a sorted stream into an arrival-order sequence
// whose disorder is bounded by max_shift_ms: each tuple is sorted by
// ts + uniform(0, max_shift_ms] jitter. A reorder buffer with slack_ms >=
// max_shift_ms restores the exact original order with no late tuples (proof:
// when the buffer releases a tuple t, some arrived tuple m has
// ts_m >= ts_t + slack; any unarrived u was delivered after m, so
// ts_u + jitter_u >= ts_m >= ts_t + slack, hence ts_u >= ts_t). The result
// violates Stream's sorted contract on purpose — feed it only to
// IngestStream (tests, chaos schedules, the --disorder-shuffle smoke).
Stream PermuteWithinSlack(const Stream& stream, uint32_t max_shift_ms,
                          uint64_t seed);

// Publishes one ingest episode into the live metrics registry (ingest.*
// counters). One relaxed load when metrics are off.
void PublishIngestMetrics(const IngestStats& stats);

}  // namespace iawj

#endif  // IAWJ_STREAM_DISORDER_H_
