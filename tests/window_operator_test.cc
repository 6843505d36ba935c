// Property tests for the push-based window operator (join/window_operator.h)
// and the incremental ingester and shedder under it: any chunking of the
// inputs — one tuple per push, the whole stream in one push, or random
// sizes — must give the same answer as the whole-stream transforms. The
// reference below recomputes every window the way a whole-stream run does:
// ingest each stream whole, draw session boundaries, shed each stream
// whole, then slice every window of the shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/join/supervisor.h"
#include "src/join/window_operator.h"
#include "src/stream/disorder.h"
#include "src/stream/stream.h"

namespace iawj {
namespace {

// A sorted stream over [0, horizon) with a small key domain (so windows
// match), some exact (ts, key) repeats (so dedup has work), and two silent
// stretches (so session windows split).
Stream TestStream(uint64_t seed, uint32_t n = 1500, uint32_t horizon = 600) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  while (tuples.size() < n) {
    Tuple t{static_cast<uint32_t>(rng.NextBounded(horizon)),
            static_cast<uint32_t>(rng.NextBounded(40))};
    if ((t.ts >= 180 && t.ts < 260) || (t.ts >= 400 && t.ts < 430)) continue;
    tuples.push_back(t);
    if (rng.NextBounded(20) == 0) tuples.push_back(t);
  }
  return MakeStream(std::move(tuples));
}

// Chunk sizes covering a stream of n tuples: 0 one tuple per push, 1 the
// whole stream at once, otherwise random sizes up to n / 4.
std::vector<size_t> Chunking(size_t n, int mode, Rng* rng) {
  std::vector<size_t> sizes;
  for (size_t done = 0; done < n;) {
    size_t size = mode == 0 ? 1 : n;
    if (mode > 1) size = 1 + rng->NextBounded(std::max<size_t>(n / 4, 1));
    size = std::min(size, n - done);
    sizes.push_back(size);
    done += size;
  }
  return sizes;
}

struct Window {
  uint32_t index = 0;
  uint64_t start = 0;
  uint32_t length = 0;
  std::vector<Tuple> r, s;
};

std::vector<Tuple> Slice(const Stream& stream, uint64_t start, uint64_t end) {
  std::vector<Tuple> out;
  for (const Tuple& t : stream.tuples) {
    if (t.ts >= start && t.ts < end) {
      out.push_back(Tuple{static_cast<uint32_t>(t.ts - start), t.key});
    }
  }
  return out;
}

// The whole-stream run: ingest R then S, session boundaries from the
// ingested streams, shed each stream, then every window of the shape.
std::vector<Window> Reference(const Stream& r, const Stream& s,
                              const WindowShape& shape,
                              const IngestPolicy& ingest,
                              const SupervisorPolicy& supervision,
                              IngestStats* stats) {
  Stream in_r = r, in_s = s;
  if (ingest.Enabled()) {
    IngestResult ir = IngestStream(r, ingest);
    IngestResult is = IngestStream(s, ingest);
    *stats = ir.stats;
    stats->Merge(is.stats);
    in_r = std::move(ir.stream);
    in_s = std::move(is.stream);
  }
  std::vector<std::pair<uint64_t, uint64_t>> segments;  // [start, end)
  if (shape.gap_ms > 0) {
    std::vector<uint32_t> ts;
    for (const Tuple& t : in_r.tuples) ts.push_back(t.ts);
    for (const Tuple& t : in_s.tuples) ts.push_back(t.ts);
    std::sort(ts.begin(), ts.end());
    for (size_t i = 0; i < ts.size(); ++i) {
      if (i == 0 || ts[i] - ts[i - 1] >= shape.gap_ms) {
        segments.emplace_back(ts[i], ts[i] + 1);
      }
      segments.back().second = ts[i] + 1;
    }
  }
  if (supervision.shed_watermark_per_ms > 0) {
    in_r = ShedToWatermark(in_r, supervision.shed_watermark_per_ms,
                           supervision.shed_max_lag_ms, supervision.seed)
               .stream;
    in_s = ShedToWatermark(in_s, supervision.shed_watermark_per_ms,
                           supervision.shed_max_lag_ms, supervision.seed + 1)
               .stream;
  }
  if (shape.gap_ms == 0) {
    const uint64_t max_ts = std::max(in_r.MaxTs(), in_s.MaxTs());
    for (uint64_t start = 0; start <= max_ts; start += shape.hop_ms) {
      segments.emplace_back(start, start + shape.length_ms);
    }
  }
  std::vector<Window> windows;
  for (size_t i = 0; i < segments.size(); ++i) {
    Window w;
    w.index = static_cast<uint32_t>(i);
    w.start = segments[i].first;
    w.length = static_cast<uint32_t>(segments[i].second - segments[i].first);
    w.r = Slice(in_r, segments[i].first, segments[i].second);
    w.s = Slice(in_s, segments[i].first, segments[i].second);
    if (!w.r.empty() || !w.s.empty()) windows.push_back(std::move(w));
  }
  return windows;
}

void Collect(std::vector<Window>* out, SealedWindow sealed) {
  out->push_back(Window{sealed.index, sealed.start_ms, sealed.length_ms,
                        std::move(sealed.r.tuples),
                        std::move(sealed.s.tuples)});
}

void ExpectSameWindows(const std::vector<Window>& got,
                       const std::vector<Window>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].length, want[i].length);
    EXPECT_EQ(got[i].r, want[i].r);
    EXPECT_EQ(got[i].s, want[i].s);
  }
}

void ExpectSameIngest(const IngestStats& got, const IngestStats& want) {
  EXPECT_EQ(got.tuples_in, want.tuples_in);
  EXPECT_EQ(got.tuples_out, want.tuples_out);
  EXPECT_EQ(got.reordered, want.reordered);
  EXPECT_EQ(got.late_total, want.late_total);
  EXPECT_EQ(got.late_admitted, want.late_admitted);
  EXPECT_EQ(got.late_dropped, want.late_dropped);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.corrupt, want.corrupt);
  EXPECT_EQ(got.watermark_clamps, want.watermark_clamps);
  EXPECT_EQ(got.max_disorder_ms, want.max_disorder_ms);
  EXPECT_EQ(got.final_watermark_ms, want.final_watermark_ms);
}

class WindowOperatorTest : public testing::Test {
 protected:
  void SetUp() override {
    unsetenv("IAWJ_DISORDER_SLACK");
    unsetenv("IAWJ_ALLOWED_LATENESS");
    unsetenv("IAWJ_INGEST_DEDUP");
    unsetenv("IAWJ_SHED_WATERMARK");
    fault::Clear();
  }
  void TearDown() override { fault::Clear(); }
};

// Arrivals for one seed: permuted past the slack when `late` (so some
// tuples arrive behind the emit frontier), within it otherwise.
Stream Arrivals(const Stream& sorted, const IngestPolicy& ingest, bool late,
                uint64_t seed) {
  if (!ingest.Enabled()) return sorted;
  const auto shift = static_cast<uint32_t>(ingest.slack_ms) + (late ? 12 : 0);
  return PermuteWithinSlack(sorted, shift, seed);
}

TEST_F(WindowOperatorTest, IngesterAndShedderChunkingMatchesWholeStream) {
  const IngestPolicy policies[] = {
      {.slack_ms = 6},
      {.slack_ms = 4, .allowed_lateness_ms = 20},
      {.slack_ms = 5, .dedup = true},
      {.allowed_lateness_ms = 8},
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Stream sorted = TestStream(seed);
    for (const IngestPolicy& policy : policies) {
      const Stream arrivals = Arrivals(sorted, policy, seed % 2 == 0, seed);
      const IngestResult whole = IngestStream(arrivals, policy);
      Rng rng(seed * 7);
      for (int mode = 0; mode < 3; ++mode) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                     std::to_string(mode));
        StreamIngester ingester(policy);
        std::vector<Tuple> out;
        size_t at = 0;
        uint32_t frontier = 0;
        const auto appended_past_frontier = [&](size_t from) {
          for (size_t i = from; i < out.size(); ++i) {
            if (out[i].ts < frontier) return false;
          }
          return true;
        };
        for (size_t size : Chunking(arrivals.size(), mode, &rng)) {
          const size_t before = out.size();
          ingester.Push(std::span(arrivals.tuples).subspan(at, size), &out);
          // Nothing appended after a frontier may land below it.
          ASSERT_TRUE(appended_past_frontier(before));
          frontier = ingester.frontier();
          at += size;
        }
        const size_t before = out.size();
        ingester.Flush(&out);
        ASSERT_TRUE(appended_past_frontier(before));
        EXPECT_EQ(out, whole.stream.tuples);
        ExpectSameIngest(ingester.stats(), whole.stats);
        EXPECT_EQ(ingester.held(), 0u);
      }
    }
    for (const double watermark : {2.0, 0.9}) {
      const ShedResult whole = ShedToWatermark(sorted, watermark, 1.5, seed);
      ASSERT_GT(whole.tuples_shed, 0u);
      Rng rng(seed * 11);
      for (int mode = 0; mode < 3; ++mode) {
        StreamShedder shedder(watermark, 1.5, seed);
        std::vector<Tuple> out;
        size_t at = 0;
        for (size_t size : Chunking(sorted.size(), mode, &rng)) {
          const auto chunk = std::span(sorted.tuples).subspan(at, size);
          at += size;
          shedder.Push(chunk, at == sorted.size() ? UINT64_MAX
                                                  : chunk.back().ts,
                       &out);
        }
        EXPECT_EQ(out, whole.stream.tuples) << "mode " << mode;
        EXPECT_EQ(shedder.tuples_shed(), whole.tuples_shed);
      }
    }
  }
}

TEST_F(WindowOperatorTest, ChunkingCannotChangeAnyWindow) {
  const WindowShape shapes[] = {
      WindowShape::Tumbling(50),
      WindowShape::Sliding(60, 25),  // overlapping
      WindowShape::Session(15),
      WindowShape::Session(4),  // close enough for shedding to move gaps
  };
  const IngestPolicy ingests[] = {
      {},
      {.slack_ms = 5},
      {.slack_ms = 3, .allowed_lateness_ms = 25, .dedup = true},
  };
  const double sheds[] = {0, 1.8, 0.5};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Stream sorted_r = TestStream(seed * 2);
    const Stream sorted_s = TestStream(seed * 2 + 1);
    for (const WindowShape& shape : shapes) {
      for (const IngestPolicy& ingest : ingests) {
        for (const double shed : sheds) {
          SupervisorPolicy supervision;
          supervision.shed_watermark_per_ms = shed;
          supervision.shed_max_lag_ms = 2;
          supervision.seed = seed;
          const bool late = seed % 2 == 0;
          const Stream r = Arrivals(sorted_r, ingest, late, seed + 100);
          const Stream s = Arrivals(sorted_s, ingest, late, seed + 200);
          IngestStats want_ingest;
          const std::vector<Window> want =
              Reference(r, s, shape, ingest, supervision, &want_ingest);
          ASSERT_FALSE(want.empty());
          Rng rng(seed);
          for (int mode = 0; mode < 3; ++mode) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " hop " +
                         std::to_string(shape.hop_ms) + " gap " +
                         std::to_string(shape.gap_ms) + " slack " +
                         std::to_string(ingest.slack_ms) + " shed " +
                         std::to_string(shed) + " mode " +
                         std::to_string(mode));
            WindowOperator op(shape, ingest, supervision);
            std::vector<Window> got;
            const WindowSink sink = [&got](SealedWindow w) {
              Collect(&got, std::move(w));
            };
            const std::vector<size_t> r_sizes = Chunking(r.size(), mode, &rng);
            const std::vector<size_t> s_sizes = Chunking(s.size(), mode, &rng);
            size_t ir = 0, is = 0;
            for (size_t k = 0; k < std::max(r_sizes.size(), s_sizes.size());
                 ++k) {
              const size_t nr = k < r_sizes.size() ? r_sizes[k] : 0;
              const size_t ns = k < s_sizes.size() ? s_sizes[k] : 0;
              op.Push(std::span(r.tuples).subspan(ir, nr),
                      std::span(s.tuples).subspan(is, ns), sink);
              ir += nr;
              is += ns;
            }
            op.Flush({}, {}, sink);
            ExpectSameWindows(got, want);
            ExpectSameIngest(op.ingest_stats(), want_ingest);
            EXPECT_EQ(op.buffered(), 0u);
          }
        }
      }
    }
  }
}

// A late tuple admitted behind the emit frontier is merged after the
// released tuples of its timestamp, as a whole-stream ingest's stable merge
// of its sorted late arrivals places it.
TEST_F(WindowOperatorTest, AdmittedLateTupleFollowsReleasedTiesInOrder) {
  const IngestPolicy policy{.allowed_lateness_ms = 10};
  const Stream arrivals{{{5, 1}, {10, 2}, {5, 3}, {7, 4}}};
  const std::vector<Tuple> want = {{5, 1}, {5, 3}, {7, 4}, {10, 2}};
  EXPECT_EQ(IngestStream(arrivals, policy).stream.tuples, want);
  StreamIngester ingester(policy);
  std::vector<Tuple> out;
  for (const Tuple& t : arrivals.tuples) ingester.Push({&t, 1}, &out);
  ingester.Flush(&out);
  EXPECT_EQ(out, want);
  EXPECT_EQ(ingester.stats().late_admitted, 2u);
}

// The ingest fault sites count hits process-wide, so which arrival a fault
// lands on depends on delivery order. Delivering R (in chunks), then S,
// fires them on the same arrivals as ingesting R whole, then S whole.
TEST_F(WindowOperatorTest, IngestFaultsFireOnTheSameArrivalsRThenS) {
  const std::string faults =
      "disorder_burst:5:3,late_tuple:40:2,dup_tuple:9:4,watermark_stall:30";
  const IngestPolicy ingest{.slack_ms = 4, .allowed_lateness_ms = 30,
                            .dedup = true};
  const SupervisorPolicy supervision;
  const Stream r = PermuteWithinSlack(TestStream(31), 4, 1);
  const Stream s = PermuteWithinSlack(TestStream(32), 4, 2);
  for (const WindowShape& shape :
       {WindowShape::Tumbling(40), WindowShape::Session(12)}) {
    ASSERT_TRUE(fault::Configure(faults).ok());
    IngestStats want_ingest;
    const std::vector<Window> want =
        Reference(r, s, shape, ingest, supervision, &want_ingest);
    EXPECT_GT(want_ingest.late_total + want_ingest.duplicates, 0u);
    Rng rng(shape.gap_ms);
    for (int mode = 0; mode < 3; ++mode) {
      SCOPED_TRACE("gap " + std::to_string(shape.gap_ms) + " mode " +
                   std::to_string(mode));
      fault::Reset();
      WindowOperator op(shape, ingest, supervision);
      std::vector<Window> got;
      const WindowSink sink = [&got](SealedWindow w) {
        Collect(&got, std::move(w));
      };
      size_t at = 0;
      for (size_t size : Chunking(r.size(), mode, &rng)) {
        op.Push(std::span(r.tuples).subspan(at, size), {}, sink);
        at += size;
      }
      op.Flush({}, s.tuples, sink);
      ExpectSameWindows(got, want);
      ExpectSameIngest(op.ingest_stats(), want_ingest);
    }
  }
}

// A long stream pushed in 10 ms batches: the operator holds about one
// window plus the slack, never the stream.
TEST_F(WindowOperatorTest, BufferedTuplesStayBoundedByWindowAndSlack) {
  std::vector<Tuple> r_tuples, s_tuples;
  for (uint32_t ts = 0; ts < 5000; ++ts) {
    for (uint32_t k = 0; k < 4; ++k) {
      r_tuples.push_back({ts, (ts * 7 + k) % 97});
      s_tuples.push_back({ts, (ts * 5 + k) % 97});
    }
  }
  const Stream r = PermuteWithinSlack(Stream{r_tuples}, 10, 1);
  const Stream s = PermuteWithinSlack(Stream{s_tuples}, 10, 2);
  const IngestPolicy ingest{.slack_ms = 10};
  WindowOperator op(WindowShape::Tumbling(100), ingest, SupervisorPolicy{});
  size_t windows = 0, peak = 0;
  const WindowSink sink = [&windows](SealedWindow) { ++windows; };
  const size_t batch = 4 * 10;  // 10 ms of one stream
  for (size_t at = 0; at < r.size(); at += batch) {
    op.Push(std::span(r.tuples).subspan(at, batch),
            std::span(s.tuples).subspan(at, batch), sink);
    peak = std::max(peak, op.buffered());
  }
  op.Flush({}, {}, sink);
  EXPECT_EQ(windows, 50u);
  // Two streams x 4 t/ms x (window 100 + slack 10 + a batch 10 + 1) ms.
  EXPECT_LE(peak, 2u * 4 * 121);
}

}  // namespace
}  // namespace iawj
