// Offline workloads (hash-uniform, sort-dupe): a generated stream joined in
// tumbling windows by every algorithm of the workload through
// RunTumblingWindows, instant clock. The timed region is the pipeline calls.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/histogram.h"
#include "src/datagen/micro.h"
#include "src/datagen/real_world.h"

namespace perfbench {
namespace {

using iawj::AlgorithmId;
using iawj::JoinSpec;
using iawj::PipelineResult;
using iawj::Stream;
using iawj::Tuple;

struct OfflineParams {
  std::string source;  // "micro" | "rovio"
  uint64_t rate = 0;   // micro: tuples per ms per side
  uint32_t stream_ms = 0;
  uint32_t window_ms = 0;
  double scale = 0;    // rovio
  std::vector<AlgorithmId> algos;
  std::vector<std::string> algo_names;
  int threads = 0;
  uint32_t oracle_key_mod = 0;   // oracle slice: keys with key % mod == 0 ...
  uint32_t oracle_slice_ms = 0;  // ... and ts below this, from window 0
  int setup_repeats = 0;  // generations per repetition (cheap set-ups)
};

iawj::Status Generate(const OfflineParams& p, uint64_t seed, Stream* r,
                      Stream* s) {
  if (p.source == "micro") {
    iawj::MicroSpec spec;
    spec.rate_r = spec.rate_s = p.rate;
    spec.window_ms = p.stream_ms;
    spec.seed = seed;  // MicroSpec's default dupe 1: unique keys
    iawj::MicroWorkload w;
    if (iawj::Status st = iawj::GenerateMicro(spec, &w); !st.ok()) return st;
    *r = std::move(w.r);
    *s = std::move(w.s);
    return iawj::Status::Ok();
  }
  if (p.source == "rovio") {
    iawj::RealWorldSpec spec;
    spec.which = iawj::RealWorkload::kRovio;
    spec.scale = p.scale;
    spec.window_ms = p.stream_ms;
    spec.seed = seed;
    iawj::Workload w;
    if (iawj::Status st = iawj::GenerateRealWorld(spec, &w); !st.ok()) {
      return st;
    }
    *r = std::move(w.r);
    *s = std::move(w.s);
    return iawj::Status::Ok();
  }
  return iawj::Status::InvalidArgument("unknown source '" + p.source + "'");
}

// The window pipeline's segmentation step (SliceWindow in
// join/window_pipeline.cc): two binary searches and a rebasing copy.
Stream SliceWindow(const Stream& stream, uint64_t start, uint32_t length) {
  const auto before = [](const Tuple& t, uint64_t v) { return t.ts < v; };
  const auto lo = std::lower_bound(stream.tuples.begin(), stream.tuples.end(),
                                   start, before);
  const auto hi =
      std::lower_bound(lo, stream.tuples.end(), start + length, before);
  Stream window;
  window.tuples.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    window.tuples.push_back(
        Tuple{static_cast<uint32_t>(it->ts - start), it->key});
  }
  return window;
}

JoinSpec MakeSpec(int threads, uint32_t window_ms) {
  JoinSpec spec;
  spec.num_threads = threads;
  spec.window_ms = window_ms;
  spec.clock_mode = iawj::Clock::Mode::kInstant;
  return spec;
}

// LatencyHistogram::QuantileMs returns the midpoint of the bucket holding
// the quantile, so it moves in ~6% steps and repeats exactly from run to
// run. This interpolates linearly inside that bucket instead: bisection over
// QuantileMs finds the cumulative fractions at the bucket's edges, and the
// samples are taken as spread evenly across it. Bucket layout as in
// common/histogram.h: 16 linear sub-buckets per power-of-two octave of us.
double InterpolatedQuantileMs(const iawj::LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0;
  const double mid = h.QuantileMs(q);
  const double mid_us = mid * 1000;
  const double width_us =
      mid_us < 16 ? 1 : std::ldexp(1.0, std::ilogb(mid_us)) / 16;
  // Largest fraction whose quantile lies below the bucket (inclusive=false)
  // or inside it (inclusive=true).
  const auto edge = [&](bool inclusive) {
    double lo = 0, hi = 1;
    for (int i = 0; i < 50; ++i) {
      const double m = (lo + hi) / 2;
      const double v = h.QuantileMs(m);
      if (v < mid || (inclusive && v == mid)) {
        lo = m;
      } else {
        hi = m;
      }
    }
    return lo;
  };
  const double f_lo = edge(false);
  const double f_hi = edge(true);
  if (f_hi <= f_lo) return mid;
  return (mid_us - width_us / 2 + (q - f_lo) / (f_hi - f_lo) * width_us) /
         1000;
}

}  // namespace

int RunOffline(RunContext* ctx, iawj::json::Writer* w) {
  OfflineParams p;
  p.source = ctx->String("source");
  if (p.source == "micro") {
    p.rate = static_cast<uint64_t>(ctx->Int("rate"));
  } else {
    p.scale = ctx->Double("scale");
  }
  p.stream_ms = static_cast<uint32_t>(ctx->Int("stream_ms"));
  p.window_ms = static_cast<uint32_t>(ctx->Int("window_ms"));
  p.threads = static_cast<int>(ctx->Int("threads"));
  p.oracle_key_mod = static_cast<uint32_t>(ctx->Int("oracle_key_mod"));
  p.oracle_slice_ms = static_cast<uint32_t>(ctx->Int("oracle_slice_ms"));
  p.setup_repeats = static_cast<int>(ctx->Int("setup_repeats"));
  const std::string algos = ctx->String("algos");
  if (!ctx->missing.empty()) {
    std::fprintf(stderr, "perfbench_bin: missing workload parameters:%s\n",
                 ctx->missing.c_str());
    return 2;
  }
  if (p.window_ms == 0 || p.threads < 1 || p.oracle_key_mod == 0 ||
      p.setup_repeats < 1 || !ParseAlgorithms(algos, &p.algos)) {
    std::fprintf(stderr, "perfbench_bin: bad offline workload parameters\n");
    return 2;
  }
  for (AlgorithmId id : p.algos) {
    p.algo_names.emplace_back(iawj::AlgorithmName(id));
  }
  const JoinSpec spec = MakeSpec(p.threads, p.window_ms);

  SpanLog& spans = *ctx->spans;
  Stream r, s;
  w->Key("reps").BeginArray();
  const double begin_ms = NowMs();
  for (int rep = 0;
       rep < RunContext::kMinReps || NowMs() - begin_ms < ctx->seconds * 1000;
       ++rep) {
    const bool traced = ctx->RepTraced(rep);
    SpanLog untraced(false);
    SpanLog& log = traced ? spans : untraced;
    const std::string rep_id = "rep=" + std::to_string(rep);

    // Set-up: input generation from the seed, repeated when it is cheap so
    // its median is steady.
    std::vector<double> setup_ms;
    for (int k = 0; k < p.setup_repeats; ++k) {
      r = Stream();
      s = Stream();
      const double setup_start = NowMs();
      ScopedSpan span(&log, "datagen.generate", -1, rep_id);
      if (iawj::Status st = Generate(p, ctx->seed, &r, &s); !st.ok()) {
        std::fprintf(stderr, "perfbench_bin: %s\n", st.ToString().c_str());
        return 2;
      }
      setup_ms.push_back(NowMs() - setup_start);
    }

    // Timed region: one RunTumblingWindows call per algorithm.
    std::vector<PipelineResult> results(p.algos.size());
    std::vector<AlgoTotals> totals(p.algos.size());
    std::vector<iawj::LatencyHistogram> latency(p.algos.size());
    double timed_ms = 0;
    for (size_t a = 0; a < p.algos.size(); ++a) {
      std::vector<double> window_starts;
      const AlgorithmId id = p.algos[a];
      // The policy runs right before each window's runner call, which makes
      // it the benchmark-side boundary between pipeline and runner.
      const iawj::AlgorithmPolicy policy = [&](const Stream&, const Stream&) {
        if (traced) window_starts.push_back(NowMs());
        return id;
      };
      const int64_t pipe_span = log.Begin("window_pipeline.run", -1,
                                          rep_id + "/" + p.algo_names[a]);
      const double t0 = NowMs();
      results[a] = iawj::RunTumblingWindows(r, s, spec, policy);
      const double wall = NowMs() - t0;
      log.End(pipe_span);
      timed_ms += wall;
      totals[a].threads = p.threads;
      totals[a].pipeline_ms = wall;
      for (size_t i = 0; i < results[a].windows.size(); ++i) {
        const iawj::RunResult& run = results[a].windows[i].result;
        if (traced && i < window_starts.size()) {
          log.Add("runner.run", pipe_span,
                  rep_id + "/" + p.algo_names[a] + "/window=" +
                      std::to_string(results[a].windows[i].window_index),
                  window_starts[i], window_starts[i] + run.elapsed_ms);
        }
        if (!run.status.ok()) continue;
        totals[a].Add(run);
        latency[a].Merge(run.latency);
      }
    }

    // Traced: replay each pipeline's segmentation outside the timed region.
    // These spans and the runner.run spans (RunResult::elapsed_ms, the
    // runner's own clock) are measured apart from the timed wall; run.py
    // checks that together they account for it.
    uint64_t segmented = 0;
    if (traced) {
      for (size_t a = 0; a < p.algos.size(); ++a) {
        for (const iawj::WindowRun& run : results[a].windows) {
          const double t0 = NowMs();
          const Stream wr = SliceWindow(r, run.window_start_ms, p.window_ms);
          const Stream ws = SliceWindow(s, run.window_start_ms, p.window_ms);
          log.Add("window_pipeline.segment", -1,
                  rep_id + "/" + p.algo_names[a] + "/window=" +
                      std::to_string(run.window_index),
                  t0, NowMs());
          segmented += wr.size() + ws.size();
        }
      }
    }

    // Correctness: pipelines complete, and every algorithm agrees with the
    // first one on every window's match count and checksum.
    uint64_t tuples = 0;
    const int64_t check_span = log.Begin("check.agreement", -1, rep_id);
    const PipelineResult& base = results[0];
    for (size_t a = 0; a < results.size(); ++a) {
      const PipelineResult& pr = results[a];
      ctx->attempted += pr.windows.size();
      if (pr.windows.size() != base.windows.size()) {
        ++ctx->attempted;  // the missing or extra windows, counted once
        ctx->Fail(p.algo_names[a] + " ran " +
                  std::to_string(pr.windows.size()) + " windows, " +
                  p.algo_names[0] + " ran " +
                  std::to_string(base.windows.size()));
        continue;
      }
      for (size_t i = 0; i < pr.windows.size(); ++i) {
        const iawj::RunResult& got = pr.windows[i].result;
        const iawj::RunResult& want = base.windows[i].result;
        if (!got.status.ok()) {
          ctx->Fail(p.algo_names[a] + " window " + std::to_string(i) + ": " +
                    got.status.ToString());
        } else if (got.matches != want.matches ||
                   got.checksum != want.checksum) {
          ctx->Fail(p.algo_names[a] + " window " + std::to_string(i) +
                    " disagrees with " + p.algo_names[0]);
        } else {
          tuples += got.inputs;
        }
      }
    }
    log.End(check_span);

    w->BeginObject();
    w->Field("traced", traced);
    w->Key("setup_s").BeginArray();
    for (double ms : setup_ms) w->Double(ms / 1000);
    w->EndArray();
    w->Field("timed_s", timed_ms / 1000);
    w->Field("tuples", tuples);
    if (traced) w->Field("segmented_tuples", segmented);
    // Each algorithm's per-match latency quantile, averaged over the
    // algorithms: pooling them would put the median in the gap between two
    // algorithms' distributions whenever they emit equally many matches.
    double p50 = 0, p99 = 0;
    uint64_t samples = latency[0].count();
    for (const iawj::LatencyHistogram& h : latency) {
      p50 += InterpolatedQuantileMs(h, 0.50) / latency.size();
      p99 += InterpolatedQuantileMs(h, 0.99) / latency.size();
      samples = std::min(samples, h.count());
    }
    w->Field("lat_p50_ms", p50);
    w->Field("lat_p99_ms", p99);
    w->Field("lat_samples", samples);
    int64_t peak = 0;
    for (const AlgoTotals& t : totals) {
      peak = std::max(peak, t.peak_tracked_bytes);
    }
    w->Field("mem_peak_mb", static_cast<double>(peak) / (1 << 20));
    w->Key("algos");
    WriteAlgoTotals(p.algo_names, totals, w);
    w->EndObject();
  }
  w->EndArray();

  // Once per run, outside every timed region.
  w->Field("oracle_matches",
           CheckOracleSlice(p.algos, r, s,
                            std::min(p.window_ms, p.oracle_slice_ms),
                            p.oracle_key_mod, p.threads, p.window_ms, ctx));
  if (ctx->trace) {
    const uint32_t end = std::min(p.window_ms, kScalingSliceMs);
    MeasureScaling(p.algos, p.algo_names, Slice(r, end, 1), Slice(s, end, 1),
                   p.threads, p.window_ms, w);
  }
  return 0;
}

}  // namespace perfbench
