// Workloads of the end-to-end benchmark.
//
// Each workload generates its inputs from the seed, repeats set-up + timed
// region + correctness checks until the measuring time is spent, and writes
// one raw JSON record: per-repetition measurements, counts of attempted and
// failed operations, and (when tracing) the span log. run.py turns the raw
// record into the reported metrics.
#ifndef IAWJ_PERFBENCH_WORKLOADS_H_
#define IAWJ_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/join/context.h"
#include "src/join/runner.h"
#include "src/join/window_pipeline.h"

namespace perfbench {

struct RunContext {
  // Repetitions stop once `seconds` of measuring time are spent, but never
  // before kMinReps (a traced run then has traced and untraced ones).
  static constexpr int kMinReps = 3;

  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  iawj::FlagParser* flags = nullptr;
  SpanLog* spans = nullptr;

  // Workload parameters. Their values live only in workloads.json, so a
  // parameter missing from the command line is a usage error rather than a
  // silent default; `missing` names the ones asked for and not given.
  int64_t Int(const std::string& name);
  double Double(const std::string& name);
  std::string String(const std::string& name);
  std::string missing;

  // Operations attempted and failed (failed or wrong windows, refused
  // batches), plus a line per failure for the report.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }

  // In a traced run, even repetitions run untraced and odd ones traced, so
  // the tracing overhead is measured inside one process.
  bool RepTraced(int rep) const { return trace && rep % 2 == 1; }
};

// Per-algorithm sums over the windows of one repetition (or one check run),
// from RunResult. run.py derives the runner.* per-layer metrics from them.
struct AlgoTotals {
  uint64_t inputs = 0;
  uint64_t matches = 0;
  int threads = 0;
  double runner_ms = 0;    // sum of RunResult::elapsed_ms
  double pipeline_ms = 0;  // wall time of the RunTumblingWindows call(s)
  double cpu_ms = 0;
  int64_t peak_tracked_bytes = 0;
  std::array<uint64_t, iawj::kNumPhases> phase_ns{};

  void Add(const iawj::RunResult& result);
  void Write(iawj::json::Writer* w) const;
};

// Writes {"<algo>": {...}, ...} for the algorithms in order.
void WriteAlgoTotals(const std::vector<std::string>& names,
                     const std::vector<AlgoTotals>& totals,
                     iawj::json::Writer* w);

// Parses a comma-separated list of wire algorithm names.
bool ParseAlgorithms(const std::string& list,
                     std::vector<iawj::AlgorithmId>* out);

// Tuples of [0, end_ms) whose key % key_mod == 0, in stream order.
iawj::Stream Slice(const iawj::Stream& in, uint32_t end_ms, uint32_t key_mod);

// Nested-loop oracle (join/reference.h) over one small slice of r and s:
// each algorithm, run through JoinRunner::Run with `threads` workers, must
// reproduce the oracle's match count and checksum exactly. Mismatches count
// in ctx->failed. Returns the oracle's match count.
uint64_t CheckOracleSlice(const std::vector<iawj::AlgorithmId>& algos,
                          const iawj::Stream& r, const iawj::Stream& s,
                          uint32_t end_ms, uint32_t key_mod, int threads,
                          uint32_t window_ms, RunContext* ctx);

// runner.scaling job: window 0 up to this time, as one window.
constexpr uint32_t kScalingSliceMs = 250;

// Runs the same job (r, s as one window) at 1 thread and at `threads`;
// writes "scaling": {"<name>": {one_thread_ms, n_thread_ms, threads}}.
void MeasureScaling(const std::vector<iawj::AlgorithmId>& algos,
                    const std::vector<std::string>& names,
                    const iawj::Stream& r, const iawj::Stream& s, int threads,
                    uint32_t window_ms, iawj::json::Writer* w);

// Both workloads write the body of the raw record's top-level object.
// Non-zero return means the workload could not run at all (bad flags,
// daemon did not start); wrong answers are counted in ctx->failed instead.
int RunOffline(RunContext* ctx, iawj::json::Writer* w);
int RunServe(RunContext* ctx, iawj::json::Writer* w);

}  // namespace perfbench

#endif  // IAWJ_PERFBENCH_WORKLOADS_H_
