// perfbench_bin — runs one workload of the end-to-end benchmark and
// prints its raw record as one JSON line on stdout.
//
//   perfbench_bin --workload=<name> --kind=offline|serve --seed=<n>
//                    --seconds=<s> --trace=0|1 [workload parameters]
//
// run.py passes the workload parameters from workloads.json; the program
// under test only ever sees the inputs generated here from --seed.
#include <cstdio>
#include <string>

#include "perfbench/workloads.h"
#include "src/join/context.h"
#include "src/join/reference.h"
#include "src/serve/protocol.h"

namespace perfbench {

void AlgoTotals::Add(const iawj::RunResult& result) {
  inputs += result.inputs;
  matches += result.matches;
  runner_ms += result.elapsed_ms;
  cpu_ms += result.cpu_time_ms;
  if (result.peak_tracked_bytes > peak_tracked_bytes) {
    peak_tracked_bytes = result.peak_tracked_bytes;
  }
  for (int p = 0; p < iawj::kNumPhases; ++p) {
    phase_ns[p] += result.phases.GetNs(static_cast<iawj::Phase>(p));
  }
}

void AlgoTotals::Write(iawj::json::Writer* w) const {
  w->BeginObject();
  w->Field("inputs", inputs);
  w->Field("matches", matches);
  w->Field("threads", static_cast<int64_t>(threads));
  w->Field("runner_ms", runner_ms);
  w->Field("pipeline_ms", pipeline_ms);
  w->Field("cpu_ms", cpu_ms);
  w->Field("peak_tracked_bytes", peak_tracked_bytes);
  w->Key("phase_ns").BeginObject();
  for (int p = 0; p < iawj::kNumPhases; ++p) {
    w->Field(iawj::PhaseName(static_cast<iawj::Phase>(p)), phase_ns[p]);
  }
  w->EndObject();
  w->EndObject();
}

void WriteAlgoTotals(const std::vector<std::string>& names,
                     const std::vector<AlgoTotals>& totals,
                     iawj::json::Writer* w) {
  w->BeginObject();
  for (size_t i = 0; i < names.size(); ++i) {
    w->Key(names[i]);
    totals[i].Write(w);
  }
  w->EndObject();
}

bool ParseAlgorithms(const std::string& list,
                     std::vector<iawj::AlgorithmId>* out) {
  out->clear();
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    iawj::AlgorithmId id;
    if (!iawj::serve::ParseAlgorithmName(list.substr(begin, end - begin),
                                         &id)) {
      return false;
    }
    out->push_back(id);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return !out->empty();
}

int64_t RunContext::Int(const std::string& name) {
  if (!flags->Has(name)) missing += " --" + name;
  return flags->GetInt(name, 0);
}

double RunContext::Double(const std::string& name) {
  if (!flags->Has(name)) missing += " --" + name;
  return flags->GetDouble(name, 0);
}

std::string RunContext::String(const std::string& name) {
  if (!flags->Has(name)) missing += " --" + name;
  return flags->GetString(name, "");
}

iawj::Stream Slice(const iawj::Stream& in, uint32_t end_ms,
                   uint32_t key_mod) {
  iawj::Stream out;
  for (const iawj::Tuple& t : in.tuples) {
    if (t.ts >= end_ms) break;
    if (t.key % key_mod == 0) out.tuples.push_back(t);
  }
  return out;
}

uint64_t CheckOracleSlice(const std::vector<iawj::AlgorithmId>& algos,
                          const iawj::Stream& r, const iawj::Stream& s,
                          uint32_t end_ms, uint32_t key_mod, int threads,
                          uint32_t window_ms, RunContext* ctx) {
  const iawj::Stream sr = Slice(r, end_ms, key_mod);
  const iawj::Stream ss = Slice(s, end_ms, key_mod);
  const iawj::ReferenceResult ref = iawj::NestedLoopJoin(sr.view(), ss.view());
  iawj::JoinSpec spec;
  spec.num_threads = threads;
  spec.window_ms = window_ms;
  spec.clock_mode = iawj::Clock::Mode::kInstant;
  iawj::JoinRunner runner;
  for (iawj::AlgorithmId id : algos) {
    ++ctx->attempted;
    const iawj::RunResult got = runner.Run(id, sr, ss, spec);
    if (!got.status.ok() || got.matches != ref.matches ||
        got.checksum != ref.checksum) {
      ctx->Fail("oracle slice: " + std::string(iawj::AlgorithmName(id)) +
                " got " + std::to_string(got.matches) + " matches, expected " +
                std::to_string(ref.matches));
    }
  }
  return ref.matches;
}

void MeasureScaling(const std::vector<iawj::AlgorithmId>& algos,
                    const std::vector<std::string>& names,
                    const iawj::Stream& r, const iawj::Stream& s, int threads,
                    uint32_t window_ms, iawj::json::Writer* w) {
  iawj::JoinSpec spec;
  spec.window_ms = window_ms;
  spec.clock_mode = iawj::Clock::Mode::kInstant;
  iawj::JoinRunner runner;
  w->Key("scaling").BeginObject();
  for (size_t a = 0; a < algos.size(); ++a) {
    spec.num_threads = 1;
    const iawj::RunResult one = runner.Run(algos[a], r, s, spec);
    spec.num_threads = threads;
    const iawj::RunResult many = runner.Run(algos[a], r, s, spec);
    w->Key(names[a]).BeginObject();
    w->Field("one_thread_ms", one.elapsed_ms);
    w->Field("n_thread_ms", many.elapsed_ms);
    w->Field("threads", static_cast<int64_t>(threads));
    w->EndObject();
  }
  w->EndObject();
}

namespace {

int Main(int argc, char** argv) {
  iawj::FlagParser flags;
  if (iawj::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "perfbench_bin: %s\n", st.ToString().c_str());
    return 2;
  }
  const std::string workload = flags.GetString("workload", "");
  const std::string kind = flags.GetString("kind", "");
  RunContext ctx;
  ctx.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  ctx.seconds = flags.GetDouble("seconds", 10);
  ctx.trace = flags.GetBool("trace", false);
  ctx.flags = &flags;
  SpanLog spans(ctx.trace);
  ctx.spans = &spans;
  NowMs();  // anchor the span clock

  iawj::json::Writer w;
  w.BeginObject();
  w.Field("workload", workload);
  w.Field("seed", ctx.seed);
  w.Field("trace", ctx.trace);
  int rc = 2;
  if (kind == "offline") {
    rc = RunOffline(&ctx, &w);
  } else if (kind == "serve") {
    rc = RunServe(&ctx, &w);
  } else {
    std::fprintf(stderr, "perfbench_bin: unknown --kind '%s'\n",
                 kind.c_str());
  }
  if (rc != 0) return rc;
  if (const auto unknown = flags.Unknown(); !unknown.empty()) {
    std::fprintf(stderr, "perfbench_bin: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  w.Field("attempted", ctx.attempted);
  w.Field("failed", ctx.failed);
  w.Key("errors").BeginArray();
  for (const std::string& e : ctx.errors) w.String(e);
  w.EndArray();
  w.Key("spans");
  spans.WriteJson(&w);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
