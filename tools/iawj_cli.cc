// iawj_cli — run any IaWJ algorithm over any workload from the shell.
//
// Examples:
//   iawj_cli --algo=shj-jm --workload=micro --rate=1600 --window=1000
//   iawj_cli --algo=adaptive --objective=latency --workload=rovio --scale=0.01
//   iawj_cli --algo=mpass --workload=file --r=trades.csv --s=quotes.csv
//   iawj_cli --algo=npj --workload=micro --windows=4       # tumbling windows
//   iawj_cli --algo=prj --retry=3 --fallback --deadline=50  # supervised
//
// Prints the run's metrics; --csv=<path> additionally writes them as CSV.
// Supervised runs that needed intervention exit 9 (recovered: retries or
// fallbacks, result complete) or 10 (degraded: windows skipped or tuples
// shed, loss accounted); see README "Exit codes".
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "src/common/flags.h"
#include "src/datagen/micro.h"
#include "src/datagen/real_world.h"
#include "src/io/workload_io.h"
#include "src/join/adaptive.h"
#include "src/join/runner.h"
#include "src/join/supervisor.h"
#include "src/join/window_pipeline.h"
#include "src/profiling/cache_sim.h"
#include "src/profiling/pmu.h"
#include "src/profiling/run_record.h"
#include "src/report/report.h"
#include "src/serve/client.h"
#include "src/stream/disorder.h"
#include "tools/cli_flags.h"

namespace iawj {
namespace {

bool ParseAlgorithm(const std::string& name, AlgorithmId* id) {
  for (AlgorithmId candidate : kAllAlgorithms) {
    std::string label(AlgorithmName(candidate));
    for (auto& c : label) c = static_cast<char>(std::tolower(c));
    if (label == name) {
      *id = candidate;
      return true;
    }
  }
  // Outside kAllAlgorithms by design (not one of the paper's studied
  // designs): the spill-capable hybrid hash join, reached only explicitly.
  if (name == "hhj") {
    *id = AlgorithmId::kHhj;
    return true;
  }
  return false;
}

// Distinct exit codes per failure class so scripts and CI can assert on the
// way a run failed (documented in README "Exit codes"). 1 stays the generic
// failure so anything unmapped remains a plain error. Successful-but-
// supervised outcomes use 9 (recovered) and 10 (degraded), assigned in
// Run() below.
int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kFailedPrecondition:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kDeadlineExceeded:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    case StatusCode::kDataLoss:
      return 7;
    case StatusCode::kInternal:
      return 8;
  }
  return 1;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error [%s]: %s\n",
               std::string(StatusCodeName(status.code())).c_str(),
               std::string(status.message()).c_str());
  return ExitCodeFor(status.code());
}

// Client mode (--connect): stream the generated workload to an iawj_serve
// daemon as one tenant, batch by batch along the arrival timeline, and
// report the daemon's window results. Exit codes match local execution:
// the first failed window's status maps through ExitCodeFor, a recovered
// tenant exits 9, a degraded one 10. A daemon drain mid-stream (SIGTERM on
// the server) is not an error: the daemon seals what it accepted and the
// client reports those windows.
int RunConnected(const std::string& socket_path, const std::string& tenant,
                 AlgorithmId id, const JoinSpec& spec, const Stream& r,
                 const Stream& s, uint32_t batch_ms,
                 const std::string& workload_name) {
  serve::TenantSpec hello;
  hello.name = tenant;
  hello.algo = id;
  hello.spec = spec;
  serve::ServeClient client;
  if (const Status st = client.Connect(socket_path); !st.ok()) {
    return Fail(st);
  }
  if (const Status st = client.Hello(hello); !st.ok()) return Fail(st);

  // Walk both (sorted) streams in lockstep, one batch frame per batch_ms of
  // the arrival timeline, so the daemon sees a live-paced tenant and can
  // seal windows eagerly while the stream is still flowing.
  const uint64_t max_ts = std::max<uint64_t>(r.MaxTs(), s.MaxTs());
  size_t ir = 0, is = 0;
  const uint64_t step = batch_ms > 0 ? batch_ms : 100;
  for (uint64_t t = 0; t <= max_ts && !client.drained(); t += step) {
    const uint64_t end = t + step;
    const size_t ir0 = ir, is0 = is;
    while (ir < r.tuples.size() && r.tuples[ir].ts < end) ++ir;
    while (is < s.tuples.size() && s.tuples[is].ts < end) ++is;
    if (ir == ir0 && is == is0) continue;
    const Status sent = client.SendBatch(
        std::span<const Tuple>(r.tuples.data() + ir0, ir - ir0),
        std::span<const Tuple>(s.tuples.data() + is0, is - is0));
    if (!sent.ok()) return Fail(sent);
  }
  if (const Status st = client.End(); !st.ok()) return Fail(st);

  report::Table table({"tenant", "algo", "windows", "inputs", "matches",
                       "checksum", "steals"});
  uint64_t stolen = 0;
  Status first_failure = Status::Ok();
  for (const serve::WindowResult& window : client.windows()) {
    if (window.stolen) ++stolen;
    if (!window.ok() && first_failure.ok()) {
      StatusCode code = StatusCode::kInternal;
      serve::ParseStatusCodeName(window.status_code, &code);
      first_failure = Status(code, window.status_message);
    }
  }
  const serve::ServeClient::Totals& totals = client.totals();
  table.AddRow({tenant, std::string(AlgorithmName(id)),
                std::to_string(totals.windows), std::to_string(totals.inputs),
                std::to_string(totals.matches),
                std::to_string(totals.checksum), std::to_string(stolen)});
  std::printf("served: %s over %s via %s\n", tenant.c_str(),
              workload_name.c_str(), socket_path.c_str());
  std::fputs(table.ToText().c_str(), stdout);
  if (!first_failure.ok()) return Fail(first_failure);
  if (totals.degraded) {
    std::printf("degraded: daemon accounted bounded loss for this tenant\n");
    return 10;
  }
  if (totals.recovered) {
    std::printf("recovered: daemon retried or fell back for this tenant\n");
    return 9;
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }
  if (flags.GetBool("help", false)) {
    std::fputs(cli::HelpText().c_str(), stdout);
    return 0;
  }

  // --- Workload ---
  const std::string workload = flags.GetString("workload", "micro");
  const auto window_ms =
      static_cast<uint32_t>(flags.GetInt("window", 1000));
  Stream r, s;
  std::string workload_name = workload;
  if (workload == "micro") {
    MicroSpec spec;
    spec.rate_r = static_cast<uint64_t>(flags.GetInt("rate", 1600));
    spec.rate_s = static_cast<uint64_t>(flags.GetInt("rate-s", 0));
    if (spec.rate_s == 0) spec.rate_s = spec.rate_r;
    spec.window_ms = window_ms;
    spec.dupe = flags.GetDouble("dupe", 1.0);
    spec.zipf_key = flags.GetDouble("zipf-key", 0.0);
    spec.zipf_ts = flags.GetDouble("zipf-ts", 0.0);
    spec.size_r = static_cast<uint64_t>(flags.GetInt("size-r", 0));
    spec.size_s = static_cast<uint64_t>(flags.GetInt("size-s", 0));
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    MicroWorkload micro;
    if (const Status st = GenerateMicro(spec, &micro); !st.ok()) {
      return Fail(st);
    }
    r = std::move(micro.r);
    s = std::move(micro.s);
  } else if (workload == "file") {
    const std::string r_path = flags.GetString("r", "");
    const std::string s_path = flags.GetString("s", "");
    if (r_path.empty() || s_path.empty()) {
      return Fail("--workload=file needs --r=<path> and --s=<path>");
    }
    const auto load = [&](const std::string& path, Stream* out) {
      return path.size() > 4 && path.substr(path.size() - 4) == ".csv"
                 ? io::LoadStreamCsv(path, out)
                 : io::LoadStream(path, out);
    };
    if (const Status st = load(r_path, &r); !st.ok()) return Fail(st);
    if (const Status st = load(s_path, &s); !st.ok()) return Fail(st);
  } else {
    RealWorldSpec spec;
    spec.scale = flags.GetDouble("scale", 0.05);
    spec.window_ms = window_ms;
    if (workload == "stock") {
      spec.which = RealWorkload::kStock;
    } else if (workload == "rovio") {
      spec.which = RealWorkload::kRovio;
    } else if (workload == "ysb") {
      spec.which = RealWorkload::kYsb;
    } else if (workload == "debs") {
      spec.which = RealWorkload::kDebs;
    } else {
      return Fail("unknown --workload (micro|stock|rovio|ysb|debs|file)");
    }
    Workload w;
    if (const Status st = GenerateRealWorld(spec, &w); !st.ok()) {
      return Fail(st);
    }
    r = std::move(w.r);
    s = std::move(w.s);
    workload_name = w.name;
  }

  // --- Join configuration ---
  JoinSpec spec;
  spec.num_threads = static_cast<int>(flags.GetInt("threads", 4));
  spec.window_ms = window_ms;
  spec.clock_mode = flags.GetBool("realtime", false)
                        ? Clock::Mode::kRealTime
                        : Clock::Mode::kInstant;
  spec.time_scale = flags.GetDouble("time-scale", 1.0);
  spec.radix_bits = static_cast<int>(flags.GetInt("radix-bits", 10));
  spec.radix_passes = static_cast<int>(flags.GetInt("radix-passes", 1));
  spec.pmj_delta = flags.GetDouble("pmj-delta", 0.2);
  spec.jb_group_size = static_cast<int>(flags.GetInt("jb-group", 2));
  spec.eager_physical_partition = flags.GetBool("physical-partition", false);
  spec.use_simd = flags.GetBool("simd", true);
  // auto defers to $IAWJ_KERNELS; scalar forces the paper's loops for A/B
  // runs (see common/kernels.h and docs/MANUAL.md).
  if (const std::string kernels = flags.GetString("kernels", "auto");
      !ParseKernelMode(kernels, &spec.kernels)) {
    return Fail("unknown --kernels (" + KernelModeChoices() + ")");
  }
  // Same resolution shape for scheduling: auto defers to $IAWJ_SCHEDULER,
  // anything unresolved runs static (see join/scheduler.h).
  if (const std::string scheduler = flags.GetString("scheduler", "auto");
      !ParseSchedulerMode(scheduler, &spec.scheduler)) {
    return Fail("unknown --scheduler (auto|static|morsel)");
  }
  spec.morsel_size = static_cast<size_t>(flags.GetInt("morsel-size", 0));
  // 0 keeps the $IAWJ_DEADLINE_MS fallback (see JoinSpec::deadline_ms).
  spec.deadline_ms = static_cast<uint32_t>(flags.GetInt("deadline", 0));

  // Supervision (join/supervisor.h). Each 0/absent default defers to the
  // matching environment variable; see SupervisorPolicy::Resolve.
  spec.retry_max_attempts = static_cast<int>(flags.GetInt("retry", 0));
  spec.retry_backoff_ms = flags.GetDouble("retry-backoff", -1);
  spec.fallback_enabled = flags.GetBool("fallback", false);
  spec.skip_failed_windows = flags.GetBool("skip-windows", false);
  spec.shed_watermark_per_ms = flags.GetDouble("shed-watermark", 0);
  spec.supervisor_seed =
      static_cast<uint64_t>(flags.GetInt("supervisor-seed", 42));

  // Disorder-tolerant ingestion (stream/disorder.h). Same precedence as the
  // supervision knobs: 0 defers to the environment, negative is explicitly
  // off. --disorder-shuffle perturbs the loaded arrival order within a
  // bound before ingest — a test aid for proving the reorder buffer
  // restores it (see the jitter-sort proof in disorder.h).
  spec.disorder_slack_ms = flags.GetDouble("disorder-slack", 0);
  spec.allowed_lateness_ms = flags.GetDouble("allowed-lateness", 0);
  spec.ingest_dedup = flags.GetBool("ingest-dedup", false);
  const double disorder_shuffle = flags.GetDouble("disorder-shuffle", 0);

  const std::string algo = flags.GetString("algo", "npj");
  const auto windows = static_cast<uint32_t>(flags.GetInt("windows", 1));

  // Client mode (serve/client.h): non-empty --connect streams the workload
  // to a daemon instead of executing locally; dispatched below once every
  // flag has been consumed.
  const std::string connect = flags.GetString("connect", "");
  const std::string tenant = flags.GetString("tenant", "cli");
  const auto batch_ms = static_cast<uint32_t>(flags.GetInt("batch-ms", 100));
  const std::string csv_path = flags.GetString("csv", "");
  const std::string objective = flags.GetString("objective", "throughput");

  // Counter source: off (default), pmu (hardware counters measured inside
  // the normal run; $IAWJ_PMU=1 makes this the default), or sim (swap in
  // the cache-simulator-instrumented algorithm — single-window,
  // non-adaptive runs only). A pmu request on a host that refuses
  // perf_event_open is NOT an error: the run proceeds and its record
  // carries {available: false, reason}.
  const std::string counters =
      flags.GetString("counters", pmu::Requested() ? "pmu" : "off");
  if (counters == "pmu") {
    pmu::ForceRequested(true);
    if (const pmu::Availability& avail = pmu::Probe(); !avail.available) {
      std::fprintf(stderr, "note: %s\n", avail.reason.c_str());
    }
  } else if (counters != "off" && counters != "sim") {
    return Fail("unknown --counters (off|sim|pmu)");
  }

  if (const auto unknown = flags.Unknown(); !unknown.empty()) {
    std::string all;
    for (const auto& u : unknown) all += " --" + u;
    return Fail("unknown flags:" + all);
  }

  if (disorder_shuffle > 0) {
    // The shuffled sequence violates Stream's sorted contract, so it may
    // only flow into paths that ingest it back into order: a resolved
    // ingest policy on the supervisor or window-pipeline path.
    const IngestPolicy ingest_policy = IngestPolicy::Resolve(
        spec.disorder_slack_ms, spec.allowed_lateness_ms, spec.ingest_dedup);
    if (!ingest_policy.Enabled()) {
      return Fail("--disorder-shuffle needs an enabled ingest policy "
                  "(--disorder-slack, --allowed-lateness or --ingest-dedup)");
    }
    if (algo == "adaptive" || counters == "sim") {
      return Fail("--disorder-shuffle is not supported with --algo=adaptive "
                  "or --counters=sim (those paths bypass ingestion)");
    }
    const auto shift = static_cast<uint32_t>(disorder_shuffle);
    const auto shuffle_seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    r = PermuteWithinSlack(r, shift, shuffle_seed);
    s = PermuteWithinSlack(s, shift, shuffle_seed + 1);
  }

  if (!connect.empty()) {
    if (algo == "adaptive" || counters == "sim") {
      return Fail("--connect does not support --algo=adaptive or "
                  "--counters=sim (daemon tenants run fixed algorithms)");
    }
    AlgorithmId id;
    if (!ParseAlgorithm(algo, &id)) {
      return Fail("unknown --algo (npj|prj|mway|mpass|shj-jm|shj-jb|pmj-jm|"
                  "pmj-jb|hhj)");
    }
    if (const Status status = spec.Validate(id); !status.ok()) {
      return Fail(status.ToString());
    }
    return RunConnected(connect, tenant, id, spec, r, s, batch_ms,
                        workload_name);
  }

  // --- Execute ---
  report::Table table({"workload", "algo", "windows", "inputs", "matches",
                       "tput_per_ms", "p95_latency_ms", "t50_ms",
                       "peak_mb"});
  const auto add_row = [&](const std::string& algorithm, uint32_t nwin,
                           uint64_t inputs, uint64_t matches, double tput,
                           double p95, double t50, double peak_mb) {
    table.AddRow({workload_name, algorithm, std::to_string(nwin),
                  std::to_string(inputs), std::to_string(matches),
                  report::Table::Num(tput, 1), report::Table::Num(p95, 3),
                  report::Table::Num(t50, 1),
                  report::Table::Num(peak_mb, 2)});
  };

  // A failed run still prints its table row (partial metrics) and writes a
  // run record; the failure is reported at exit via the mapped exit code.
  // Recovery accounting decides between 0, 9 (recovered) and 10 (degraded).
  Status run_status = Status::Ok();
  RecoveryLog recovery;
  IngestStats ingest;

  if (algo == "adaptive") {
    AdaptiveOptions options;
    options.hardware.num_cores = spec.num_threads;
    options.objective = objective == "latency" ? Objective::kLatency
                        : objective == "progress"
                            ? Objective::kProgressiveness
                            : Objective::kThroughput;
    if (windows > 1) {
      const PipelineResult pipeline = RunTumblingWindows(
          r, s, spec, MakeAdaptivePolicy(options));
      run_status = pipeline.status;
      recovery = pipeline.recovery;
      ingest = pipeline.ingest;
      add_row("adaptive", static_cast<uint32_t>(pipeline.windows.size()),
              pipeline.total_inputs, pipeline.total_matches, 0, 0, 0, 0);
    } else {
      AdaptiveChoice choice;
      const RunResult result = RunAdaptive(r, s, spec, options, &choice);
      run_status = result.status;
      std::printf("adaptive pick: %s\n",
                  std::string(AlgorithmName(choice.algorithm)).c_str());
      MaybeWriteRunRecord(result, spec,
                          {.bench = "iawj_cli", .workload = workload_name});
      add_row(result.algorithm, 1, result.inputs, result.matches,
              result.throughput_per_ms, result.p95_latency_ms,
              result.progress.TimeToFractionMs(0.5),
              static_cast<double>(result.peak_tracked_bytes) / (1 << 20));
    }
  } else {
    AlgorithmId id;
    if (!ParseAlgorithm(algo, &id)) {
      return Fail("unknown --algo (npj|prj|mway|mpass|shj-jm|shj-jb|pmj-jm|"
                  "pmj-jb|hhj|adaptive)");
    }
    if (const Status status = spec.Validate(id); !status.ok()) {
      return Fail(status.ToString());
    }
    if (windows > 1) {
      const PipelineResult pipeline = RunTumblingWindows(id, r, s, spec);
      run_status = pipeline.status;
      recovery = pipeline.recovery;
      ingest = pipeline.ingest;
      add_row(std::string(AlgorithmName(id)),
              static_cast<uint32_t>(pipeline.windows.size()),
              pipeline.total_inputs, pipeline.total_matches, 0, 0, 0, 0);
    } else if (counters == "sim") {
      // Simulated counters need the traced algorithm variant, which runs
      // outside the supervisor (deterministic replay, no retries).
      std::vector<CacheSim> sims;
      for (int t = 0; t < spec.num_threads; ++t) {
        sims.push_back(CacheSim::XeonGold6126());
      }
      std::vector<CacheSim*> ptrs;
      for (auto& sim : sims) ptrs.push_back(&sim);
      auto traced = CreateTracedAlgorithm(id);
      JoinRunner runner;
      const RunResult result =
          runner.RunWith(traced.get(), r, s, spec, ptrs.data());
      run_status = result.status;
      MaybeWriteRunRecord(result, spec,
                          {.bench = "iawj_cli", .workload = workload_name});
      add_row(result.algorithm, 1, result.inputs, result.matches,
              result.throughput_per_ms, result.p95_latency_ms,
              result.progress.TimeToFractionMs(0.5),
              static_cast<double>(result.peak_tracked_bytes) / (1 << 20));
      CacheCounters total;
      for (const auto& sim : sims) total += sim.Total();
      const double inputs =
          result.inputs > 0 ? static_cast<double>(result.inputs) : 1;
      std::printf("counters[sim]: L1D/in=%.3f L2/in=%.3f L3/in=%.3f "
                  "TLBD/in=%.3f\n",
                  total.l1_misses / inputs, total.l2_misses / inputs,
                  total.l3_misses / inputs, total.tlb_misses / inputs);
    } else {
      // Supervisor::Run is a plain JoinRunner::Run when no policy is
      // configured (flags above or environment), so the unsupervised path
      // is unchanged.
      Supervisor supervisor;
      const RunResult result = supervisor.Run(id, r, s, spec);
      run_status = result.status;
      recovery = result.recovery;
      ingest = result.ingest;
      MaybeWriteRunRecord(result, spec,
                          {.bench = "iawj_cli", .workload = workload_name});
      add_row(result.algorithm, 1, result.inputs, result.matches,
              result.throughput_per_ms, result.p95_latency_ms,
              result.progress.TimeToFractionMs(0.5),
              static_cast<double>(result.peak_tracked_bytes) / (1 << 20));
      if (result.spill.any()) {
        // Spilling alone never changes the exit code: the result is exact,
        // memory pressure became disk traffic (see MANUAL "Exit codes").
        std::printf(
            "spilled: %llu/%llu partition(s), %.2f MiB written, "
            "%.2f MiB read, depth %llu, bnl %llu\n",
            static_cast<unsigned long long>(result.spill.partitions_spilled),
            static_cast<unsigned long long>(result.spill.partitions),
            static_cast<double>(result.spill.bytes_written) / (1 << 20),
            static_cast<double>(result.spill.bytes_read) / (1 << 20),
            static_cast<unsigned long long>(result.spill.recursion_depth),
            static_cast<unsigned long long>(result.spill.bnl_fallbacks));
      }
      if (result.pmu.available && result.inputs > 0) {
        const double inputs = static_cast<double>(result.inputs);
        const double cycles =
            static_cast<double>(result.pmu.profile.Total(0));
        const double instructions =
            static_cast<double>(result.pmu.profile.Total(1));
        std::printf("counters[pmu]: cyc/in=%.1f IPC=%.2f L1D/in=%.3f "
                    "LLC/in=%.3f TLBD/in=%.3f BR/in=%.3f\n",
                    cycles / inputs,
                    cycles > 0 ? instructions / cycles : 0,
                    static_cast<double>(result.pmu.profile.Total(2)) / inputs,
                    static_cast<double>(result.pmu.profile.Total(3)) / inputs,
                    static_cast<double>(result.pmu.profile.Total(4)) / inputs,
                    static_cast<double>(result.pmu.profile.Total(5)) / inputs);
      }
    }
  }

  if (ingest.any()) {
    // Ingestion alone never fails a run; dropped-late/duplicate/corrupt
    // tuples surface through the degraded exit code below (bounded loss),
    // while a clean reorder stays exit 0.
    std::printf("ingest: %llu in, %llu out, %llu reordered, %llu late "
                "(%llu admitted, %llu dropped), %llu duplicate, %llu "
                "corrupt, max disorder %llu ms, watermark %llu/%llu ms\n",
                static_cast<unsigned long long>(ingest.tuples_in),
                static_cast<unsigned long long>(ingest.tuples_out),
                static_cast<unsigned long long>(ingest.reordered),
                static_cast<unsigned long long>(ingest.late_total),
                static_cast<unsigned long long>(ingest.late_admitted),
                static_cast<unsigned long long>(ingest.late_dropped),
                static_cast<unsigned long long>(ingest.duplicates),
                static_cast<unsigned long long>(ingest.corrupt),
                static_cast<unsigned long long>(ingest.max_disorder_ms),
                static_cast<unsigned long long>(ingest.final_watermark_ms),
                static_cast<unsigned long long>(ingest.max_ts_ms));
  }
  std::fputs(table.ToText().c_str(), stdout);
  if (!csv_path.empty()) {
    if (const Status status = table.WriteCsv(csv_path); !status.ok()) {
      return Fail(status);
    }
  }
  if (!run_status.ok()) return Fail(run_status);
  if (recovery.degraded()) {
    std::printf("degraded: %llu window(s) skipped, %llu tuple(s) dropped, "
                "%llu shed (est. matches lost: %.1f)\n",
                static_cast<unsigned long long>(recovery.windows_skipped),
                static_cast<unsigned long long>(recovery.tuples_dropped),
                static_cast<unsigned long long>(recovery.tuples_shed),
                recovery.est_matches_lost);
    return 10;
  }
  if (recovery.recovered()) {
    std::printf("recovered: %d attempt(s), %d fallback step(s)\n",
                recovery.attempts, recovery.fallbacks_taken);
    return 9;
  }
  return 0;
}

}  // namespace
}  // namespace iawj

int main(int argc, char** argv) { return iawj::Run(argc, argv); }
