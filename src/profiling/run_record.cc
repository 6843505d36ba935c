#include "src/profiling/run_record.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <mutex>

#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/profiling/metrics.h"

namespace iawj {

namespace {

std::string UtcTimestamp(bool compact) {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf),
                compact ? "%Y%m%dT%H%M%S" : "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '-' || ch == '_';
    out += ok ? ch : '_';
  }
  return out.empty() ? std::string("run") : out;
}

const char* ClockModeName(Clock::Mode mode) {
  return mode == Clock::Mode::kRealTime ? "realtime" : "instant";
}

const char* HashTableKindName(HashTableKind kind) {
  return kind == HashTableKind::kLinearProbe ? "linear_probe" : "bucket_chain";
}

}  // namespace

std::string GitDescribeStamp() {
  static std::once_flag once;
  static std::string stamp;
  std::call_once(once, [] {
    stamp = "unknown";
    std::FILE* pipe =
        popen("git describe --always --dirty --tags 2>/dev/null", "r");
    if (pipe == nullptr) return;
    char buf[128];
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    const int rc = pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (rc == 0 && !out.empty()) stamp = out;
  });
  return stamp;
}

std::string RunRecordJson(const RunResult& result, const JoinSpec& spec,
                          const RunRecordContext& context) {
  json::Writer w;
  w.BeginObject();
  // v2: adds status/status_code/status_message (failed runs are recorded
  // too, carrying whatever partial metrics the workers produced).
  // v3: adds the `recovery` block (supervised retries, fallbacks, skipped
  // windows, shed load) whenever the run was supervised; unsupervised runs
  // omit the block entirely.
  // v4: adds spec.scheduler / spec.scheduler_resolved / spec.morsel_size and
  // the `scheduler` block (per-worker morsel/steal counters) for morsel
  // runs; static runs omit the block.
  // v5: adds the always-present `pmu` block (hardware counter deltas per
  // phase when measured; {available: false, reason} otherwise) and the
  // always-present `metrics` block (live registry snapshot, or
  // {enabled: false}).
  // v6: adds the `spill` block (partition residency split, run-file bytes
  // and pages, recursion depth, BNL fallbacks, spill wall time) whenever
  // the run staged partitions on disk; in-memory runs omit the block.
  // v7: adds spec.disorder_slack_ms / spec.allowed_lateness_ms /
  // spec.ingest_dedup and the `ingest` block (disposition counts, max
  // observed disorder, final watermark) whenever the run's inputs went
  // through the disorder-tolerant ingestion layer (stream/disorder.h);
  // runs without an ingest policy omit the block.
  // v8: adds the always-present `kernels` block naming the resolved kernel
  // mode and the variant each hot-path phase actually executed (scatter:
  // scalar|swwc, build: scalar|lockfree, probe: scalar|batched|simd) —
  // after tracer forcing and the AVX2 runtime dispatch, so A/B tooling sees
  // what ran, not what was asked for.
  // v9: adds the `serve` block (tenant, window slot, pool placement, queue
  // wait, cross-tenant steal and shed totals) whenever the run executed
  // inside the iawj_serve daemon (src/serve/); offline runs omit the block.
  w.Field("record_version", int64_t{9});
  w.Field("timestamp_utc", UtcTimestamp(/*compact=*/false));
  w.Field("git_describe", GitDescribeStamp());
  w.Field("pid", int64_t{getpid()});

  w.Field("status", result.status.ok() ? "ok" : "failed");
  if (!result.status.ok()) {
    w.Field("status_code", std::string(StatusCodeName(result.status.code())));
    w.Field("status_message", std::string(result.status.message()));
  }

  w.Field("algorithm", result.algorithm);
  if (!context.bench.empty()) w.Field("bench", context.bench);
  if (!context.workload.empty()) w.Field("workload", context.workload);
  if (context.workload_scale > 0) {
    w.Field("workload_scale", context.workload_scale);
  }

  w.Key("spec").BeginObject();
  w.Field("num_threads", int64_t{spec.num_threads});
  w.Field("window_ms", uint64_t{spec.window_ms});
  w.Field("clock_mode", ClockModeName(spec.clock_mode));
  w.Field("time_scale", spec.time_scale);
  w.Field("radix_bits", int64_t{spec.radix_bits});
  w.Field("radix_passes", int64_t{spec.radix_passes});
  w.Field("pmj_delta", spec.pmj_delta);
  w.Field("jb_group_size", int64_t{spec.jb_group_size});
  w.Field("eager_physical_partition", spec.eager_physical_partition);
  w.Field("use_simd", spec.use_simd);
  w.Field("pin_threads", spec.pin_threads);
  w.Field("hash_table_kind", HashTableKindName(spec.hash_table_kind));
  w.Field("kernels", KernelModeName(spec.kernels));
  // The mode the run asked for after the environment: `kernels` is the
  // spec knob as given, resolved here against $IAWJ_KERNELS so A/B tooling
  // can key on it without replicating the resolution rules.
  w.Field("kernels_resolved",
          KernelModeName(ResolveKernelMode(spec.kernels)));
  // Same spec-knob / resolved-mode split as the kernels pair: `scheduler`
  // is the knob as given, `scheduler_resolved` what the run executed.
  w.Field("scheduler", std::string(SchedulerModeName(spec.scheduler)));
  w.Field("scheduler_resolved",
          std::string(SchedulerModeName(result.scheduler_resolved)));
  w.Field("morsel_size", uint64_t{result.morsel_size});
  w.Field("disorder_slack_ms", spec.disorder_slack_ms);
  w.Field("allowed_lateness_ms", spec.allowed_lateness_ms);
  w.Field("ingest_dedup", spec.ingest_dedup);
  w.EndObject();

  w.Field("inputs", uint64_t{result.inputs});
  w.Field("matches", uint64_t{result.matches});
  w.Field("checksum", uint64_t{result.checksum});
  w.Field("throughput_per_ms", result.throughput_per_ms);
  w.Field("p95_latency_ms", result.p95_latency_ms);
  w.Field("mean_latency_ms", result.mean_latency_ms);
  w.Field("last_match_ms", result.last_match_ms);
  w.Field("elapsed_ms", result.elapsed_ms);
  w.Field("cpu_time_ms", result.cpu_time_ms);
  w.Field("work_ns_per_input", result.WorkNsPerInput());
  w.Field("t50_ms", result.progress.TimeToFractionMs(0.5));
  w.Field("peak_tracked_bytes", int64_t{result.peak_tracked_bytes});

  // v3: present only for supervised runs (attempts >= 1) or when something
  // was shed/skipped — an unsupervised clean run carries no recovery block,
  // so old consumers see byte-identical shape modulo record_version.
  if (!result.recovery.empty() || result.recovery.attempts > 0) {
    const RecoveryLog& rec = result.recovery;
    w.Key("recovery").BeginObject();
    w.Field("attempts", int64_t{rec.attempts});
    w.Field("fallbacks_taken", int64_t{rec.fallbacks_taken});
    w.Field("windows_skipped", uint64_t{rec.windows_skipped});
    w.Field("tuples_dropped", uint64_t{rec.tuples_dropped});
    w.Field("est_matches_lost", rec.est_matches_lost);
    w.Field("tuples_shed", uint64_t{rec.tuples_shed});
    w.Field("shed_ratio", rec.shed_ratio);
    w.Field("recovered", rec.recovered());
    w.Field("degraded", rec.degraded());
    w.Key("events").BeginArray();
    for (const RecoveryEvent& e : rec.events) {
      w.BeginObject();
      w.Field("action", std::string(RecoveryActionName(e.action)));
      w.Field("trigger", std::string(StatusCodeName(e.trigger)));
      w.Field("attempt", int64_t{e.attempt});
      if (!e.detail.empty()) w.Field("detail", e.detail);
      if (e.backoff_ms > 0) w.Field("backoff_ms", e.backoff_ms);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  // v4: present only for morsel-scheduled runs — the static baseline has no
  // counters to report and keeps its pre-v4 shape modulo record_version.
  if (result.scheduler_resolved == SchedulerMode::kMorsel &&
      !result.worker_morsels.empty()) {
    const MorselStats totals = result.MorselTotals();
    w.Key("scheduler").BeginObject();
    w.Field("mode",
            std::string(SchedulerModeName(result.scheduler_resolved)));
    w.Field("morsel_size", uint64_t{result.morsel_size});
    w.Field("numa_nodes", int64_t{result.numa_nodes});
    w.Field("morsels", uint64_t{totals.morsels});
    w.Field("tuples", uint64_t{totals.tuples});
    w.Field("steals", uint64_t{totals.steals});
    w.Field("steal_misses", uint64_t{totals.steal_misses});
    w.Field("remote_steals", uint64_t{totals.remote_steals});
    w.Key("workers").BeginArray();
    for (size_t t = 0; t < result.worker_morsels.size(); ++t) {
      const MorselStats& st = result.worker_morsels[t];
      w.BeginObject();
      w.Field("worker", static_cast<int64_t>(t));
      w.Field("node", int64_t{result.worker_nodes[t]});
      w.Field("morsels", uint64_t{st.morsels});
      w.Field("tuples", uint64_t{st.tuples});
      w.Field("steals", uint64_t{st.steals});
      w.Field("steal_misses", uint64_t{st.steal_misses});
      w.Field("remote_steals", uint64_t{st.remote_steals});
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  // v8: always present — every run executes some kernel plan, scalar
  // included, and naming it unconditionally is what lets A/B tooling split
  // result sets without consulting the resolution rules.
  w.Key("kernels").BeginObject();
  w.Field("mode", KernelModeName(result.kernels_resolved));
  w.Field("scatter", result.kernel_scatter);
  w.Field("build", result.kernel_build);
  w.Field("probe", result.kernel_probe);
  w.EndObject();

  // v6: present only when the algorithm spilled partitions to disk (HHJ
  // under a memory budget) — in-memory runs keep their pre-v6 shape modulo
  // record_version. A run that spilled and still reports status "ok" was
  // exact: spilling degrades time, never the answer.
  if (result.spill.any()) {
    const SpillStats& sp = result.spill;
    w.Key("spill").BeginObject();
    w.Field("partitions", uint64_t{sp.partitions});
    w.Field("partitions_spilled", uint64_t{sp.partitions_spilled});
    w.Field("partitions_resident", uint64_t{sp.partitions_resident});
    w.Field("bytes_written", uint64_t{sp.bytes_written});
    w.Field("bytes_read", uint64_t{sp.bytes_read});
    w.Field("pages_written", uint64_t{sp.pages_written});
    w.Field("pages_read", uint64_t{sp.pages_read});
    w.Field("recursion_depth", uint64_t{sp.recursion_depth});
    w.Field("bnl_fallbacks", uint64_t{sp.bnl_fallbacks});
    w.Field("spill_elapsed_ms", sp.spill_elapsed_ms);
    w.EndObject();
  }

  // v7: present only when the inputs went through the ingest layer — runs
  // without a configured policy keep their pre-v7 shape modulo
  // record_version, honoring the zero-overhead contract. Dispositions obey
  // tuples_out + late_dropped + duplicates + corrupt == tuples_in.
  if (result.ingest.any()) {
    const IngestStats& in = result.ingest;
    w.Key("ingest").BeginObject();
    w.Field("tuples_in", uint64_t{in.tuples_in});
    w.Field("tuples_out", uint64_t{in.tuples_out});
    w.Field("reordered", uint64_t{in.reordered});
    w.Field("late_total", uint64_t{in.late_total});
    w.Field("late_admitted", uint64_t{in.late_admitted});
    w.Field("late_dropped", uint64_t{in.late_dropped});
    w.Field("duplicates", uint64_t{in.duplicates});
    w.Field("corrupt", uint64_t{in.corrupt});
    w.Field("watermark_clamps", uint64_t{in.watermark_clamps});
    w.Field("max_disorder_ms", uint64_t{in.max_disorder_ms});
    w.Field("max_ts_ms", uint64_t{in.max_ts_ms});
    w.Field("final_watermark_ms", uint64_t{in.final_watermark_ms});
    w.EndObject();
  }

  // v9: present only for windows the iawj_serve daemon executed — offline
  // runs keep their pre-v9 shape modulo record_version. Placement fields
  // (worker, stolen, wait_ms) attribute multi-tenant interference; the
  // steal/shed totals are daemon-lifetime counters sampled at completion,
  // so deltas between consecutive records of one tenant are meaningful.
  if (context.serve.active) {
    const ServeRecordInfo& sv = context.serve;
    w.Key("serve").BeginObject();
    w.Field("tenant", sv.tenant);
    w.Field("window_index", uint64_t{sv.window_index});
    w.Field("window_start_ms", uint64_t{sv.window_start_ms});
    w.Field("tenants_active", int64_t{sv.tenants_active});
    w.Field("queue_depth", uint64_t{sv.queue_depth});
    w.Field("cross_tenant_steals", uint64_t{sv.cross_tenant_steals});
    w.Field("windows_shed", uint64_t{sv.windows_shed});
    w.Field("wait_ms", sv.wait_ms);
    w.Field("worker", int64_t{sv.worker});
    w.Field("stolen", sv.stolen);
    w.EndObject();
  }

  w.Key("phase_ns").BeginObject();
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    w.Key(PhaseName(phase)).Uint(result.phases.GetNs(phase));
  }
  w.EndObject();

  // v5: always present. `available` leads the block — downstream greps key
  // on the literal prefix `"pmu": {"available": ...`. When measured, totals
  // are the per-event sums over phases, so any per-phase delta is <= its
  // total by construction (iawj_trace_check --records asserts this).
  w.Key("pmu").BeginObject();
  w.Field("available", result.pmu.available);
  w.Field("requested", result.pmu.requested);
  if (!result.pmu.available) {
    w.Field("reason", result.pmu.reason);
  } else {
    const int num_events = static_cast<int>(result.pmu.events.size());
    w.Key("events").BeginArray();
    for (const std::string& name : result.pmu.events) w.String(name);
    w.EndArray();
    w.Key("totals").BeginObject();
    for (int e = 0; e < num_events; ++e) {
      w.Key(result.pmu.events[e]).Uint(result.pmu.profile.Total(e));
    }
    w.EndObject();
    w.Key("per_input").BeginObject();
    for (int e = 0; e < num_events; ++e) {
      const double per_input =
          result.inputs > 0
              ? static_cast<double>(result.pmu.profile.Total(e)) /
                    static_cast<double>(result.inputs)
              : 0;
      w.Key(result.pmu.events[e]).Double(per_input);
    }
    w.EndObject();
    const uint64_t cycles = result.pmu.profile.Total(0);
    const uint64_t instructions = result.pmu.profile.Total(1);
    w.Field("ipc", cycles > 0 ? static_cast<double>(instructions) /
                                    static_cast<double>(cycles)
                              : 0.0);
    w.Key("phases").BeginObject();
    for (int p = 0; p < kNumPhases; ++p) {
      const Phase phase = static_cast<Phase>(p);
      w.Key(PhaseName(phase)).BeginObject();
      for (int e = 0; e < num_events; ++e) {
        w.Key(result.pmu.events[e]).Uint(result.pmu.profile.Get(p, e));
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();

  // v5: always present — a snapshot of the live metrics registry, or
  // {enabled: false} when $IAWJ_METRICS_DIR is unset and nothing forced it.
  w.Key("metrics");
  metrics::WriteJson(&w);

  w.EndObject();
  return w.str();
}

Status WriteRunRecord(const RunResult& result, const JoinSpec& spec,
                      const RunRecordContext& context, const std::string& dir,
                      std::string* path_out) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty run-record directory");
  }
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::FailedPrecondition("cannot create directory " + dir);
  }
  static std::atomic<uint64_t> sequence{0};
  const uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed);
  const std::string path = dir + "/run_" + UtcTimestamp(/*compact=*/true) +
                           "_" + std::to_string(getpid()) + "_" +
                           std::to_string(seq) + "_" +
                           SanitizeForFilename(result.algorithm) + ".json";
  std::ofstream out(path);
  if (!out) {
    return Status::FailedPrecondition("cannot open " + path + " for writing");
  }
  const std::string json = RunRecordJson(result, spec, context);
  // Fault: the writer dies mid-write, leaving a torn half-record on disk —
  // the crash-consistency shape iawj_trace_check --records must reject
  // with a parse error instead of crashing or accepting.
  if (fault::Enabled() && fault::Inject("record_truncate")) {
    out << json.substr(0, json.size() / 2);
    out.flush();
    if (path_out != nullptr) *path_out = path;  // the torn file is on disk
    return Status::DataLoss("injected mid-write crash on " + path);
  }
  out << json << "\n";
  if (!out.good()) {
    return Status::FailedPrecondition("write to " + path + " failed");
  }
  if (path_out != nullptr) *path_out = path;
  return Status::Ok();
}

bool MaybeWriteRunRecord(const RunResult& result, const JoinSpec& spec,
                         const RunRecordContext& context) {
  const char* dir = std::getenv("IAWJ_METRICS_DIR");
  if (dir == nullptr || dir[0] == '\0') return false;
  const Status status = WriteRunRecord(result, spec, context, dir);
  if (!status.ok()) {
    IAWJ_LOG(Warning) << "run-record emission failed: " << status.ToString();
    return false;
  }
  return true;
}

}  // namespace iawj
