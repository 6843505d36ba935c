#include "src/join/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/affinity.h"
#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/join/eager_engine.h"
#include "src/join/hhj.h"
#include "src/join/npj.h"
#include "src/join/prj.h"
#include "src/join/sortmerge.h"
#include "src/memory/tracker.h"
#include "src/profiling/metrics.h"
#include "src/profiling/phase.h"
#include "src/profiling/pmu.h"
#include "src/profiling/resource.h"
#include "src/profiling/trace.h"

namespace iawj {

MorselStats RunResult::MorselTotals() const {
  MorselStats total;
  for (const MorselStats& s : worker_morsels) total.Add(s);
  return total;
}

double RunResult::WorkNsPerInput() const {
  if (inputs == 0) return 0;
  const uint64_t work = phases.TotalNs() - phases.GetNs(Phase::kWait);
  return static_cast<double>(work) / static_cast<double>(inputs);
}

std::unique_ptr<JoinAlgorithm> CreateAlgorithm(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kNpj:
      return MakeNpj();
    case AlgorithmId::kPrj:
      return MakePrj();
    case AlgorithmId::kMway:
      return MakeMway();
    case AlgorithmId::kMpass:
      return MakeMpass();
    case AlgorithmId::kHhj:
      return MakeHhj();
    default:
      return MakeEager(id);
  }
}

std::unique_ptr<JoinAlgorithm> CreateTracedAlgorithm(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kNpj:
      return MakeNpjTraced();
    case AlgorithmId::kPrj:
      return MakePrjTraced();
    case AlgorithmId::kMway:
      return MakeMwayTraced();
    case AlgorithmId::kMpass:
      return MakeMpassTraced();
    case AlgorithmId::kHhj:
      return MakeHhjTraced();
    default:
      return MakeEagerTraced(id);
  }
}

namespace {

// Number of leading tuples whose timestamp falls inside [0, window_ms).
size_t WindowPrefix(const Stream& stream, uint32_t window_ms) {
  const auto it = std::upper_bound(
      stream.tuples.begin(), stream.tuples.end(), window_ms - 1,
      [](uint32_t w, const Tuple& t) { return w < t.ts; });
  return static_cast<size_t>(it - stream.tuples.begin());
}

}  // namespace

RunResult JoinRunner::Run(AlgorithmId id, const Stream& r, const Stream& s,
                          const JoinSpec& spec) {
  if (Status status = spec.Validate(id); !status.ok()) {
    RunResult result;
    result.algorithm = std::string(AlgorithmName(id));
    result.status = std::move(status);
    return result;
  }
  auto algorithm = CreateAlgorithm(id);
  return RunWith(algorithm.get(), r, s, spec);
}

namespace {

// Deadline for one run: the spec wins, then $IAWJ_DEADLINE_MS, then none.
uint32_t ResolveDeadlineMs(const JoinSpec& spec) {
  if (spec.deadline_ms > 0) return spec.deadline_ms;
  if (const char* env = std::getenv("IAWJ_DEADLINE_MS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<uint32_t>(v);
  }
  return 0;
}

}  // namespace

RunResult JoinRunner::RunWith(JoinAlgorithm* algorithm, const Stream& r,
                              const Stream& s, const JoinSpec& spec,
                              CacheSim* const* cache_sims) {
  const int threads = spec.num_threads;
  RunResult result;
  result.algorithm = std::string(algorithm->name());
  if (threads < 1) {
    result.status = Status::InvalidArgument(
        "num_threads must be >= 1, got " + std::to_string(threads));
    return result;
  }

  mem::Reset();

  // Intra-window join: only tuples of the concerned window participate.
  const size_t nr = WindowPrefix(r, spec.window_ms);
  const size_t ns = WindowPrefix(s, spec.window_ms);

  Clock clock(spec.clock_mode, spec.time_scale);

  JoinContext ctx;
  ctx.r = std::span<const Tuple>(r.tuples.data(), nr);
  ctx.s = std::span<const Tuple>(s.tuples.data(), ns);
  ctx.spec = &spec;
  ctx.clock = &clock;
  ctx.cache_sims = cache_sims;

  // The lazy approach starts once the last tuple of the window has arrived.
  uint32_t last_ts = 0;
  if (nr > 0) last_ts = std::max(last_ts, ctx.r[nr - 1].ts);
  if (ns > 0) last_ts = std::max(last_ts, ctx.s[ns - 1].ts);
  ctx.window_close_ms = static_cast<double>(last_ts);

  std::vector<MatchSink> sinks(threads);
  std::vector<PhaseProfile> profiles(threads);
  // One PMU destination per worker; merged like PhaseProfile after join.
  // Stays untouched (and free) unless PMU is requested AND available.
  std::vector<pmu::PmuProfile> pmu_profiles(threads);
  const bool pmu_requested = pmu::Requested();
  for (auto& sink : sinks) sink.Bind(&clock);
  ctx.sinks = sinks.data();
  ctx.profiles = profiles.data();
  std::barrier<> barrier(threads);
  ctx.barrier = &barrier;

  // Per-run morsel scheduler: resolves spec/$IAWJ_SCHEDULER to the executed
  // mode and $IAWJ_MORSEL_SIZE to the morsel size, discovers NUMA placement,
  // and owns the per-worker claim/steal counters. Algorithms size their
  // phases against it in Setup, so it must exist before Setup runs.
  MorselScheduler scheduler(threads, spec.scheduler, spec.morsel_size);
  ctx.scheduler = &scheduler;
  result.scheduler_resolved = scheduler.mode();
  result.morsel_size = scheduler.morsel_size();
  result.numa_nodes = scheduler.num_nodes();

  // Resolve the kernel plan once, narrowed to the sites this algorithm has;
  // the algorithms read it from the context, so the run record's v8
  // `kernels` block names the variants that ran — tracer forcing and the
  // AVX2 runtime dispatch included. Traced runs are the ones given
  // simulators.
  ctx.kernels =
      ResolveKernelPlan(spec.kernels, /*tracer_enabled=*/cache_sims != nullptr)
          .For(algorithm->kernel_sites(spec));
  const KernelPlan& kernel_plan = ctx.kernels;
  result.kernels_resolved = kernel_plan.mode;
  result.kernel_scatter = std::string(KernelScatterVariant(kernel_plan));
  result.kernel_build = std::string(KernelBuildVariant(kernel_plan));
  result.kernel_probe = std::string(KernelProbeVariant(kernel_plan));

  // Run-wide cancellation: the deadline watchdog, memory-budget breaches
  // (via the tracker's breach token) and injected faults all funnel into one
  // token; workers unwind at their next checkpoint. First cancel wins.
  CancelToken cancel;
  ctx.cancel = &cancel;
  mem::SetBreachToken(&cancel);
  const uint32_t deadline_ms = ResolveDeadlineMs(spec);

  // Observability: when tracing is enabled, every worker gets a named
  // per-thread recorder and the whole run is bracketed by one span on the
  // orchestrating thread. Interned once here so worker hot paths only touch
  // thread-local buffers.
  static std::atomic<uint64_t> run_counter{0};
  const bool tracing = trace::Enabled();
  const char* run_label = nullptr;
  if (tracing) {
    run_label = trace::Intern(std::string(algorithm->name()) + " run " +
                              std::to_string(++run_counter));
  }
  trace::ScopedThreadTrace orchestrator_trace("orchestrator");
  if (tracing) trace::BeginSpan(run_label);

  // Fallible Setup: bulk allocations preflight against the memory budget, so
  // a doomed run fails here instead of after the window wait.
  Status setup_status = algorithm->Setup(ctx);
  if (setup_status.ok() && cancel.cancelled()) setup_status = cancel.reason();
  if (!setup_status.ok()) {
    algorithm->Teardown();
    mem::SetBreachToken(nullptr);
    result.status = std::move(setup_status);
    result.inputs = nr + ns;
    result.peak_tracked_bytes = mem::PeakBytes();
    if (tracing && trace::Active()) trace::EndSpan();
    return result;
  }

  const double cpu_before = ResourceSampler::ProcessCpuTimeMs();
  clock.Start();

  // Per-worker completion flags let the watchdog name the stragglers.
  auto done = std::make_unique<std::atomic<bool>[]>(threads);
  for (int t = 0; t < threads; ++t) {
    done[t].store(false, std::memory_order_relaxed);
  }

  // Deadline watchdog: sleeps until the run finishes or the deadline lapses,
  // then cancels so every worker unwinds at its next checkpoint. The token
  // keeps the first cancellation, so a budget breach racing the deadline
  // reports whichever struck first.
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool run_finished = false;
  std::thread watchdog;
  if (deadline_ms > 0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(watchdog_mu);
      const bool finished =
          watchdog_cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                               [&] { return run_finished; });
      if (finished) return;
      // Collect the stragglers BEFORE cancelling: if every worker already
      // finished, the run beat the deadline and must not be failed
      // retroactively — the emitted run record always reflects the final
      // status, and a deadline_exceeded status always names at least one
      // unfinished worker, exactly once.
      std::string stragglers;
      for (int t = 0; t < threads; ++t) {
        if (!done[t].load(std::memory_order_acquire)) {
          stragglers += " w" + std::to_string(t);
        }
      }
      if (stragglers.empty()) return;
      cancel.Cancel(Status::DeadlineExceeded(
          "run exceeded deadline of " + std::to_string(deadline_ms) +
          " ms; unfinished workers:" + stragglers));
    });
  }

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    // Evaluated here, on the orchestrating thread, so "worker_stall:2"
    // deterministically wedges the second spawned worker rather than
    // whichever thread reaches the fault site first.
    const bool stall = fault::Enabled() && fault::Inject("worker_stall");
    workers.emplace_back([&, t, stall] {
      int pinned_core = -1;
      if (spec.pin_threads && PinCurrentThreadToCore(t)) {
        pinned_core = ResolvePinnedCore(t);
      }
      trace::ScopedThreadTrace worker_trace(
          tracing ? std::string(algorithm->name()) + " w" + std::to_string(t)
                  : std::string(),
          pinned_core);
      // Opens this worker's perf event group (no-op when PMU is off or the
      // kernel refuses); phase hooks in ScopedPhase/PhaseStopwatch attribute
      // counter deltas to phases from here on.
      pmu::ScopedThreadPmu worker_pmu(&pmu_profiles[t]);
      if (tracing) trace::BeginSpan(run_label);
      if (stall) {
        // Fault: this worker wedges before doing any work — the shape of a
        // crashed or livelocked thread. Only cancellation (normally the
        // deadline watchdog) releases it; it then drops its barrier slot so
        // lazy peers blocked on a phase barrier unwind too.
        while (!cancel.cancelled()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        ctx.AbortRequested();
      } else {
        algorithm->RunWorker(ctx, t);
      }
      done[t].store(true, std::memory_order_release);
      // Final PMU snapshot now, so the per-worker totals below see it and
      // the trailing delta is attributed before the trace row closes.
      const bool pmu_measured = worker_pmu.installed();
      worker_pmu.Finish();
      if (tracing && pmu_measured) {
        const auto& events = pmu::Events();
        for (int e = 0; e < static_cast<int>(events.size()); ++e) {
          trace::Counter(
              trace::Intern("worker_pmu_" + events[e].name),
              static_cast<double>(pmu_profiles[t].Total(e)));
        }
      }
      if (tracing && scheduler.enabled()) {
        // Per-thread scheduling counters land in this worker's trace row so
        // the timeline shows who executed and who stole.
        const MorselStats& ms = scheduler.stats(t);
        trace::Counter("worker_morsels", static_cast<double>(ms.morsels));
        trace::Counter("worker_steals", static_cast<double>(ms.steals));
        trace::Counter("worker_steal_misses",
                       static_cast<double>(ms.steal_misses));
      }
      if (tracing) trace::EndSpan();
    });
  }
  for (auto& w : workers) w.join();

  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu);
      run_finished = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  mem::SetBreachToken(nullptr);
  result.status = cancel.cancelled() ? cancel.reason() : Status::Ok();

  result.elapsed_ms = clock.NowMs();
  result.cpu_time_ms = ResourceSampler::ProcessCpuTimeMs() - cpu_before;
  result.inputs = nr + ns;

  // Harvest spill accounting before Teardown frees it (the spill directory
  // itself is removed by Teardown).
  if (const SpillStats* sp = algorithm->spill_stats()) result.spill = *sp;

  algorithm->Teardown();

  for (int t = 0; t < threads; ++t) {
    result.matches += sinks[t].count();
    result.checksum += sinks[t].checksum();
    result.last_match_ms = std::max(result.last_match_ms,
                                    sinks[t].last_match_ms());
    result.progress.Merge(sinks[t].progress());
    result.latency.Merge(sinks[t].latency());
    result.phases.Merge(profiles[t]);
  }
  const double denominator =
      result.matches > 0 ? result.last_match_ms : result.elapsed_ms;
  if (denominator > 0) {
    result.throughput_per_ms =
        static_cast<double>(result.inputs) / denominator;
  }
  result.p95_latency_ms = result.latency.QuantileMs(0.95);
  result.mean_latency_ms = result.latency.MeanMs();
  result.peak_tracked_bytes = mem::PeakBytes();
  if (scheduler.enabled()) {
    result.worker_morsels.reserve(threads);
    result.worker_nodes.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      result.worker_morsels.push_back(scheduler.stats(t));
      result.worker_nodes.push_back(scheduler.node_of(t));
    }
  }

  // PMU report: merged per-worker profiles when measured, otherwise the
  // reason nothing was (not requested, or the kernel refused the probe).
  result.pmu.requested = pmu_requested;
  if (!pmu_requested) {
    result.pmu.available = false;
    result.pmu.reason = "not requested (IAWJ_PMU unset)";
  } else {
    const pmu::Availability& avail = pmu::Probe();
    result.pmu.available = avail.available;
    result.pmu.reason = avail.reason;
    if (avail.available) {
      for (const pmu::EventDef& event : pmu::Events()) {
        result.pmu.events.push_back(event.name);
      }
      for (int t = 0; t < threads; ++t) {
        result.pmu.profile.Merge(pmu_profiles[t]);
      }
    }
  }

  // Live metrics feed (profiling/metrics.h): one relaxed load each when
  // $IAWJ_METRICS_DIR is unset. Registered once per process; per-run cost
  // is a handful of sharded adds.
  if (metrics::Enabled()) {
    static metrics::Counter* runs_total = metrics::GetCounter("runs.total");
    static metrics::Counter* runs_failed = metrics::GetCounter("runs.failed");
    static metrics::Counter* inputs_total =
        metrics::GetCounter("runs.inputs_total");
    static metrics::Counter* matches_total =
        metrics::GetCounter("runs.matches_total");
    static metrics::Counter* morsels_total =
        metrics::GetCounter("scheduler.morsels_total");
    static metrics::Counter* steals_total =
        metrics::GetCounter("scheduler.steals_total");
    static metrics::Counter* steal_misses_total =
        metrics::GetCounter("scheduler.steal_misses_total");
    static metrics::Histogram* elapsed_ms =
        metrics::GetHistogram("run.elapsed_ms");
    if (runs_total != nullptr) runs_total->Add();
    if (runs_failed != nullptr && !result.status.ok()) runs_failed->Add();
    if (inputs_total != nullptr) inputs_total->Add(result.inputs);
    if (matches_total != nullptr) matches_total->Add(result.matches);
    if (scheduler.enabled()) {
      const MorselStats totals = scheduler.Totals();
      if (morsels_total != nullptr) morsels_total->Add(totals.morsels);
      if (steals_total != nullptr) steals_total->Add(totals.steals);
      if (steal_misses_total != nullptr) {
        steal_misses_total->Add(totals.steal_misses);
      }
    }
    if (elapsed_ms != nullptr) elapsed_ms->Record(result.elapsed_ms);
    if (result.spill.any()) {
      static metrics::Counter* spilled_parts =
          metrics::GetCounter("spill.partitions_total");
      static metrics::Counter* spill_written =
          metrics::GetCounter("spill.bytes_written_total");
      static metrics::Counter* spill_read =
          metrics::GetCounter("spill.bytes_read_total");
      if (spilled_parts != nullptr) {
        spilled_parts->Add(result.spill.partitions_spilled);
      }
      if (spill_written != nullptr) {
        spill_written->Add(result.spill.bytes_written);
      }
      if (spill_read != nullptr) spill_read->Add(result.spill.bytes_read);
    }
    if (result.pmu.available) {
      const auto& events = result.pmu.events;
      for (int e = 0; e < static_cast<int>(events.size()); ++e) {
        if (metrics::Counter* c = metrics::GetCounter("pmu." + events[e])) {
          c->Add(result.pmu.profile.Total(e));
        }
      }
    }
    // Kernel-variant adoption: runs that executed each non-scalar variant,
    // so a fleet dashboard can see whether simd/lockfree actually engaged
    // (the runtime dispatch can quietly fall back on non-AVX2 hosts).
    static metrics::Counter* swwc_runs =
        metrics::GetCounter("kernels.swwc_scatter_runs");
    static metrics::Counter* batched_probe_runs =
        metrics::GetCounter("kernels.batched_probe_runs");
    static metrics::Counter* simd_probe_runs =
        metrics::GetCounter("kernels.simd_probe_runs");
    static metrics::Counter* lockfree_build_runs =
        metrics::GetCounter("kernels.lockfree_build_runs");
    if (swwc_runs != nullptr && kernel_plan.swwc_scatter) swwc_runs->Add();
    if (batched_probe_runs != nullptr && kernel_plan.batched_probe) {
      batched_probe_runs->Add();
    }
    if (simd_probe_runs != nullptr && kernel_plan.simd_probe) {
      simd_probe_runs->Add();
    }
    if (lockfree_build_runs != nullptr && kernel_plan.lockfree_build) {
      lockfree_build_runs->Add();
    }
  }
  if (tracing && trace::Active()) {
    trace::Counter("matches", static_cast<double>(result.matches));
    trace::Counter("peak_tracked_bytes",
                   static_cast<double>(result.peak_tracked_bytes));
    // Mirror the run record's v8 kernels mode into the trace so a span can
    // be attributed to the plan that produced it (the KernelMode enum
    // ordinal: 0 = auto, 1 = scalar).
    trace::Counter("kernel_mode",
                   static_cast<double>(result.kernels_resolved));
    if (result.spill.any()) {
      trace::Counter("spill_partitions",
                     static_cast<double>(result.spill.partitions_spilled));
      trace::Counter("spill_bytes_written",
                     static_cast<double>(result.spill.bytes_written));
      trace::Counter("spill_bytes_read",
                     static_cast<double>(result.spill.bytes_read));
    }
    if (scheduler.enabled()) {
      const MorselStats totals = scheduler.Totals();
      trace::Counter("morsels", static_cast<double>(totals.morsels));
      trace::Counter("steals", static_cast<double>(totals.steals));
      trace::Counter("steal_misses",
                     static_cast<double>(totals.steal_misses));
      trace::Counter("remote_steals",
                     static_cast<double>(totals.remote_steals));
    }
    trace::EndSpan();  // run_label
  }
  return result;
}

}  // namespace iawj
