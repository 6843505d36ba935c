// Tests for the structured run-record exporter: JSON shape, field coverage,
// env-var gating, and on-disk emission.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/datagen/micro.h"
#include "src/hash/simd_probe.h"
#include "src/profiling/run_record.h"

namespace iawj {
namespace {

RunResult SmallRun(JoinSpec* spec_out) {
  MicroSpec mspec;
  mspec.rate_r = 50;
  mspec.rate_s = 50;
  mspec.window_ms = 100;
  MicroWorkload workload = GenerateMicro(mspec);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  spec.clock_mode = Clock::Mode::kInstant;
  *spec_out = spec;
  JoinRunner runner;
  return runner.Run(AlgorithmId::kNpj, workload.r, workload.s, spec);
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> entries;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return entries;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") entries.push_back(name);
  }
  closedir(d);
  return entries;
}

TEST(RunRecord, JsonCarriesEveryListedField) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  RunRecordContext context;
  context.bench = "run_record_test";
  context.workload = "micro";
  context.workload_scale = 0.5;
  const std::string text = RunRecordJson(result, spec, context);

  json::Value record;
  ASSERT_TRUE(json::Parse(text, &record).ok()) << text;
  ASSERT_TRUE(record.is_object());

  // Identity and provenance.
  EXPECT_EQ(record.Find("algorithm")->string, "NPJ");
  EXPECT_EQ(record.Find("bench")->string, "run_record_test");
  EXPECT_EQ(record.Find("workload")->string, "micro");
  EXPECT_DOUBLE_EQ(record.Find("workload_scale")->number, 0.5);
  EXPECT_FALSE(record.Find("git_describe")->string.empty());
  const std::string& ts = record.Find("timestamp_utc")->string;
  EXPECT_EQ(ts.size(), 20u);  // 2026-08-05T12:34:56Z
  EXPECT_EQ(ts.back(), 'Z');
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');

  // Spec snapshot.
  const json::Value* spec_obj = record.Find("spec");
  ASSERT_NE(spec_obj, nullptr);
  EXPECT_DOUBLE_EQ(spec_obj->Find("num_threads")->number, 2);
  EXPECT_DOUBLE_EQ(spec_obj->Find("window_ms")->number, 100);
  EXPECT_EQ(spec_obj->Find("clock_mode")->string, "instant");
  EXPECT_EQ(spec_obj->Find("hash_table_kind")->string, "bucket_chain");
  EXPECT_NE(spec_obj->Find("radix_bits"), nullptr);
  EXPECT_NE(spec_obj->Find("pmj_delta"), nullptr);
  EXPECT_NE(spec_obj->Find("use_simd"), nullptr);

  // Metrics.
  EXPECT_DOUBLE_EQ(record.Find("inputs")->number,
                   static_cast<double>(result.inputs));
  EXPECT_DOUBLE_EQ(record.Find("matches")->number,
                   static_cast<double>(result.matches));
  EXPECT_GT(record.Find("matches")->number, 0);
  EXPECT_NE(record.Find("checksum"), nullptr);
  EXPECT_GT(record.Find("throughput_per_ms")->number, 0);
  EXPECT_NE(record.Find("p95_latency_ms"), nullptr);
  EXPECT_NE(record.Find("mean_latency_ms"), nullptr);
  EXPECT_NE(record.Find("work_ns_per_input"), nullptr);
  EXPECT_GE(record.Find("peak_tracked_bytes")->number, 0);

  // Phase breakdown covers all seven phases.
  const json::Value* phases = record.Find("phase_ns");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->object.size(), static_cast<size_t>(kNumPhases));
  for (const char* phase :
       {"wait", "partition", "build", "sort", "merge", "probe", "others"}) {
    EXPECT_NE(phases->Find(phase), nullptr) << phase;
  }
  double phase_total = 0;
  for (const auto& [name, value] : phases->object) {
    phase_total += value.number;
  }
  EXPECT_GT(phase_total, 0);
}

TEST(RunRecord, VersionIsNineWithoutOptionalBlocksForPlainRuns) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  EXPECT_DOUBLE_EQ(record.Find("record_version")->number, 9);
  // Unsupervised static in-memory runs carry none of the optional blocks.
  EXPECT_EQ(record.Find("recovery"), nullptr);
  EXPECT_EQ(record.Find("scheduler"), nullptr);
  EXPECT_EQ(record.Find("spill"), nullptr);
  EXPECT_EQ(record.Find("ingest"), nullptr);
  EXPECT_EQ(record.Find("serve"), nullptr);
  // v8: the kernels block is always present — every run resolves a plan.
  // The default spec resolves to auto, and the block names what NPJ ran:
  // the lock-free build of its shared table and the batched probe of its
  // chains, with no scatter.
  const json::Value* kernels = record.Find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_TRUE(kernels->is_object());
  EXPECT_EQ(kernels->Find("mode")->string, "auto");
  EXPECT_EQ(kernels->Find("scatter")->string, "scalar");
  EXPECT_EQ(kernels->Find("build")->string, "lockfree");
  EXPECT_EQ(kernels->Find("probe")->string, "batched");
}

TEST(RunRecord, KernelsBlockNamesTheResolvedVariantPerPhase) {
  JoinSpec spec;
  RunResult result = SmallRun(&spec);
  result.kernels_resolved = KernelMode::kAuto;
  result.kernel_scatter = "swwc";
  result.kernel_build = "scalar";
  result.kernel_probe = "simd";

  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  const json::Value* kernels = record.Find("kernels");
  ASSERT_NE(kernels, nullptr);
  EXPECT_EQ(kernels->Find("mode")->string, "auto");
  EXPECT_EQ(kernels->Find("scatter")->string, "swwc");
  EXPECT_EQ(kernels->Find("build")->string, "scalar");
  EXPECT_EQ(kernels->Find("probe")->string, "simd");

  result.kernels_resolved = KernelMode::kScalar;
  result.kernel_scatter = "scalar";
  result.kernel_probe = "scalar";
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  EXPECT_EQ(record.Find("kernels")->Find("mode")->string, "scalar");
  EXPECT_EQ(record.Find("kernels")->Find("scatter")->string, "scalar");
  EXPECT_EQ(record.Find("kernels")->Find("probe")->string, "scalar");
}

// The block names what each algorithm ran, not the whole plan: PRJ builds
// partition-private tables (never the lock-free shared one) and probes
// bucket chains unless asked for linear probing, where the AVX2 probe
// runs when the host has it.
TEST(RunRecord, KernelsBlockNamesOnlyTheVariantsTheAlgorithmRan) {
  MicroSpec mspec;
  mspec.rate_r = 50;
  mspec.rate_s = 50;
  mspec.window_ms = 100;
  const MicroWorkload workload = GenerateMicro(mspec);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  spec.clock_mode = Clock::Mode::kInstant;
  const auto kernels_of = [&](AlgorithmId id) {
    JoinRunner runner;
    const RunResult result = runner.Run(id, workload.r, workload.s, spec);
    json::Value record;
    EXPECT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
    return record.Find("kernels")->object;
  };
  const std::string linear_probe =
      kernels::SimdProbeSupported() ? "simd" : "batched";

  auto prj = kernels_of(AlgorithmId::kPrj);
  EXPECT_EQ(prj["mode"].string, "auto");
  EXPECT_EQ(prj["scatter"].string, "swwc");
  EXPECT_EQ(prj["build"].string, "scalar");
  EXPECT_EQ(prj["probe"].string, "batched");

  auto mway = kernels_of(AlgorithmId::kMway);
  EXPECT_EQ(mway["scatter"].string, "scalar");
  EXPECT_EQ(mway["build"].string, "scalar");
  EXPECT_EQ(mway["probe"].string, "scalar");

  auto hhj = kernels_of(AlgorithmId::kHhj);
  EXPECT_EQ(hhj["build"].string, "scalar");
  EXPECT_EQ(hhj["probe"].string, linear_probe);

  spec.hash_table_kind = HashTableKind::kLinearProbe;
  prj = kernels_of(AlgorithmId::kPrj);
  EXPECT_EQ(prj["build"].string, "scalar");
  EXPECT_EQ(prj["probe"].string, linear_probe);
  EXPECT_EQ(kernels_of(AlgorithmId::kShjJm)["probe"].string, linear_probe);
  // NPJ's shared table is chained whatever the partition tables are.
  EXPECT_EQ(kernels_of(AlgorithmId::kNpj)["probe"].string, "batched");
}

TEST(RunRecord, IngestBlockRoundTripsWhenTheRunIngestedDisorder) {
  JoinSpec spec;
  RunResult result = SmallRun(&spec);
  spec.disorder_slack_ms = 32;
  spec.allowed_lateness_ms = 8;
  result.ingest.tuples_in = 1000;
  result.ingest.tuples_out = 996;
  result.ingest.reordered = 120;
  result.ingest.late_total = 5;
  result.ingest.late_admitted = 2;
  result.ingest.late_dropped = 3;
  result.ingest.duplicates = 1;
  result.ingest.corrupt = 0;
  result.ingest.watermark_clamps = 4;
  result.ingest.max_disorder_ms = 27;
  result.ingest.max_ts_ms = 999;
  result.ingest.final_watermark_ms = 991;

  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  EXPECT_DOUBLE_EQ(record.Find("spec")->Find("disorder_slack_ms")->number, 32);
  EXPECT_DOUBLE_EQ(record.Find("spec")->Find("allowed_lateness_ms")->number, 8);
  const json::Value* ingest = record.Find("ingest");
  ASSERT_NE(ingest, nullptr);
  ASSERT_TRUE(ingest->is_object());
  EXPECT_DOUBLE_EQ(ingest->Find("tuples_in")->number, 1000);
  EXPECT_DOUBLE_EQ(ingest->Find("tuples_out")->number, 996);
  EXPECT_DOUBLE_EQ(ingest->Find("reordered")->number, 120);
  EXPECT_DOUBLE_EQ(ingest->Find("late_total")->number, 5);
  EXPECT_DOUBLE_EQ(ingest->Find("late_admitted")->number, 2);
  EXPECT_DOUBLE_EQ(ingest->Find("late_dropped")->number, 3);
  EXPECT_DOUBLE_EQ(ingest->Find("duplicates")->number, 1);
  EXPECT_DOUBLE_EQ(ingest->Find("corrupt")->number, 0);
  EXPECT_DOUBLE_EQ(ingest->Find("watermark_clamps")->number, 4);
  EXPECT_DOUBLE_EQ(ingest->Find("max_disorder_ms")->number, 27);
  EXPECT_DOUBLE_EQ(ingest->Find("max_ts_ms")->number, 999);
  EXPECT_DOUBLE_EQ(ingest->Find("final_watermark_ms")->number, 991);
}

TEST(RunRecord, SpillBlockRoundTripsWhenTheRunStagedPartitions) {
  JoinSpec spec;
  RunResult result = SmallRun(&spec);
  result.spill.partitions = 32;
  result.spill.partitions_spilled = 20;
  result.spill.partitions_resident = 12;
  result.spill.bytes_written = 163840;
  result.spill.bytes_read = 163840;
  result.spill.pages_written = 40;
  result.spill.pages_read = 40;
  result.spill.recursion_depth = 2;
  result.spill.bnl_fallbacks = 1;
  result.spill.spill_elapsed_ms = 3.5;

  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  const json::Value* spill = record.Find("spill");
  ASSERT_NE(spill, nullptr);
  ASSERT_TRUE(spill->is_object());
  EXPECT_DOUBLE_EQ(spill->Find("partitions")->number, 32);
  EXPECT_DOUBLE_EQ(spill->Find("partitions_spilled")->number, 20);
  EXPECT_DOUBLE_EQ(spill->Find("partitions_resident")->number, 12);
  EXPECT_DOUBLE_EQ(spill->Find("bytes_written")->number, 163840);
  EXPECT_DOUBLE_EQ(spill->Find("bytes_read")->number, 163840);
  EXPECT_DOUBLE_EQ(spill->Find("pages_written")->number, 40);
  EXPECT_DOUBLE_EQ(spill->Find("pages_read")->number, 40);
  EXPECT_DOUBLE_EQ(spill->Find("recursion_depth")->number, 2);
  EXPECT_DOUBLE_EQ(spill->Find("bnl_fallbacks")->number, 1);
  EXPECT_DOUBLE_EQ(spill->Find("spill_elapsed_ms")->number, 3.5);
}

TEST(RunRecord, PmuAndMetricsBlocksAlwaysPresent) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());

  // The pmu block is present whether or not counters were measured; an
  // unmeasured run says why there is no data.
  const json::Value* pmu = record.Find("pmu");
  ASSERT_NE(pmu, nullptr);
  ASSERT_TRUE(pmu->is_object());
  const json::Value* available = pmu->Find("available");
  ASSERT_NE(available, nullptr);
  if (!available->boolean) {
    const json::Value* reason = pmu->Find("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_FALSE(reason->string.empty());
  } else {
    EXPECT_NE(pmu->Find("totals"), nullptr);
    EXPECT_NE(pmu->Find("phases"), nullptr);
  }

  const json::Value* metrics = record.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  ASSERT_NE(metrics->Find("enabled"), nullptr);
}

TEST(RunRecord, SchedulerBlockRoundTripsForMorselRuns) {
  MicroSpec mspec;
  mspec.rate_r = 50;
  mspec.rate_s = 50;
  mspec.window_ms = 100;
  MicroWorkload workload = GenerateMicro(mspec);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  spec.clock_mode = Clock::Mode::kInstant;
  spec.scheduler = SchedulerMode::kMorsel;
  spec.morsel_size = 64;
  JoinRunner runner;
  const RunResult result =
      runner.Run(AlgorithmId::kNpj, workload.r, workload.s, spec);
  ASSERT_TRUE(result.status.ok());

  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  const json::Value* spec_obj = record.Find("spec");
  ASSERT_NE(spec_obj, nullptr);
  EXPECT_EQ(spec_obj->Find("scheduler")->string, "morsel");
  EXPECT_EQ(spec_obj->Find("scheduler_resolved")->string, "morsel");
  EXPECT_DOUBLE_EQ(spec_obj->Find("morsel_size")->number, 64);

  const json::Value* sched = record.Find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->Find("mode")->string, "morsel");
  EXPECT_DOUBLE_EQ(sched->Find("morsel_size")->number, 64);
  EXPECT_GE(sched->Find("numa_nodes")->number, 1);
  EXPECT_GT(sched->Find("morsels")->number, 0);
  EXPECT_GT(sched->Find("tuples")->number, 0);
  const json::Value* workers = sched->Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), 2u);
  double morsel_sum = 0;
  for (const json::Value& w : workers->array) {
    EXPECT_GE(w.Find("node")->number, 0);
    EXPECT_GE(w.Find("steals")->number, 0);
    morsel_sum += w.Find("morsels")->number;
  }
  EXPECT_DOUBLE_EQ(morsel_sum, sched->Find("morsels")->number);

  // The static baseline keeps the spec knobs but omits the block.
  spec.scheduler = SchedulerMode::kStatic;
  const RunResult static_result =
      runner.Run(AlgorithmId::kNpj, workload.r, workload.s, spec);
  json::Value static_record;
  ASSERT_TRUE(json::Parse(RunRecordJson(static_result, spec, {}),
                          &static_record)
                  .ok());
  EXPECT_EQ(static_record.Find("scheduler"), nullptr);
  EXPECT_EQ(static_record.Find("spec")->Find("scheduler_resolved")->string,
            "static");
}

TEST(RunRecord, RecoveryBlockRoundTrips) {
  JoinSpec spec;
  RunResult result = SmallRun(&spec);
  result.recovery.attempts = 3;
  result.recovery.fallbacks_taken = 1;
  result.recovery.tuples_shed = 120;
  result.recovery.shed_ratio = 0.12;
  result.recovery.events.push_back({RecoveryAction::kRetry,
                                    StatusCode::kResourceExhausted, 1,
                                    "attempt 1 failed", 2.5});
  result.recovery.events.push_back({RecoveryAction::kFallbackAlgorithm,
                                    StatusCode::kResourceExhausted, 2,
                                    "PRJ -> NPJ", 0});

  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  const json::Value* recovery = record.Find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_DOUBLE_EQ(recovery->Find("attempts")->number, 3);
  EXPECT_DOUBLE_EQ(recovery->Find("fallbacks_taken")->number, 1);
  EXPECT_DOUBLE_EQ(recovery->Find("windows_skipped")->number, 0);
  EXPECT_DOUBLE_EQ(recovery->Find("tuples_shed")->number, 120);
  EXPECT_DOUBLE_EQ(recovery->Find("shed_ratio")->number, 0.12);
  EXPECT_TRUE(recovery->Find("recovered")->boolean);
  EXPECT_TRUE(recovery->Find("degraded")->boolean);

  const json::Value* events = recovery->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].Find("action")->string, "retry");
  EXPECT_EQ(events->array[0].Find("trigger")->string, "resource_exhausted");
  EXPECT_DOUBLE_EQ(events->array[0].Find("backoff_ms")->number, 2.5);
  EXPECT_EQ(events->array[1].Find("action")->string, "fallback_algorithm");
  EXPECT_EQ(events->array[1].Find("detail")->string, "PRJ -> NPJ");
}

TEST(RunRecord, SupervisedCleanRunRecordsItsSingleAttempt) {
  JoinSpec spec;
  RunResult result = SmallRun(&spec);
  result.recovery.attempts = 1;  // supervised, first attempt succeeded
  json::Value record;
  ASSERT_TRUE(json::Parse(RunRecordJson(result, spec, {}), &record).ok());
  const json::Value* recovery = record.Find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_DOUBLE_EQ(recovery->Find("attempts")->number, 1);
  EXPECT_FALSE(recovery->Find("recovered")->boolean);
  EXPECT_FALSE(recovery->Find("degraded")->boolean);
}

TEST(RunRecord, WriteCreatesOneValidFilePerCall) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  const std::string dir = testing::TempDir() + "/iawj_metrics_write_test";

  std::string path1, path2;
  ASSERT_TRUE(WriteRunRecord(result, spec, {}, dir, &path1).ok());
  ASSERT_TRUE(WriteRunRecord(result, spec, {}, dir, &path2).ok());
  EXPECT_NE(path1, path2);  // sequence number keeps names unique

  const auto entries = ListDir(dir);
  EXPECT_EQ(entries.size(), 2u);
  for (const std::string& entry : entries) {
    std::ifstream in(dir + "/" + entry);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    json::Value record;
    EXPECT_TRUE(json::Parse(text, &record).ok()) << entry;
    EXPECT_EQ(record.Find("algorithm")->string, "NPJ");
    std::remove((dir + "/" + entry).c_str());
  }
  rmdir(dir.c_str());
}

TEST(RunRecord, MaybeWriteIsGatedOnEnv) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);

  unsetenv("IAWJ_METRICS_DIR");
  EXPECT_FALSE(MaybeWriteRunRecord(result, spec));

  const std::string dir = testing::TempDir() + "/iawj_metrics_env_test";
  setenv("IAWJ_METRICS_DIR", dir.c_str(), 1);
  EXPECT_TRUE(MaybeWriteRunRecord(result, spec));
  unsetenv("IAWJ_METRICS_DIR");

  const auto entries = ListDir(dir);
  ASSERT_EQ(entries.size(), 1u);
  std::remove((dir + "/" + entries.front()).c_str());
  rmdir(dir.c_str());
}

TEST(RunRecord, WriteFailsOnUnwritableDir) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  EXPECT_FALSE(
      WriteRunRecord(result, spec, {}, "/proc/definitely/not/writable").ok());
}

#ifdef IAWJ_TRACE_CHECK_BIN
TEST(RunRecord, TornWriteIsRejectedByTheCheckerNotCrashed) {
  JoinSpec spec;
  const RunResult result = SmallRun(&spec);
  const std::string dir = testing::TempDir() + "/iawj_metrics_torn_test";

  // Arm the mid-write crash: the writer emits half the JSON, flushes, and
  // returns a typed DataLoss instead of pretending the record landed.
  ASSERT_TRUE(fault::Configure("record_truncate").ok());
  std::string path;
  const Status status = WriteRunRecord(result, spec, {}, dir, &path);
  fault::Clear();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  // The partial file is on disk and is not valid JSON.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(text.empty());
  json::Value parsed;
  EXPECT_FALSE(json::Parse(text, &parsed).ok());

  // The checker rejects the torn record with a printed reason and a
  // nonzero exit — it must never crash or report the directory clean.
  const std::string cmd =
      std::string(IAWJ_TRACE_CHECK_BIN) + " --records " + path + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int rc = pclose(pipe);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;

  std::remove(path.c_str());
  rmdir(dir.c_str());
}
#endif  // IAWJ_TRACE_CHECK_BIN

TEST(RunRecord, GitDescribeIsStableAndNonEmpty) {
  const std::string a = GitDescribeStamp();
  const std::string b = GitDescribeStamp();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace iawj
