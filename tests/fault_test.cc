// Tests for the fault-injection harness and the graceful-failure execution
// layer (ISSUE 2): registry semantics, memory budgets, deadlines, per-site
// degradation, and the failure surface of IO/datagen/pipelines/records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/common/cancel.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/datagen/micro.h"
#include "src/datagen/real_world.h"
#include "src/io/workload_io.h"
#include "src/join/runner.h"
#include "src/join/window_pipeline.h"
#include "src/memory/tracker.h"
#include "src/profiling/run_record.h"

namespace iawj {
namespace {

// Faults and budgets are process-global; every test starts and ends clean so
// ordering never leaks a fault spec into an unrelated test.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Clear();
    mem::SetBudgetBytes(0);
    mem::SetBreachToken(nullptr);
  }
  void TearDown() override {
    fault::Clear();
    mem::SetBudgetBytes(0);
    mem::SetBreachToken(nullptr);
  }
};

MicroWorkload SmallWorkload() {
  MicroSpec spec;
  spec.size_r = 4000;
  spec.size_s = 4000;
  spec.window_ms = 100;
  spec.dupe = 4;
  spec.seed = 5;
  return GenerateMicro(spec);
}

JoinSpec SmallSpec() {
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 100;
  return spec;
}

// --- Registry semantics -----------------------------------------------------

TEST_F(FaultTest, ConfigureRejectsMalformedSpecs) {
  EXPECT_EQ(fault::Configure("alloc:0").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::Configure("alloc:x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::Configure("alloc:1:x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::Configure(":").code(), StatusCode::kInvalidArgument);
  // A failed Configure leaves injection disabled.
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::Inject("alloc"));
}

TEST_F(FaultTest, EmptySpecDisables) {
  ASSERT_TRUE(fault::Configure("alloc").ok());
  EXPECT_TRUE(fault::Enabled());
  ASSERT_TRUE(fault::Configure("").ok());
  EXPECT_FALSE(fault::Enabled());
}

TEST_F(FaultTest, DisorderSitesAreRegistered) {
  // The ingestion faults added for disorder hardening parse, fire, and
  // count like any other site, including nth/count schedules.
  for (const char* site :
       {"disorder_burst", "late_tuple", "dup_tuple", "watermark_stall"}) {
    ASSERT_TRUE(fault::Configure(site).ok()) << site;
    EXPECT_TRUE(fault::Inject(site)) << site;
    EXPECT_EQ(fault::Hits(site), 1u) << site;
  }
  ASSERT_TRUE(fault::Configure("dup_tuple:2:1,watermark_stall").ok());
  EXPECT_FALSE(fault::Inject("dup_tuple"));  // hit 1: before nth
  EXPECT_TRUE(fault::Inject("dup_tuple"));   // hit 2: fires
  EXPECT_FALSE(fault::Inject("dup_tuple"));  // hit 3: schedule spent
  EXPECT_TRUE(fault::Inject("watermark_stall"));
}

TEST_F(FaultTest, FiresOnHitsNthThroughNthPlusCount) {
  ASSERT_TRUE(fault::Configure("alloc:2:2").ok());
  EXPECT_FALSE(fault::Inject("alloc"));  // hit 1
  EXPECT_TRUE(fault::Inject("alloc"));   // hit 2: first firing hit
  EXPECT_TRUE(fault::Inject("alloc"));   // hit 3: last firing hit
  EXPECT_FALSE(fault::Inject("alloc"));  // hit 4
  EXPECT_EQ(fault::Hits("alloc"), 4u);
}

TEST_F(FaultTest, CountZeroFiresForever) {
  ASSERT_TRUE(fault::Configure("alloc:3:0").ok());
  EXPECT_FALSE(fault::Inject("alloc"));
  EXPECT_FALSE(fault::Inject("alloc"));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fault::Inject("alloc"));
}

TEST_F(FaultTest, UnconfiguredSitesAreNotCounted) {
  ASSERT_TRUE(fault::Configure("alloc,io_truncate:2").ok());
  EXPECT_FALSE(fault::Inject("clock_skew"));
  EXPECT_EQ(fault::Hits("clock_skew"), 0u);
  EXPECT_TRUE(fault::Inject("alloc"));
  EXPECT_FALSE(fault::Inject("io_truncate"));  // fires on its 2nd hit
  EXPECT_TRUE(fault::Inject("io_truncate"));
}

TEST_F(FaultTest, ClearResetsEverything) {
  ASSERT_TRUE(fault::Configure("alloc:1:0").ok());
  EXPECT_TRUE(fault::Inject("alloc"));
  fault::Clear();
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::Inject("alloc"));
  EXPECT_EQ(fault::Hits("alloc"), 0u);
}

TEST_F(FaultTest, ResetReArmsTheSameScheduleWithoutReparsing) {
  ASSERT_TRUE(fault::Configure("alloc:2").ok());
  EXPECT_FALSE(fault::Inject("alloc"));  // hit 1
  EXPECT_TRUE(fault::Inject("alloc"));   // hit 2 fires
  EXPECT_FALSE(fault::Inject("alloc"));  // hit 3: window passed
  fault::Reset();
  EXPECT_TRUE(fault::Enabled());  // sites survive, counters do not
  EXPECT_EQ(fault::Hits("alloc"), 0u);
  EXPECT_FALSE(fault::Inject("alloc"));  // hit 1 again
  EXPECT_TRUE(fault::Inject("alloc"));   // hit 2 fires again
}

TEST_F(FaultTest, ResetWithNothingConfiguredIsANoOp) {
  fault::Reset();
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::Inject("alloc"));
}

TEST_F(FaultTest, ReloadFromEnvInstallsClearsAndRejects) {
  ASSERT_EQ(setenv("IAWJ_FAULT", "alloc:1", 1), 0);
  ASSERT_TRUE(fault::ReloadFromEnv().ok());
  EXPECT_TRUE(fault::Enabled());
  EXPECT_TRUE(fault::Inject("alloc"));

  // Unlike the startup parse, a malformed value comes back as a Status and
  // leaves injection disabled — the process survives.
  ASSERT_EQ(setenv("IAWJ_FAULT", "alloc:0", 1), 0);
  EXPECT_EQ(fault::ReloadFromEnv().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fault::Enabled());

  ASSERT_EQ(unsetenv("IAWJ_FAULT"), 0);
  ASSERT_TRUE(fault::ReloadFromEnv().ok());
  EXPECT_FALSE(fault::Enabled());
}

// --- Memory budget ----------------------------------------------------------

TEST_F(FaultTest, PreflightHonoursBudget) {
  mem::SetBudgetBytes(int64_t{1} << 20);
  EXPECT_TRUE(mem::Preflight(int64_t{1} << 10, "small block").ok());
  const Status st = mem::Preflight(int64_t{8} << 20, "big block");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("memory budget exceeded"), std::string::npos);
  EXPECT_NE(st.message().find("big block"), std::string::npos);
}

TEST_F(FaultTest, AllocFaultTripsPreflight) {
  ASSERT_TRUE(fault::Configure("alloc").ok());
  const Status st = mem::Preflight(16, "tiny block");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("injected allocation failure"),
            std::string::npos);
}

TEST_F(FaultTest, OverBudgetAddCancelsInstalledToken) {
  CancelToken token;
  mem::SetBreachToken(&token);
  mem::SetBudgetBytes(1024);
  mem::Add(4096);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason().code(), StatusCode::kResourceExhausted);
  mem::Add(-4096);
  // Without a token, a breach is recorded nowhere but must not crash.
  mem::SetBreachToken(nullptr);
  mem::Add(4096);
  mem::Add(-4096);
}

// --- Runner graceful failure ------------------------------------------------

TEST_F(FaultTest, InvalidSpecComesBackAsStatusNotAbort) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec = SmallSpec();
  spec.num_threads = 0;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.matches, 0u);

  JoinSpec bad_radix = SmallSpec();
  bad_radix.radix_bits = 0;
  EXPECT_EQ(runner.Run(AlgorithmId::kPrj, w.r, w.s, bad_radix).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FaultTest, EmptyAndOneSidedStreamsRunCleanly) {
  const MicroWorkload w = SmallWorkload();
  const Stream empty;
  JoinRunner runner;
  for (AlgorithmId id : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult both = runner.Run(id, empty, empty, SmallSpec());
    EXPECT_TRUE(both.status.ok()) << both.status.ToString();
    EXPECT_EQ(both.matches, 0u);
    const RunResult one = runner.Run(id, w.r, empty, SmallSpec());
    EXPECT_TRUE(one.status.ok()) << one.status.ToString();
    EXPECT_EQ(one.matches, 0u);
  }
}

TEST_F(FaultTest, MemoryBudgetFailsRunWithResourceExhausted) {
  const MicroWorkload w = SmallWorkload();
  mem::SetBudgetBytes(1024);  // far below any table/run allocation
  JoinRunner runner;
  for (AlgorithmId id : {AlgorithmId::kNpj, AlgorithmId::kPrj,
                         AlgorithmId::kMway, AlgorithmId::kShjJm}) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult result = runner.Run(id, w.r, w.s, SmallSpec());
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  }
  mem::SetBudgetBytes(0);
  const RunResult ok = runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_GT(ok.matches, 0u);
}

TEST_F(FaultTest, AllocFaultFailsRunWithResourceExhausted) {
  const MicroWorkload w = SmallWorkload();
  ASSERT_TRUE(fault::Configure("alloc").ok());
  JoinRunner runner;
  const RunResult result =
      runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(fault::Hits("alloc"), 1u);
}

TEST_F(FaultTest, WorkerStallIsCancelledByDeadline) {
  const MicroWorkload w = SmallWorkload();
  ASSERT_TRUE(fault::Configure("worker_stall").ok());
  JoinSpec spec = SmallSpec();
  spec.deadline_ms = 200;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status.message().find("unfinished"), std::string::npos);
  EXPECT_NE(result.status.message().find("w0"), std::string::npos);
}

TEST_F(FaultTest, SecondWorkerStallNamesThatWorker) {
  const MicroWorkload w = SmallWorkload();
  ASSERT_TRUE(fault::Configure("worker_stall:2").ok());
  JoinSpec spec = SmallSpec();
  spec.deadline_ms = 200;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kMpass, w.r, w.s, spec);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status.message().find("w1"), std::string::npos);
}

TEST_F(FaultTest, EagerStallIsCancelledByDeadline) {
  const MicroWorkload w = SmallWorkload();
  ASSERT_TRUE(fault::Configure("eager_stall").ok());
  JoinSpec spec = SmallSpec();
  spec.deadline_ms = 200;
  JoinRunner runner;
  for (AlgorithmId id : {AlgorithmId::kShjJm, AlgorithmId::kPmjJb}) {
    SCOPED_TRACE(AlgorithmName(id));
    fault::Reset();  // re-arm the schedule for the next algorithm
    const RunResult result = runner.Run(id, w.r, w.s, spec);
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(FaultTest, DeadlineStopsSortJoinsInsideOneHotKey) {
  // One key on both sides: the window is a single equal-key block of
  // |R|·|S| = 4·10^8 matches. The merge joins check the deadline once per
  // match run, so they stop inside the block instead of emitting all of it.
  MicroSpec micro;
  micro.size_r = 20000;
  micro.size_s = 20000;
  micro.dupe = 20000;
  const MicroWorkload w = GenerateMicro(micro);
  JoinSpec spec;
  spec.num_threads = 2;
  spec.deadline_ms = 100;
  JoinRunner runner;
  for (AlgorithmId id :
       {AlgorithmId::kMway, AlgorithmId::kMpass, AlgorithmId::kPmjJm}) {
    SCOPED_TRACE(AlgorithmName(id));
    const RunResult result = runner.Run(id, w.r, w.s, spec);
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(result.matches, uint64_t{20000} * 20000);
  }
}

TEST_F(FaultTest, GenerousDeadlineLeavesHealthyRunUntouched) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec = SmallSpec();
  JoinRunner runner;
  const RunResult baseline =
      runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  spec.deadline_ms = 60000;
  const RunResult guarded = runner.Run(AlgorithmId::kNpj, w.r, w.s, spec);
  ASSERT_TRUE(guarded.status.ok()) << guarded.status.ToString();
  EXPECT_EQ(guarded.matches, baseline.matches);
  EXPECT_EQ(guarded.checksum, baseline.checksum);
}

TEST_F(FaultTest, ClockSkewKeepsResultsFiniteAndCorrect) {
  const MicroWorkload w = SmallWorkload();
  JoinRunner runner;
  const RunResult baseline =
      runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());

  ASSERT_TRUE(fault::Configure("clock_skew").ok());
  JoinSpec skewed = SmallSpec();
  skewed.clock_mode = Clock::Mode::kRealTime;
  const RunResult result = runner.Run(AlgorithmId::kNpj, w.r, w.s, skewed);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // A backwards clock step must not change what matches, only when the
  // engine thinks they happened.
  EXPECT_EQ(result.matches, baseline.matches);
  EXPECT_EQ(result.checksum, baseline.checksum);
  EXPECT_TRUE(std::isfinite(result.throughput_per_ms));
  EXPECT_TRUE(std::isfinite(result.p95_latency_ms));
  EXPECT_TRUE(std::isfinite(result.elapsed_ms));
}

TEST_F(FaultTest, FaultsDisabledMatchesBaselineChecksum) {
  // The harness itself must be inert when no spec is configured.
  const MicroWorkload w = SmallWorkload();
  JoinRunner runner;
  const RunResult a = runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());
  const RunResult b = runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(fault::Hits("alloc"), 0u);
}

// --- Window pipeline --------------------------------------------------------

TEST_F(FaultTest, WindowFailStopsPipelineAtFailedWindow) {
  MicroSpec mspec;
  mspec.size_r = 4000;
  mspec.size_s = 4000;
  mspec.window_ms = 100;  // tuples span [0, 100)
  mspec.seed = 5;
  const MicroWorkload w = GenerateMicro(mspec);

  ASSERT_TRUE(fault::Configure("window_fail:2").ok());
  JoinSpec spec = SmallSpec();
  spec.window_ms = 25;  // four tumbling windows
  const PipelineResult pipeline =
      RunTumblingWindows(AlgorithmId::kNpj, w.r, w.s, spec);
  EXPECT_EQ(pipeline.status.code(), StatusCode::kInternal);
  ASSERT_EQ(pipeline.windows.size(), 2u);
  EXPECT_TRUE(pipeline.windows[0].result.status.ok());
  EXPECT_EQ(pipeline.windows[1].result.status.code(), StatusCode::kInternal);
  EXPECT_NE(pipeline.windows[1].result.status.message().find(
                "injected window failure"),
            std::string::npos);
  // Aggregates cover the completed window(s) only.
  EXPECT_GT(pipeline.total_matches, 0u);
}

TEST_F(FaultTest, PipelinesRejectDegenerateSegmentation) {
  const MicroWorkload w = SmallWorkload();
  JoinSpec spec = SmallSpec();
  spec.window_ms = 0;
  EXPECT_EQ(RunTumblingWindows(AlgorithmId::kNpj, w.r, w.s, spec)
                .status.code(),
            StatusCode::kInvalidArgument);
  spec.window_ms = 25;
  EXPECT_EQ(RunSlidingWindows(AlgorithmId::kNpj, w.r, w.s, spec, 0)
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunSessionWindows(AlgorithmId::kNpj, w.r, w.s, spec, 0)
                .status.code(),
            StatusCode::kInvalidArgument);
}

// --- Workload IO ------------------------------------------------------------

Stream TinyStream(size_t n) {
  std::vector<Tuple> tuples(n);
  for (size_t i = 0; i < n; ++i) {
    tuples[i].key = static_cast<uint32_t>(i * 7);
    tuples[i].ts = static_cast<uint32_t>(i % 100);
  }
  return MakeStream(std::move(tuples));
}

TEST_F(FaultTest, IoTruncateFaultSurfacesAsDataLoss) {
  const std::string path = testing::TempDir() + "/iawj_fault_io.bin";
  ASSERT_TRUE(io::SaveStream(TinyStream(500), path).ok());
  ASSERT_TRUE(fault::Configure("io_truncate").ok());
  Stream loaded;
  const Status st = io::LoadStream(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("injected truncation"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultTest, PhysicallyTruncatedFileSurfacesAsDataLoss) {
  const std::string path = testing::TempDir() + "/iawj_fault_trunc.bin";
  ASSERT_TRUE(io::SaveStream(TinyStream(1000), path).ok());
  // Keep the header plus half the tuples.
  const off_t keep =
      static_cast<off_t>(8 + sizeof(uint64_t) + 500 * sizeof(Tuple));
  ASSERT_EQ(truncate(path.c_str(), keep), 0);
  Stream loaded;
  const Status st = io::LoadStream(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("promises"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultTest, CorruptHeaderCountRejectedWithoutAllocating) {
  const std::string path = testing::TempDir() + "/iawj_fault_header.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("IAWJSTR1", 8);
    const uint64_t absurd = uint64_t{1} << 40;  // 8 TiB of tuples
    out.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  Stream loaded;
  const Status st = io::LoadStream(path, &loaded);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("promises"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FaultTest, CsvRejectsNonNumericFields) {
  const std::string path = testing::TempDir() + "/iawj_fault_bad.csv";
  {
    std::ofstream out(path);
    out << "ts,key\n1,2\n3,oops\n";
  }
  Stream loaded;
  EXPECT_EQ(io::LoadStreamCsv(path, &loaded).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Datagen validation -----------------------------------------------------

TEST_F(FaultTest, MicroSpecValidationRejectsDegenerateInputs) {
  MicroWorkload w;
  MicroSpec spec;
  spec.dupe = 0.25;
  EXPECT_EQ(GenerateMicro(spec, &w).code(), StatusCode::kInvalidArgument);
  spec = MicroSpec{};
  spec.dupe = std::nan("");
  EXPECT_EQ(GenerateMicro(spec, &w).code(), StatusCode::kInvalidArgument);
  spec = MicroSpec{};
  spec.window_ms = 0;
  EXPECT_EQ(GenerateMicro(spec, &w).code(), StatusCode::kInvalidArgument);
  spec = MicroSpec{};
  spec.zipf_key = -0.5;
  EXPECT_EQ(GenerateMicro(spec, &w).code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultTest, RealWorldSpecValidationRejectsBadScale) {
  Workload w;
  RealWorldSpec spec;
  spec.scale = 0.0;
  EXPECT_EQ(GenerateRealWorld(spec, &w).code(),
            StatusCode::kInvalidArgument);
  spec.scale = std::numeric_limits<double>::infinity();
  EXPECT_EQ(GenerateRealWorld(spec, &w).code(),
            StatusCode::kInvalidArgument);
}

// --- Run records ------------------------------------------------------------

TEST_F(FaultTest, FailedRunEmitsFailedRecordWithCode) {
  RunResult result;
  result.algorithm = "NPJ";
  result.status = Status::DeadlineExceeded("run exceeded deadline of 10 ms");
  const std::string text = RunRecordJson(result, JoinSpec{}, {});
  json::Value record;
  ASSERT_TRUE(json::Parse(text, &record).ok()) << text;
  EXPECT_EQ(record.Find("status")->string, "failed");
  EXPECT_EQ(record.Find("status_code")->string, "deadline_exceeded");
  EXPECT_NE(record.Find("status_message")->string.find("deadline"),
            std::string::npos);
}

TEST_F(FaultTest, FailedRealRunRoundTripsThroughRecord) {
  const MicroWorkload w = SmallWorkload();
  mem::SetBudgetBytes(1024);
  JoinRunner runner;
  const RunResult result =
      runner.Run(AlgorithmId::kNpj, w.r, w.s, SmallSpec());
  ASSERT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  mem::SetBudgetBytes(0);
  const std::string text = RunRecordJson(result, SmallSpec(), {});
  json::Value record;
  ASSERT_TRUE(json::Parse(text, &record).ok()) << text;
  EXPECT_EQ(record.Find("status")->string, "failed");
  EXPECT_EQ(record.Find("status_code")->string, "resource_exhausted");
  EXPECT_NE(record.Find("peak_tracked_bytes"), nullptr);
}

}  // namespace
}  // namespace iawj
