// TSan-targeted stress suite for the lock-free CAS hash table
// (hash/lockfree_table.h), NPJ's shared table under kernels=auto.
//
// The headline risk of a latch-free build is silent corruption: a lost CAS
// retry drops a tuple, a misordered publish exposes an uninitialized node.
// These tests hammer exactly those windows — N threads CAS-pushing into
// deliberately hot shared buckets (tiny key domains), with worker_stall and
// alloc fault injection widening the race windows — and then assert the
// three invariants the ISSUE names: tuple conservation (node count in ==
// tuples out), no lost inserts (per-key multisets match the input exactly),
// and probe results identical to a single-threaded build of the same
// input. The whole file runs under the CI TSan job, where the
// acquire/release pairing of Insert/Probe is checked mechanically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/hash/lockfree_table.h"
#include "src/join/reference.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

std::vector<Tuple> MakeTuples(uint64_t seed, size_t n, uint32_t domain) {
  Rng rng(seed);
  std::vector<Tuple> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Tuple{static_cast<uint32_t>(i + 1),
                   static_cast<uint32_t>(rng.NextBounded(domain))};
  }
  return out;
}

// Per-key sorted timestamp lists — the canonical "what the table holds"
// view, independent of chain order (CAS chains are interleaving-dependent).
std::map<uint32_t, std::vector<uint32_t>> Contents(
    const LockFreeChainTable<>& table, uint32_t domain) {
  std::map<uint32_t, std::vector<uint32_t>> out;
  NullTracer tracer;
  for (uint32_t key = 0; key < domain; ++key) {
    std::vector<uint32_t> ts;
    table.Probe(key, [&](const Tuple& t) { ts.push_back(t.ts); }, tracer);
    std::sort(ts.begin(), ts.end());
    if (!ts.empty()) out.emplace(key, std::move(ts));
  }
  return out;
}

void BuildConcurrently(LockFreeChainTable<>& table,
                       const std::vector<Tuple>& tuples, int threads,
                       bool stall_on_fault) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      NullTracer tracer;
      const size_t begin = tuples.size() * t / threads;
      const size_t end = tuples.size() * (t + 1) / threads;
      for (size_t i = begin; i < end; ++i) {
        if (stall_on_fault && fault::Enabled() &&
            fault::Inject("worker_stall")) {
          // Park mid-build: every other thread keeps CAS-ing into the same
          // buckets, so the stalled thread's next publish races a maximally
          // changed head.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        table.Insert(tuples[i], tracer);
      }
    });
  }
  for (auto& w : workers) w.join();
}

void ExpectIdenticalToSingleThreadedBuild(const std::vector<Tuple>& tuples,
                                          uint32_t domain, int threads,
                                          bool stall_on_fault) {
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               " tuples=" + std::to_string(tuples.size()) +
               " domain=" + std::to_string(domain));
  LockFreeChainTable<> concurrent(tuples.size());
  BuildConcurrently(concurrent, tuples, threads, stall_on_fault);

  // Tuple conservation: every claimed node was published, none lost.
  EXPECT_EQ(concurrent.size(), tuples.size());

  LockFreeChainTable<> sequential(tuples.size());
  NullTracer tracer;
  for (const Tuple& t : tuples) sequential.Insert(t, tracer);

  // No lost inserts + probe equivalence: the concurrent table holds exactly
  // the multiset the single-threaded build holds, for every key.
  EXPECT_EQ(Contents(concurrent, domain), Contents(sequential, domain));
}

TEST(LockFreeTableStress, ConcurrentBuildMatchesSingleThreaded) {
  for (const int threads : {2, 4, 8}) {
    // domain 97 over 20k tuples: ~200 tuples per bucket chain, so nearly
    // every insert contends with another thread's CAS.
    ExpectIdenticalToSingleThreadedBuild(MakeTuples(11, 20000, 97), 97,
                                         threads, /*stall_on_fault=*/false);
  }
}

TEST(LockFreeTableStress, TwoKeyMaximalContention) {
  // Two buckets, eight threads: the CAS retry loop is the common path, not
  // the rare one. A single lost retry shows up as a missing timestamp.
  ExpectIdenticalToSingleThreadedBuild(MakeTuples(13, 30000, 2), 2, 8,
                                       /*stall_on_fault=*/false);
}

TEST(LockFreeTableStress, UnderWorkerStallAndAllocFaults) {
  // worker_stall: every 256th hit parks a builder ~2ms mid-chunk, widening
  // publish windows. alloc: every 64th tracked allocation from the 128th on
  // fires the injected-breach path inside mem::Add — the overflow chunks
  // this build forces (expected size 1024 < 12k inserts) must survive it.
  // No breach token is installed, so injected breaches are recorded but
  // non-fatal, exactly like an unbudgeted standalone build.
  ASSERT_TRUE(fault::Configure("worker_stall:4:0,alloc:128:0").ok());
  LockFreeChainTable<> table(1024);
  const std::vector<Tuple> tuples = MakeTuples(17, 12000, 37);
  BuildConcurrently(table, tuples, /*threads=*/6, /*stall_on_fault=*/true);
  fault::Clear();

  EXPECT_EQ(table.size(), tuples.size());
  LockFreeChainTable<> sequential(tuples.size());
  NullTracer tracer;
  for (const Tuple& t : tuples) sequential.Insert(t, tracer);
  EXPECT_EQ(Contents(table, 37), Contents(sequential, 37));
}

TEST(LockFreeTableStress, ConcurrentReadersSeeOnlyPublishedTuples) {
  // Probes racing the build: every tuple a reader observes must be one of
  // the input tuples (fully initialized — the release/acquire pairing under
  // test), and a probe after the build joins must see everything.
  const uint32_t domain = 61;
  const std::vector<Tuple> tuples = MakeTuples(19, 16000, domain);
  LockFreeChainTable<> table(tuples.size());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> observed{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      NullTracer tracer;
      Rng rng(23 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const uint32_t key = static_cast<uint32_t>(rng.NextBounded(domain));
        table.Probe(
            key,
            [&](const Tuple& match) {
              observed.fetch_add(1, std::memory_order_relaxed);
              // ts is 1-based input position; key must round-trip. A torn
              // (pre-publication) node would show ts==0 or a foreign key.
              if (match.key != key || match.ts == 0 ||
                  match.ts > tuples.size()) {
                torn.fetch_add(1, std::memory_order_relaxed);
              }
            },
            tracer);
      }
    });
  }

  BuildConcurrently(table, tuples, /*threads=*/4, /*stall_on_fault=*/false);
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(observed.load(), 0u);  // the race actually happened
  LockFreeChainTable<> sequential(tuples.size());
  NullTracer tracer;
  for (const Tuple& t : tuples) sequential.Insert(t, tracer);
  EXPECT_EQ(Contents(table, domain), Contents(sequential, domain));
}

TEST(LockFreeTable, MemoryAccounting) {
  const int64_t before = mem::CurrentBytes();
  {
    LockFreeChainTable<> table(4096);
    EXPECT_EQ(table.memory_bytes(),
              LockFreeChainTable<>::TrackedBytesFor(4096));
    EXPECT_GE(mem::CurrentBytes() - before, table.memory_bytes());
    // Past-expectation inserts charge overflow chunks as they spill.
    NullTracer tracer;
    const int64_t preflighted = table.memory_bytes();
    for (uint32_t i = 0; i < 5000; ++i) {
      table.Insert(Tuple{i + 1, i % 11}, tracer);
    }
    EXPECT_GT(table.memory_bytes(), preflighted);
  }
  EXPECT_EQ(mem::CurrentBytes(), before);
}

// End-to-end: NPJ under the auto plan (the lock-free build) is byte-exact
// vs the nested-loop reference on both schedulers — the run-record kernels
// block names the build variant that executed.
TEST(LockFreeNpj, ByteExactVsReference) {
  // Timestamps stay inside the single 1000ms window so the nested-loop
  // reference over the full streams is the exact expected answer.
  const auto windowed = [](uint64_t seed, size_t n, uint32_t domain) {
    Rng rng(seed);
    std::vector<Tuple> out(n);
    for (auto& t : out) {
      t = Tuple{static_cast<uint32_t>(rng.NextBounded(1000)),
                static_cast<uint32_t>(rng.NextBounded(domain))};
    }
    return out;
  };
  const std::vector<Tuple> r_tuples = windowed(29, 4000, 150);
  const std::vector<Tuple> s_tuples = windowed(31, 4500, 150);
  const Stream r = MakeStream(r_tuples);
  const Stream s = MakeStream(s_tuples);
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());

  for (const SchedulerMode sched :
       {SchedulerMode::kStatic, SchedulerMode::kMorsel}) {
    SCOPED_TRACE("scheduler=" + std::string(SchedulerModeName(sched)));
    JoinSpec spec;
    spec.num_threads = 4;
    spec.window_ms = 1000;
    spec.clock_mode = Clock::Mode::kInstant;
    spec.kernels = KernelMode::kAuto;
    spec.scheduler = sched;
    spec.morsel_size = 256;
    JoinRunner runner;
    const RunResult result = runner.Run(AlgorithmId::kNpj, r, s, spec);
    EXPECT_TRUE(result.status.ok()) << result.status.message();
    EXPECT_EQ(result.matches, expected.matches);
    EXPECT_EQ(result.checksum, expected.checksum);
    EXPECT_EQ(result.kernels_resolved, KernelMode::kAuto);
    EXPECT_EQ(result.kernel_build, "lockfree");
  }
}

}  // namespace
}  // namespace iawj
