// google-benchmark microbenchmarks for the substrates: sort kernels
// (vectorized vs scalar), bucket-chain hash build and probe (scalar vs
// prefetch-batched probe), the AVX2 vertical probe over the linear-probe table
// (scalar vs simd), the shared-table build (latched vs lock-free CAS),
// radix partitioning (scalar vs SWWC scatter), and merge strategies. These
// are the kernel-level numbers behind the figure-level benches.
//
// Two modes:
//   kernels_microbench [gbench flags]   — the usual google-benchmark run.
//   kernels_microbench --json [--out=F] — pinned-scale kernel A/B pass that
//     emits machine-readable JSON (schema iawj-kernels-bench-v2) with
//     per-kernel throughput and scalar-vs-optimized speedups, for
//     scripts/bench_gate.py and the checked-in BENCH_baseline.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/hash/bucket_chain.h"
#include "src/hash/concurrent_table.h"
#include "src/hash/linear_probe.h"
#include "src/hash/lockfree_table.h"
#include "src/hash/prefetch.h"
#include "src/hash/simd_probe.h"
#include "src/partition/radix.h"
#include "src/partition/swwc.h"
#include "src/sort/avxsort.h"
#include "src/sort/merge.h"

namespace iawj {
namespace {

std::vector<uint64_t> RandomPacked(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.Next() & 0x7fffffff'ffffffffull;
  return v;
}

std::vector<Tuple> RandomTuples(size_t n, uint32_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> v(n);
  for (auto& t : v) {
    t.key = static_cast<uint32_t>(rng.NextBounded(domain));
    t.ts = static_cast<uint32_t>(rng.NextBounded(1000));
  }
  return v;
}

void BM_SortPacked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const sort::Options options{state.range(1) != 0};
  const auto input = RandomPacked(n, 1);
  std::vector<uint64_t> work(n);
  for (auto _ : state) {
    work = input;
    sort::SortPacked(work.data(), n, options);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(options.use_simd ? "simd" : "scalar");
}
BENCHMARK(BM_SortPacked)
    ->Args({1 << 12, 0})
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_MergePacked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const sort::Options options{state.range(1) != 0};
  auto a = RandomPacked(n, 2);
  auto b = RandomPacked(n, 3);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> out(2 * n);
  for (auto _ : state) {
    sort::MergePacked(a.data(), n, b.data(), n, out.data(), options);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
  state.SetLabel(options.use_simd ? "branchless" : "branchy");
}
BENCHMARK(BM_MergePacked)->Args({1 << 16, 0})->Args({1 << 16, 1});

void BM_HashBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t domain = static_cast<uint32_t>(state.range(1));
  const auto input = RandomTuples(n, domain, 4);
  for (auto _ : state) {
    BucketChainTable<> table(n);
    NullTracer tracer;
    for (const Tuple& t : input) table.Insert(t, tracer);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(domain < n ? "duplicated" : "unique-ish");
}
BENCHMARK(BM_HashBuild)
    ->Args({1 << 16, 1 << 30})
    ->Args({1 << 16, 1 << 6});  // heavy duplication: long chains

void BM_HashProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t domain = static_cast<uint32_t>(state.range(1));
  const bool batched = state.range(2) != 0;
  const auto build = RandomTuples(n, domain, 5);
  const auto probe = RandomTuples(n, domain, 6);
  BucketChainTable<> table(n);
  NullTracer tracer;
  for (const Tuple& t : build) table.Insert(t, tracer);
  for (auto _ : state) {
    uint64_t matches = 0;
    if (batched) {
      kernels::ProbeBatched(
          table, probe.data(), n,
          [&](const Tuple&, const Tuple&) { ++matches; }, tracer);
    } else {
      for (const Tuple& t : probe) {
        table.Probe(
            t.key, [&](Tuple) { ++matches; }, tracer);
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(batched ? "batched" : "scalar");
}
BENCHMARK(BM_HashProbe)
    ->Args({1 << 16, 1 << 30, 0})
    ->Args({1 << 16, 1 << 30, 1})
    ->Args({1 << 20, 1 << 30, 0})  // table ~4x L2: misses dominate
    ->Args({1 << 20, 1 << 30, 1})
    ->Args({1 << 16, 1 << 8, 0})
    ->Args({1 << 16, 1 << 8, 1});

void BM_LinearProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t domain = static_cast<uint32_t>(state.range(1));
  const bool simd = state.range(2) != 0;
  const auto build = RandomTuples(n, domain, 5);
  const auto probe = RandomTuples(n, domain, 6);
  LinearProbeTable<> table(n);
  NullTracer tracer;
  for (const Tuple& t : build) table.Insert(t, tracer);
  for (auto _ : state) {
    uint64_t matches = 0;
    if (simd) {
      kernels::ProbeSimdBatch(
          table, probe.data(), n,
          [&](const Tuple&, const Tuple&) { ++matches; }, tracer);
    } else {
      for (const Tuple& t : probe) {
        table.Probe(
            t.key, [&](Tuple) { ++matches; }, tracer);
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_LinearProbe)
    ->Args({1 << 16, 1 << 30, 0})
    ->Args({1 << 16, 1 << 30, 1})
    ->Args({1 << 20, 1 << 30, 0})  // table ~4x L2: misses dominate
    ->Args({1 << 20, 1 << 30, 1})
    ->Args({1 << 16, 1 << 8, 0})   // long clusters: multi-step scans
    ->Args({1 << 16, 1 << 8, 1});

void BM_SharedBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const bool lockfree = state.range(2) != 0;
  const auto input = RandomTuples(n, 1u << 30, 4);
  const auto build_with = [&](auto& table) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        NullTracer tracer;
        const size_t begin = n * t / threads;
        const size_t end = n * (t + 1) / threads;
        for (size_t i = begin; i < end; ++i) table.Insert(input[i], tracer);
      });
    }
    for (auto& w : workers) w.join();
  };
  for (auto _ : state) {
    if (lockfree) {
      LockFreeChainTable<> table(n);
      build_with(table);
      benchmark::DoNotOptimize(table.size());
    } else {
      ConcurrentBucketChainTable<> table(n);
      build_with(table);
      benchmark::DoNotOptimize(table.memory_bytes());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(lockfree ? "lockfree" : "latched");
}
BENCHMARK(BM_SharedBuild)
    ->Args({1 << 16, 1, 0})
    ->Args({1 << 16, 1, 1})
    ->Args({1 << 16, 4, 0})
    ->Args({1 << 16, 4, 1});

void BM_RadixPartition(benchmark::State& state) {
  const size_t n = 1 << 18;
  const int bits = static_cast<int>(state.range(0));
  const bool use_swwc = state.range(1) != 0;
  const auto input = RandomTuples(n, 1 << 30, 7);
  std::vector<Tuple> out(n);
  std::vector<uint64_t> offsets;
  NullTracer tracer;
  for (auto _ : state) {
    RadixPartitionSingle(input.data(), n, bits, out.data(), &offsets, tracer,
                         use_swwc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(use_swwc ? "swwc" : "scalar");
}
BENCHMARK(BM_RadixPartition)
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({14, 0})
    ->Args({14, 1})
    ->Args({18, 0})
    ->Args({18, 1});  // past swwc::kMaxBits: swwc falls back to scalar

void BM_MultiwayMerge(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t per_run = 1 << 14;
  std::vector<std::vector<uint64_t>> data(k);
  std::vector<sort::Run> runs;
  for (int i = 0; i < k; ++i) {
    data[i] = RandomPacked(per_run, 10 + i);
    std::sort(data[i].begin(), data[i].end());
    runs.push_back({data[i].data(), data[i].size()});
  }
  std::vector<uint64_t> out(per_run * k);
  for (auto _ : state) {
    sort::MultiwayMerge(runs, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(per_run) * k);
}
BENCHMARK(BM_MultiwayMerge)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// --- --json mode: pinned-scale kernel A/B for the bench-regression gate ---
//
// Deliberately not google-benchmark: the gate needs a stable schema, a fixed
// workload, and best-of-N timing (min wall time over repetitions damps
// scheduler noise on shared CI runners).

constexpr size_t kJsonScatterTuples = 1 << 23;
constexpr size_t kJsonHashTuples = 1 << 16;
constexpr size_t kJsonBigHashTuples = 1 << 20;
constexpr int kJsonReps = 7;

// Best-of-reps items/sec for fn() processing `items` tuples per call.
template <typename Fn>
double MeasureItemsPerSec(size_t items, int reps, Fn&& fn) {
  double best_sec = 1e100;
  fn();  // warmup (also faults in buffers)
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_sec = std::min(best_sec, elapsed.count());
  }
  return static_cast<double>(items) / best_sec;
}

struct JsonResult {
  std::string name;
  double items_per_sec;
};

void RunScatterJson(std::vector<JsonResult>* results) {
  const size_t n = kJsonScatterTuples;
  const auto input = RandomTuples(n, 1 << 30, 7);
  std::vector<Tuple> out(n);
  NullTracer tracer;
  for (int bits : {6, 10, 14}) {
    const size_t parts = size_t{1} << bits;
    std::vector<uint64_t> hist(parts, 0);
    RadixHistogram(input.data(), n, bits, hist.data());
    std::vector<uint64_t> offsets(parts + 1, 0);
    for (size_t p = 0; p < parts; ++p) offsets[p + 1] = offsets[p] + hist[p];
    std::vector<uint64_t> cursors(parts);
    for (const bool swwc : {false, true}) {
      const double rate = MeasureItemsPerSec(n, kJsonReps, [&] {
        std::copy(offsets.begin(), offsets.end() - 1, cursors.begin());
        RadixScatterKernel(input.data(), n, bits, cursors.data(), out.data(),
                           tracer, swwc);
      });
      results->push_back({"scatter/bits=" + std::to_string(bits) +
                              (swwc ? "/swwc" : "/scalar"),
                          rate});
    }
  }
}

void RunHashJson(std::vector<JsonResult>* results) {
  NullTracer tracer;
  const auto bench_probe = [&](const std::string& label, size_t n,
                               uint32_t domain) {
    const auto build = RandomTuples(n, domain, 5);
    const auto probe = RandomTuples(n, domain, 6);
    BucketChainTable<> table(n);
    for (const Tuple& t : build) table.Insert(t, tracer);
    uint64_t matches = 0;
    const double scalar = MeasureItemsPerSec(n, kJsonReps, [&] {
      for (const Tuple& t : probe) {
        table.Probe(
            t.key, [&](Tuple) { ++matches; }, tracer);
      }
    });
    const double batched = MeasureItemsPerSec(n, kJsonReps, [&] {
      kernels::ProbeBatched(
          table, probe.data(), n,
          [&](const Tuple&, const Tuple&) { ++matches; }, tracer);
    });
    // `matches` anchors the probe loops against dead-code elimination.
    if (matches == 0xffffffffffffffffull) std::puts("");
    results->push_back({"probe/" + label + "/scalar", scalar});
    results->push_back({"probe/" + label + "/batched", batched});
  };
  bench_probe("n=64k", kJsonHashTuples, 1u << 30);
  bench_probe("n=1m", kJsonBigHashTuples, 1u << 30);
}

// Linear-probe table: scalar per-key probe vs the AVX2 vertical probe. On
// hosts without AVX2 (or with $IAWJ_SIMD_PROBE=0) the "simd" side runs the
// scalar fallback; the emitted simd_probe_supported flag lets the gate skip
// the vector floor there instead of failing it.
void RunSimdProbeJson(std::vector<JsonResult>* results) {
  NullTracer tracer;
  const auto bench = [&](const std::string& label, size_t n,
                         uint32_t domain) {
    const auto build = RandomTuples(n, domain, 5);
    const auto probe = RandomTuples(n, domain, 6);
    LinearProbeTable<> table(n);
    for (const Tuple& t : build) table.Insert(t, tracer);
    uint64_t matches = 0;
    const double scalar = MeasureItemsPerSec(n, kJsonReps, [&] {
      for (const Tuple& t : probe) {
        table.Probe(
            t.key, [&](Tuple) { ++matches; }, tracer);
      }
    });
    const double simd = MeasureItemsPerSec(n, kJsonReps, [&] {
      kernels::ProbeSimdBatch(
          table, probe.data(), n,
          [&](const Tuple&, const Tuple&) { ++matches; }, tracer);
    });
    if (matches == 0xffffffffffffffffull) std::puts("");
    results->push_back({"probe/linear/" + label + "/scalar", scalar});
    results->push_back({"probe/linear/" + label + "/simd", simd});
  };
  bench("n=64k", kJsonHashTuples, 1u << 30);
  bench("n=1m", kJsonBigHashTuples, 1u << 30);
}

// Shared-table build, 4 threads over one table: per-bucket-latched
// ConcurrentBucketChainTable vs the CAS head-push LockFreeChainTable.
void RunSharedBuildJson(std::vector<JsonResult>* results) {
  const size_t n = kJsonHashTuples;
  const int threads = 4;
  const auto input = RandomTuples(n, 1u << 30, 4);
  const auto build_with = [&](auto& table) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        NullTracer tracer;
        const size_t begin = n * t / threads;
        const size_t end = n * (t + 1) / threads;
        for (size_t i = begin; i < end; ++i) table.Insert(input[i], tracer);
      });
    }
    for (auto& w : workers) w.join();
  };
  const double latched = MeasureItemsPerSec(n, kJsonReps, [&] {
    ConcurrentBucketChainTable<> table(n);
    build_with(table);
  });
  const double lockfree = MeasureItemsPerSec(n, kJsonReps, [&] {
    LockFreeChainTable<> table(n);
    build_with(table);
  });
  results->push_back({"build/shared/n=64k/latched", latched});
  results->push_back({"build/shared/n=64k/lockfree", lockfree});
}

double FindRate(const std::vector<JsonResult>& results,
                const std::string& name) {
  for (const auto& r : results) {
    if (r.name == name) return r.items_per_sec;
  }
  return 0;
}

int RunJsonMode(const std::string& out_path) {
  std::vector<JsonResult> results;
  RunScatterJson(&results);
  RunHashJson(&results);
  RunSimdProbeJson(&results);
  RunSharedBuildJson(&results);

  json::Writer w;
  w.BeginObject();
  w.Field("schema", "iawj-kernels-bench-v2");
  w.Field("simd_probe_supported", kernels::SimdProbeSupported());
  w.Key("scale").BeginObject();
  w.Field("scatter_tuples", uint64_t{kJsonScatterTuples});
  w.Field("hash_tuples", uint64_t{kJsonHashTuples});
  w.Field("big_hash_tuples", uint64_t{kJsonBigHashTuples});
  w.Field("reps", int64_t{kJsonReps});
  w.EndObject();
  w.Key("results").BeginArray();
  for (const auto& r : results) {
    w.BeginObject();
    w.Field("name", r.name);
    w.Field("items_per_sec", r.items_per_sec);
    w.EndObject();
  }
  w.EndArray();
  // Optimized-vs-baseline speedups of the same run: the
  // hardware-normalized numbers the gate's ratio mode compares.
  w.Key("speedups").BeginObject();
  for (const auto& pair : std::vector<std::pair<std::string, std::string>>{
           {"scatter/bits=6", "swwc"},
           {"scatter/bits=10", "swwc"},
           {"scatter/bits=14", "swwc"},
           {"probe/n=64k", "batched"},
           {"probe/n=1m", "batched"},
           {"probe/linear/n=64k", "simd"},
           {"probe/linear/n=1m", "simd"}}) {
    const double scalar = FindRate(results, pair.first + "/scalar");
    const double fast = FindRate(results, pair.first + "/" + pair.second);
    if (scalar > 0) w.Field(pair.first, fast / scalar);
  }
  {
    const double latched = FindRate(results, "build/shared/n=64k/latched");
    const double lockfree = FindRate(results, "build/shared/n=64k/lockfree");
    if (latched > 0) w.Field("build/shared/n=64k", lockfree / latched);
  }
  w.EndObject();
  w.EndObject();

  if (out_path.empty()) {
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace iawj

int main(int argc, char** argv) {
  std::string out_path;
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_mode = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  if (json_mode) return iawj::RunJsonMode(out_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
