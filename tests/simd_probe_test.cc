// Property/fuzz suite for the AVX2 vertical probe (hash/simd_probe.h).
//
// The kernel's contract is sequence equality with the scalar
// LinearProbeTable::Probe: same matches, same order, for every key — across
// dupe-heavy, zipf-skewed, all-miss, and all-hit distributions, and for
// table sizes hugging the 8-lane boundary (0..17 tuples, where a cluster
// scan is all tail). A dedicated dispatch test flips the $IAWJ_SIMD_PROBE
// kill switch and asserts the runtime fallback is engaged and the run
// output is identical either way.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/kernels.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/hash/linear_probe.h"
#include "src/hash/simd_probe.h"
#include "src/join/reference.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

struct Match {
  uint32_t ts;
  uint32_t key;
  bool operator==(const Match& o) const { return ts == o.ts && key == o.key; }
};

std::vector<Match> ScalarMatches(const LinearProbeTable<>& table,
                                 const std::vector<uint32_t>& probes) {
  std::vector<Match> out;
  NullTracer tracer;
  for (const uint32_t key : probes) {
    table.Probe(
        key, [&](Tuple t) { out.push_back({t.ts, t.key}); }, tracer);
  }
  return out;
}

std::vector<Match> SimdMatches(const LinearProbeTable<>& table,
                               const std::vector<uint32_t>& probes) {
  std::vector<Match> out;
  for (const uint32_t key : probes) {
    kernels::SimdProbeKey(table, key,
                          [&](const Tuple& t) { out.push_back({t.ts, t.key}); });
  }
  return out;
}

// Batched entry point (what the join algorithms call): compare against the
// scalar per-key walk including probe-tuple pairing.
std::vector<std::pair<Match, Match>> BatchMatches(
    const LinearProbeTable<>& table, const std::vector<Tuple>& probes) {
  std::vector<std::pair<Match, Match>> out;
  NullTracer tracer;
  kernels::ProbeSimdBatch(
      table, probes.data(), probes.size(),
      [&](const Tuple& s, const Tuple& r) {
        out.push_back({{s.ts, s.key}, {r.ts, r.key}});
      },
      tracer);
  return out;
}

void ExpectSimdEqualsScalar(const std::vector<Tuple>& build,
                            const std::vector<uint32_t>& probes,
                            const std::string& label) {
  SCOPED_TRACE(label + " build=" + std::to_string(build.size()) +
               " probes=" + std::to_string(probes.size()));
  LinearProbeTable<> table(build.size());
  NullTracer tracer;
  for (const Tuple& t : build) table.Insert(t, tracer);

  const std::vector<Match> scalar = ScalarMatches(table, probes);
  const std::vector<Match> simd = SimdMatches(table, probes);
  ASSERT_EQ(simd.size(), scalar.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(simd[i], scalar[i]) << "divergence at match " << i;
  }

  // And through the batch driver, which adds the group prefetch + the
  // 8-probe stripes with a scalar tail.
  std::vector<Tuple> probe_tuples(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    probe_tuples[i] = Tuple{static_cast<uint32_t>(i), probes[i]};
  }
  const auto batched = BatchMatches(table, probe_tuples);
  ASSERT_EQ(batched.size(), scalar.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(batched[i].second, scalar[i]) << "batch divergence at " << i;
  }
}

std::vector<Tuple> TuplesFromKeys(const std::vector<uint32_t>& keys) {
  std::vector<Tuple> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = Tuple{static_cast<uint32_t>(i + 1), keys[i]};
  }
  return out;
}

// Table sizes around the 8-lane tail boundary: 0..17 build tuples. With a
// minimum capacity of 32 slots every cluster fits one vector step, so this
// exercises the first-empty-lane masking specifically.
TEST(SimdProbeProperty, TailBoundarySizes) {
  Rng rng(101);
  for (size_t n = 0; n <= 17; ++n) {
    std::vector<uint32_t> keys(n);
    for (auto& k : keys) k = static_cast<uint32_t>(rng.NextBounded(7));
    std::vector<uint32_t> probes;
    for (uint32_t k = 0; k < 8; ++k) probes.push_back(k);  // hits and misses
    ExpectSimdEqualsScalar(TuplesFromKeys(keys), probes,
                           "tail_n" + std::to_string(n));
  }
}

TEST(SimdProbeProperty, DupeHeavy) {
  // Two-key domain: clusters span multiple vector steps once duplicates
  // exceed 8, forcing the idx += 8 continuation path.
  Rng rng(202);
  for (const size_t n : {size_t{24}, size_t{100}, size_t{1000}}) {
    std::vector<uint32_t> keys(n);
    for (auto& k : keys) k = static_cast<uint32_t>(rng.NextBounded(2));
    const std::vector<uint32_t> probes = {0, 1, 2};
    ExpectSimdEqualsScalar(TuplesFromKeys(keys), probes,
                           "dupe_n" + std::to_string(n));
  }
}

TEST(SimdProbeProperty, ZipfSkew) {
  ZipfGenerator zipf(/*n=*/1000, /*theta=*/1.2, /*seed=*/303);
  std::vector<uint32_t> keys(4096);
  for (auto& k : keys) k = static_cast<uint32_t>(zipf.Next());
  Rng rng(404);
  std::vector<uint32_t> probes(512);
  for (auto& p : probes) p = static_cast<uint32_t>(rng.NextBounded(2000));
  ExpectSimdEqualsScalar(TuplesFromKeys(keys), probes, "zipf");
}

TEST(SimdProbeProperty, AllMissAndAllHit) {
  Rng rng(505);
  std::vector<uint32_t> keys(777);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.NextBounded(1u << 20));
  const std::vector<Tuple> build = TuplesFromKeys(keys);

  // All-miss: probe keys from a disjoint range.
  std::vector<uint32_t> misses(256);
  for (auto& p : misses) {
    p = (1u << 22) + static_cast<uint32_t>(rng.NextBounded(1u << 20));
  }
  ExpectSimdEqualsScalar(build, misses, "all_miss");

  // All-hit: probe exactly the built keys, in a shuffled order.
  std::vector<uint32_t> hits = keys;
  for (size_t i = hits.size(); i > 1; --i) {
    std::swap(hits[i - 1], hits[rng.NextBounded(i)]);
  }
  ExpectSimdEqualsScalar(build, hits, "all_hit");
}

TEST(SimdProbeProperty, RandomizedFuzz) {
  // Seeded sweep over mixed shapes: random sizes (tails rarely divisible by
  // 8), random domains from maximal duplication to mostly unique.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 6151 + 3);
    const size_t n = 1 + rng.NextBounded(3000);
    const uint32_t domains[] = {2, 5, 31, 500, 1u << 18};
    const uint32_t domain = domains[rng.NextBounded(5)];
    std::vector<uint32_t> keys(n);
    for (auto& k : keys) k = static_cast<uint32_t>(rng.NextBounded(domain));
    std::vector<uint32_t> probes(1 + rng.NextBounded(900));
    for (auto& p : probes) {
      p = static_cast<uint32_t>(rng.NextBounded(domain + 3));
    }
    ExpectSimdEqualsScalar(TuplesFromKeys(keys), probes,
                           "fuzz_seed" + std::to_string(seed));
  }
}

// Runtime dispatch: $IAWJ_SIMD_PROBE=0 must move the auto plan's
// linear-probe tables to the batched fallback (probe variant "batched"),
// and a run in that state must produce byte-identical output to the
// vector path.
TEST(SimdProbeDispatch, KillSwitchForcesFallbackWithIdenticalOutput) {
  Rng rng(606);
  std::vector<Tuple> r_tuples(1500), s_tuples(1700);
  for (auto& t : r_tuples) {
    t = Tuple{static_cast<uint32_t>(rng.NextBounded(1000)),
              static_cast<uint32_t>(rng.NextBounded(300))};
  }
  for (auto& t : s_tuples) {
    t = Tuple{static_cast<uint32_t>(rng.NextBounded(1000)),
              static_cast<uint32_t>(rng.NextBounded(300))};
  }
  const Stream r = MakeStream(r_tuples);
  const Stream s = MakeStream(s_tuples);
  const ReferenceResult expected = NestedLoopJoin(r.view(), s.view());

  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = 1000;
  spec.clock_mode = Clock::Mode::kInstant;
  spec.kernels = KernelMode::kAuto;
  spec.hash_table_kind = HashTableKind::kLinearProbe;

  const auto run_all = [&](const char* label) {
    SCOPED_TRACE(label);
    std::vector<RunResult> results;
    for (const AlgorithmId id :
         {AlgorithmId::kShjJm, AlgorithmId::kPrj, AlgorithmId::kHhj}) {
      JoinRunner runner;
      results.push_back(runner.Run(id, r, s, spec));
      EXPECT_TRUE(results.back().status.ok())
          << results.back().status.message();
      EXPECT_EQ(results.back().matches, expected.matches);
      EXPECT_EQ(results.back().checksum, expected.checksum);
    }
    return results;
  };

  // Vector path (on AVX2 hosts; on others this is already the fallback).
  ASSERT_EQ(unsetenv("IAWJ_SIMD_PROBE"), 0);
  const std::vector<RunResult> with_simd = run_all("simd_enabled");

  // Forced fallback: the resolved probe variant must say so, and the
  // output must be identical.
  ASSERT_EQ(setenv("IAWJ_SIMD_PROBE", "0", 1), 0);
  EXPECT_FALSE(kernels::SimdProbeSupported());
  EXPECT_STREQ(kernels::SimdProbeUnsupportedReason(),
               "disabled via IAWJ_SIMD_PROBE");
  const std::vector<RunResult> fallback = run_all("simd_killed");
  ASSERT_EQ(unsetenv("IAWJ_SIMD_PROBE"), 0);

  ASSERT_EQ(with_simd.size(), fallback.size());
  for (size_t i = 0; i < with_simd.size(); ++i) {
    EXPECT_EQ(with_simd[i].matches, fallback[i].matches);
    EXPECT_EQ(with_simd[i].checksum, fallback[i].checksum);
    EXPECT_EQ(fallback[i].kernel_probe, "batched");
    if (kernels::SimdProbeSupported()) {
      EXPECT_EQ(with_simd[i].kernel_probe, "simd");
    }
  }
}

}  // namespace
}  // namespace iawj
