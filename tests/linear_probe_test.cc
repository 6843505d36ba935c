// Tests for the linear-probing table and the hash_table_kind knob.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/datagen/micro.h"
#include "src/hash/linear_probe.h"
#include "src/join/reference.h"
#include "src/join/runner.h"

namespace iawj {
namespace {

TEST(LinearProbeTable, InsertProbeWithDuplicates) {
  LinearProbeTable<> table(64);
  NullTracer tracer;
  for (uint32_t i = 0; i < 200; ++i) {
    table.Insert(Tuple{.ts = i, .key = i % 7}, tracer);
  }
  EXPECT_EQ(table.size(), 200u);
  int matches = 0;
  table.Probe(
      3,
      [&](Tuple t) {
        EXPECT_EQ(t.key, 3u);
        ++matches;
      },
      tracer);
  EXPECT_EQ(matches, 200 / 7 + ((200 % 7) > 3 ? 1 : 0));
  table.Probe(
      999, [&](Tuple) { FAIL(); }, tracer);
}

TEST(LinearProbeTable, GrowsFarBeyondEstimate) {
  LinearProbeTable<> table(16);
  NullTracer tracer;
  Rng rng(1);
  std::unordered_map<uint32_t, int> expected;
  for (int i = 0; i < 50000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(5000));
    table.Insert(Tuple{.ts = 0, .key = key}, tracer);
    ++expected[key];
  }
  for (const auto& [key, count] : expected) {
    int found = 0;
    table.Probe(
        key, [&](Tuple) { ++found; }, tracer);
    ASSERT_EQ(found, count) << "key " << key;
  }
}

TEST(LinearProbeTable, ClusterCollisionsStayCorrect) {
  // Keys engineered to hash-collide heavily: probing must still separate
  // them by exact key comparison.
  LinearProbeTable<> table(32);
  NullTracer tracer;
  for (uint32_t i = 0; i < 64; ++i) {
    table.Insert(Tuple{.ts = i, .key = 1}, tracer);
    table.Insert(Tuple{.ts = i, .key = 2}, tracer);
  }
  int ones = 0, twos = 0;
  table.Probe(
      1, [&](Tuple) { ++ones; }, tracer);
  table.Probe(
      2, [&](Tuple) { ++twos; }, tracer);
  EXPECT_EQ(ones, 64);
  EXPECT_EQ(twos, 64);
}

// Counts slot visits: Insert and Probe report one Access per slot read.
struct SlotCountingTracer {
  static constexpr bool kEnabled = true;
  uint64_t visits = 0;
  void Access(const void*, uint64_t) { ++visits; }
  void SetPhase(Phase) {}
};

// Inside a radix partition every key shares its low bits, so a home slot
// taken from the hash's low bits (which depend only on the key's low bits)
// would pile the whole partition into one cluster and make every probe
// walk it. Taken from the high bits, probes stay a few slots long.
TEST(LinearProbeTable, KeysSharingLowBitsDoNotCluster) {
  constexpr uint32_t kKeys = 4096;
  constexpr uint32_t kLowBits = 0x2a5;  // shared low 10 bits
  LinearProbeTable<SlotCountingTracer> table(kKeys);
  SlotCountingTracer tracer;
  for (uint32_t i = 0; i < kKeys; ++i) {
    table.Insert(Tuple{.ts = i, .key = (i << 10) | kLowBits}, tracer);
  }
  tracer.visits = 0;
  uint64_t matches = 0;
  for (uint32_t i = 0; i < kKeys; ++i) {
    table.Probe(
        (i << 10) | kLowBits, [&](Tuple) { ++matches; }, tracer);
  }
  EXPECT_EQ(matches, kKeys);
  const double visits_per_probe =
      static_cast<double>(tracer.visits) / static_cast<double>(kKeys);
  EXPECT_LT(visits_per_probe, 8.0);
}

TEST(LinearProbeTable, TracksMemory) {
  mem::Reset();
  {
    LinearProbeTable<> table(1 << 14);
    EXPECT_GE(mem::CurrentBytes(),
              static_cast<int64_t>((1 << 15) * sizeof(Tuple)));
  }
  EXPECT_EQ(mem::CurrentBytes(), 0);
}

TEST(HashTableKind, LinearProbeBackendPreservesJoinResults) {
  MicroSpec mspec;
  mspec.size_r = mspec.size_s = 5000;
  mspec.window_ms = 1000;
  mspec.dupe = 8;
  const MicroWorkload w = GenerateMicro(mspec);
  const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());

  for (AlgorithmId id : {AlgorithmId::kPrj, AlgorithmId::kShjJm,
                         AlgorithmId::kShjJb}) {
    SCOPED_TRACE(AlgorithmName(id));
    for (HashTableKind kind :
         {HashTableKind::kBucketChain, HashTableKind::kLinearProbe}) {
      JoinSpec spec;
      spec.num_threads = 4;
      spec.hash_table_kind = kind;
      JoinRunner runner;
      const RunResult result = runner.Run(id, w.r, w.s, spec);
      EXPECT_EQ(result.matches, expected.matches);
      EXPECT_EQ(result.checksum, expected.checksum);
    }
  }
}

TEST(HashTableKind, LinearProbeWithTwoPassRadix) {
  MicroSpec mspec;
  mspec.size_r = mspec.size_s = 4000;
  mspec.window_ms = 1000;
  mspec.dupe = 3;
  const MicroWorkload w = GenerateMicro(mspec);
  const ReferenceResult expected = NestedLoopJoin(w.r.view(), w.s.view());
  JoinSpec spec;
  spec.num_threads = 2;
  spec.hash_table_kind = HashTableKind::kLinearProbe;
  spec.radix_bits = 12;
  spec.radix_passes = 2;
  JoinRunner runner;
  const RunResult result = runner.Run(AlgorithmId::kPrj, w.r, w.s, spec);
  EXPECT_EQ(result.matches, expected.matches);
  EXPECT_EQ(result.checksum, expected.checksum);
}

}  // namespace
}  // namespace iawj
