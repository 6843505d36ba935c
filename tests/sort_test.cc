// Unit and property tests for the sort substrate, parameterized over the
// SIMD/scalar toggle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/common/tuple.h"
#include "src/sort/avxsort.h"
#include "src/sort/merge.h"

namespace iawj {
namespace {

std::vector<uint64_t> RandomPacked(size_t n, uint64_t seed,
                                   uint32_t key_domain = 1 << 20) {
  Rng rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) {
    x = PackTuple(Tuple{.ts = static_cast<uint32_t>(rng.NextBounded(1000)),
                        .key = static_cast<uint32_t>(
                            rng.NextBounded(key_domain))});
  }
  return v;
}

class SortPathTest : public ::testing::TestWithParam<bool> {
 protected:
  sort::Options options() const { return sort::Options{GetParam()}; }
};

TEST_P(SortPathTest, SortsAtEverySizeBoundary) {
  // Sizes straddle the base-block size (64) and merge-tree levels.
  for (size_t n : {0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 4096, 10000}) {
    auto data = RandomPacked(n, n + 1);
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    sort::SortPacked(data.data(), n, options());
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST_P(SortPathTest, SortsHeavyDuplicates) {
  auto data = RandomPacked(5000, 77, /*key_domain=*/7);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  sort::SortPacked(data.data(), data.size(), options());
  EXPECT_EQ(data, expected);
}

TEST_P(SortPathTest, SortsPresortedAndReversed) {
  auto data = RandomPacked(2048, 5);
  std::sort(data.begin(), data.end());
  auto expected = data;
  sort::SortPacked(data.data(), data.size(), options());
  EXPECT_EQ(data, expected);
  std::reverse(data.begin(), data.end());
  sort::SortPacked(data.data(), data.size(), options());
  EXPECT_EQ(data, expected);
}

TEST_P(SortPathTest, SortTuplesOrdersByKeyThenTs) {
  std::vector<Tuple> tuples = {{.ts = 9, .key = 2}, {.ts = 1, .key = 2},
                               {.ts = 5, .key = 1}, {.ts = 0, .key = 3}};
  sort::SortTuples(tuples.data(), tuples.size(), options());
  EXPECT_EQ(tuples[0].key, 1u);
  EXPECT_EQ(tuples[1].key, 2u);
  EXPECT_EQ(tuples[1].ts, 1u);
  EXPECT_EQ(tuples[2].ts, 9u);
  EXPECT_EQ(tuples[3].key, 3u);
}

TEST_P(SortPathTest, MergePreservesMultiset) {
  for (auto [na, nb] : std::vector<std::pair<size_t, size_t>>{
           {0, 10}, {10, 0}, {1, 1}, {100, 1000}, {777, 778}}) {
    auto a = RandomPacked(na, 11);
    auto b = RandomPacked(nb, 13);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint64_t> out(na + nb);
    sort::MergePacked(a.data(), na, b.data(), nb, out.data(), options());
    std::vector<uint64_t> expected;
    expected.insert(expected.end(), a.begin(), a.end());
    expected.insert(expected.end(), b.begin(), b.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(out, expected) << na << "+" << nb;
  }
}

TEST_P(SortPathTest, MergeAdversarialPatterns) {
  const auto check = [&](std::vector<uint64_t> a, std::vector<uint64_t> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint64_t> out(a.size() + b.size());
    sort::MergePacked(a.data(), a.size(), b.data(), b.size(), out.data(),
                      options());
    std::vector<uint64_t> expected(out.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    ASSERT_EQ(out, expected);
  };

  // All of A below all of B, and vice versa (one-sided drains).
  std::vector<uint64_t> low(100), high(100);
  for (size_t i = 0; i < 100; ++i) {
    low[i] = i;
    high[i] = 1000 + i;
  }
  check(low, high);
  check(high, low);

  // Strict interleave (maximum refill alternation).
  std::vector<uint64_t> even(64), odd(64);
  for (size_t i = 0; i < 64; ++i) {
    even[i] = 2 * i;
    odd[i] = 2 * i + 1;
  }
  check(even, odd);

  // Block pattern: runs of 5 from each (exercises the hi-register buffer).
  std::vector<uint64_t> blk_a, blk_b;
  for (uint64_t block = 0; block < 40; ++block) {
    for (uint64_t i = 0; i < 5; ++i) {
      (block % 2 == 0 ? blk_a : blk_b).push_back(block * 100 + i);
    }
  }
  check(blk_a, blk_b);

  // One huge straggler in an otherwise-small run.
  std::vector<uint64_t> small = {1, 2, 3, 4, 5, 6, 7, 1u << 30};
  check(small, RandomPacked(200, 42));

  // Everything equal (ties must not drop or duplicate elements).
  check(std::vector<uint64_t>(50, 7), std::vector<uint64_t>(60, 7));
}

TEST_P(SortPathTest, MergeFuzzAgainstStdMerge) {
  Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    const size_t na = rng.NextBounded(300);
    const size_t nb = rng.NextBounded(300);
    auto a = RandomPacked(na, rng.Next(), /*key_domain=*/1 << 8);
    auto b = RandomPacked(nb, rng.Next(), /*key_domain=*/1 << 8);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint64_t> out(na + nb);
    sort::MergePacked(a.data(), na, b.data(), nb, out.data(), options());
    std::vector<uint64_t> expected(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    ASSERT_EQ(out, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(SimdAndScalar, SortPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "simd" : "scalar";
                         });

TEST(MultiwayMerge, MergesKRunsOfUnequalLength) {
  std::vector<std::vector<uint64_t>> runs_data;
  std::vector<uint64_t> expected;
  for (size_t k = 0; k < 7; ++k) {
    auto run = RandomPacked(100 * k + 1, 100 + k);
    std::sort(run.begin(), run.end());
    expected.insert(expected.end(), run.begin(), run.end());
    runs_data.push_back(std::move(run));
  }
  std::sort(expected.begin(), expected.end());
  std::vector<sort::Run> runs;
  for (const auto& r : runs_data) runs.push_back({r.data(), r.size()});
  std::vector<uint64_t> out(expected.size());
  sort::MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, expected);
}

TEST(MultiwayMerge, SingleAndEmptyRuns) {
  auto run = RandomPacked(100, 1);
  std::sort(run.begin(), run.end());
  std::vector<sort::Run> runs = {{run.data(), run.size()},
                                 {nullptr, 0},
                                 {run.data(), 0}};
  std::vector<uint64_t> out(run.size());
  sort::MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, run);
}

TEST(MultiPassMerge, MatchesMultiwayResult) {
  for (size_t num_runs : {1, 2, 3, 4, 5, 8}) {
    std::vector<std::vector<uint64_t>> runs_data;
    size_t total = 0;
    for (size_t k = 0; k < num_runs; ++k) {
      auto run = RandomPacked(50 + 37 * k, 200 + k);
      std::sort(run.begin(), run.end());
      total += run.size();
      runs_data.push_back(std::move(run));
    }
    std::vector<sort::Run> runs;
    for (const auto& r : runs_data) runs.push_back({r.data(), r.size()});
    std::vector<uint64_t> via_multiway(total), via_multipass(total);
    sort::MultiwayMerge(runs, via_multiway.data());
    sort::MultiPassMerge(runs, via_multipass.data(), sort::Options{true});
    EXPECT_EQ(via_multipass, via_multiway) << num_runs << " runs";
  }
}

}  // namespace
}  // namespace iawj
