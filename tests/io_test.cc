// Tests for workload persistence (binary and CSV round trips).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/common/rng.h"
#include "src/io/workload_io.h"

namespace iawj {
namespace {

Stream RandomStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples(n);
  for (auto& t : tuples) {
    t.key = static_cast<uint32_t>(rng.NextBounded(1u << 20));
    t.ts = static_cast<uint32_t>(rng.NextBounded(1000));
  }
  return MakeStream(std::move(tuples));
}

TEST(WorkloadIo, BinaryRoundTrip) {
  const std::string path = testing::TempDir() + "/iawj_io_test.bin";
  const Stream original = RandomStream(5000, 1);
  ASSERT_TRUE(io::SaveStream(original, path).ok());
  Stream loaded;
  ASSERT_TRUE(io::LoadStream(path, &loaded).ok());
  EXPECT_EQ(loaded.tuples, original.tuples);
  std::remove(path.c_str());
}

TEST(WorkloadIo, CsvRoundTrip) {
  const std::string path = testing::TempDir() + "/iawj_io_test.csv";
  const Stream original = RandomStream(1000, 2);
  ASSERT_TRUE(io::SaveStreamCsv(original, path).ok());
  Stream loaded;
  ASSERT_TRUE(io::LoadStreamCsv(path, &loaded).ok());
  EXPECT_EQ(loaded.tuples, original.tuples);
  std::remove(path.c_str());
}

TEST(WorkloadIo, EmptyStreamRoundTrips) {
  const std::string path = testing::TempDir() + "/iawj_io_empty.bin";
  ASSERT_TRUE(io::SaveStream(Stream{}, path).ok());
  Stream loaded = RandomStream(3, 3);  // pre-populated: must be replaced
  ASSERT_TRUE(io::LoadStream(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(WorkloadIo, RejectsMissingFile) {
  Stream s;
  EXPECT_FALSE(io::LoadStream("/nonexistent/iawj.bin", &s).ok());
  EXPECT_FALSE(io::LoadStreamCsv("/nonexistent/iawj.csv", &s).ok());
}

TEST(WorkloadIo, RejectsWrongMagic) {
  const std::string path = testing::TempDir() + "/iawj_io_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a stream file at all";
  }
  Stream s;
  const Status status = io::LoadStream(path, &s);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(WorkloadIo, RejectsMalformedCsv) {
  const std::string path = testing::TempDir() + "/iawj_io_bad.csv";
  {
    std::ofstream out(path);
    out << "ts,key\n10,5\nnot-a-row-without-comma\n";
  }
  Stream s;
  EXPECT_FALSE(io::LoadStreamCsv(path, &s).ok());
  std::remove(path.c_str());
}

// Values a uint32_t cast would silently wrap, and keys past the engine's
// key domain, are refused with the path and line instead of loading as
// some other tuple.
TEST(WorkloadIo, CsvRejectsValuesOutsideTheTupleDomain) {
  const std::string path = testing::TempDir() + "/iawj_io_domain.csv";
  for (const char* row : {"1,-1", "1,4294967296", "4294967297,1",
                          "1,2147483648"}) {
    SCOPED_TRACE(row);
    {
      std::ofstream out(path);
      out << "ts,key\n10,5\n" << row << "\n";
    }
    Stream s;
    const Status status = io::LoadStreamCsv(path, &s);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find(path + ":3"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(WorkloadIo, BinaryRejectsKeysOutsideTheKeyDomain) {
  const std::string path = testing::TempDir() + "/iawj_io_domain.bin";
  Stream stream = RandomStream(100, 4);
  stream.tuples[42].key = kKeyDomainLimit;
  ASSERT_TRUE(io::SaveStream(stream, path).ok());
  Stream loaded;
  const Status status = io::LoadStream(path, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(WorkloadIo, LoaderSortsExternallyProducedFiles) {
  const std::string path = testing::TempDir() + "/iawj_io_unsorted.csv";
  {
    std::ofstream out(path);
    out << "ts,key\n50,1\n10,2\n30,3\n";
  }
  Stream s;
  ASSERT_TRUE(io::LoadStreamCsv(path, &s).ok());
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.tuples[0].ts, 10u);
  EXPECT_EQ(s.tuples[2].ts, 50u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iawj
