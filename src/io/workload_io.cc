#include "src/io/workload_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/fault.h"

namespace iawj::io {

namespace {

constexpr char kMagic[8] = {'I', 'A', 'W', 'J', 'S', 'T', 'R', '1'};

// Leading blanks, then unsigned decimal digits only: strtoul would also
// accept a sign ("-1" wraps to 2^64 - 1) and saturate on overflow.
bool ParseDecimal(const std::string& field, uint64_t* out) {
  const size_t begin = field.find_first_not_of(" \t");
  if (begin == std::string::npos || field.size() - begin > 19) return false;
  uint64_t value = 0;
  for (size_t i = begin; i < field.size(); ++i) {
    const char c = field[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

Status SaveStream(const Stream& stream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::FailedPrecondition("cannot open " + path + " for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  const uint64_t count = stream.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(stream.tuples.data()),
            static_cast<std::streamsize>(count * sizeof(Tuple)));
  return out.good() ? Status::Ok()
                    : Status::FailedPrecondition("write to " + path +
                                                 " failed");
}

Status LoadStream(const std::string& path, Stream* stream) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::FailedPrecondition("cannot open " + path);
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an IAWJ stream file");
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::DataLoss(path + ": truncated header");

  // Sanity-check the header count against the bytes actually present before
  // sizing the tuple vector: a corrupt count field must not turn into a
  // multi-gigabyte allocation.
  const std::streampos data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos data_end = in.tellg();
  in.seekg(data_begin);
  const uint64_t available =
      data_end >= data_begin
          ? static_cast<uint64_t>(data_end - data_begin)
          : 0;
  if (available < count * sizeof(Tuple)) {
    return Status::DataLoss(path + ": header promises " +
                            std::to_string(count) + " tuples but only " +
                            std::to_string(available / sizeof(Tuple)) +
                            " are present");
  }

  std::vector<Tuple> tuples(count);
  in.read(reinterpret_cast<char*>(tuples.data()),
          static_cast<std::streamsize>(count * sizeof(Tuple)));
  if (!in) return Status::DataLoss(path + ": truncated tuple data");
  // Fault: the file shrank under us (partial download, torn copy).
  if (fault::Enabled() && fault::Inject("io_truncate")) {
    return Status::DataLoss(path + ": injected truncation mid-read");
  }
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].key >= kKeyDomainLimit) {
      return Status::InvalidArgument(
          path + ": tuple " + std::to_string(i) + " has key " +
          std::to_string(tuples[i].key) + ", outside the key domain [0, 2^31)");
    }
  }
  // Re-sorting makes the loader robust to externally produced files.
  *stream = MakeStream(std::move(tuples));
  return Status::Ok();
}

Status SaveStreamCsv(const Stream& stream, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::FailedPrecondition("cannot open " + path + " for writing");
  }
  out << "ts,key\n";
  for (const Tuple& t : stream.tuples) {
    out << t.ts << "," << t.key << "\n";
  }
  return out.good() ? Status::Ok()
                    : Status::FailedPrecondition("write to " + path +
                                                 " failed");
}

Status LoadStreamCsv(const std::string& path, Stream* stream) {
  std::ifstream in(path);
  if (!in) {
    return Status::FailedPrecondition("cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line) || line.rfind("ts,key", 0) != 0) {
    return Status::InvalidArgument(path + ": missing 'ts,key' header");
  }
  std::vector<Tuple> tuples;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": expected 'ts,key'");
    }
    uint64_t ts = 0, key = 0;
    if (!ParseDecimal(line.substr(0, comma), &ts) ||
        !ParseDecimal(line.substr(comma + 1), &key)) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": non-numeric field in 'ts,key'");
    }
    if (ts > UINT32_MAX || key >= kKeyDomainLimit) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": ts must fit 32 bits and key the key domain [0, 2^31)");
    }
    tuples.push_back(Tuple{static_cast<uint32_t>(ts),
                           static_cast<uint32_t>(key)});
  }
  *stream = MakeStream(std::move(tuples));
  return Status::Ok();
}

}  // namespace iawj::io
