#include "src/serve/protocol.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace iawj::serve {

namespace {

// Spec keys carried by the hello frame. Kept in one place so ToHelloJson
// and FromHello cannot drift: a knob serialized but not parsed (or vice
// versa) would silently break the serve-vs-offline differential.
constexpr char kKeyTenant[] = "tenant";
constexpr char kKeyAlgo[] = "algo";

double NumberOr(const json::Value& msg, const char* key, double fallback) {
  const json::Value* v = msg.Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

bool BoolOr(const json::Value& msg, const char* key, bool fallback) {
  const json::Value* v = msg.Find(key);
  return v != nullptr && v->kind == json::Value::Kind::kBool ? v->boolean
                                                             : fallback;
}

std::string StringOr(const json::Value& msg, const char* key,
                     const std::string& fallback) {
  const json::Value* v = msg.Find(key);
  return v != nullptr && v->is_string() ? v->string : fallback;
}

// Checksums are full 64-bit Mix64 values; a JSON number round-trips through
// a double and silently loses everything past 2^53, so the wire carries
// them as decimal strings. Accepts a number too (older/looser senders).
uint64_t U64Or(const json::Value& msg, const char* key, uint64_t fallback) {
  const json::Value* v = msg.Find(key);
  if (v == nullptr) return fallback;
  if (v->is_number()) return static_cast<uint64_t>(v->number);
  if (!v->is_string() || v->string.empty()) return fallback;
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(v->string.c_str(), &end, 10);
  return end != nullptr && *end == '\0' ? parsed : fallback;
}

}  // namespace

bool ParseAlgorithmName(const std::string& name, AlgorithmId* id) {
  for (AlgorithmId candidate : kAllAlgorithms) {
    std::string label(AlgorithmName(candidate));
    for (auto& c : label) c = static_cast<char>(std::tolower(c));
    if (label == name) {
      *id = candidate;
      return true;
    }
  }
  if (name == "hhj") {
    *id = AlgorithmId::kHhj;
    return true;
  }
  return false;
}

bool ParseStatusCodeName(const std::string& name, StatusCode* code) {
  for (StatusCode candidate :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kDataLoss, StatusCode::kInternal}) {
    if (StatusCodeName(candidate) == name) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

Status TenantSpec::Validate() const {
  if (name.empty() || name.size() > 64) {
    return Status::InvalidArgument(
        "tenant name must be 1..64 characters, got '" + name + "'");
  }
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '-' || c == '_' || c == '.';
    if (!ok) {
      return Status::InvalidArgument("tenant name '" + name +
                                     "' has characters outside [a-zA-Z0-9._-]");
    }
  }
  return spec.Validate(algo);
}

std::string TenantSpec::ToHelloJson() const {
  std::string algo_name(AlgorithmName(algo));
  for (auto& c : algo_name) c = static_cast<char>(std::tolower(c));
  json::Writer w;
  w.BeginObject();
  w.Field("op", "hello");
  w.Field(kKeyTenant, name);
  w.Field(kKeyAlgo, algo_name);
  w.Field("window_ms", uint64_t{spec.window_ms});
  w.Field("threads", int64_t{spec.num_threads});
  w.Field("radix_bits", int64_t{spec.radix_bits});
  w.Field("radix_passes", int64_t{spec.radix_passes});
  w.Field("pmj_delta", spec.pmj_delta);
  w.Field("jb_group_size", int64_t{spec.jb_group_size});
  w.Field("kernels", KernelModeName(spec.kernels));
  w.Field("scheduler", std::string(SchedulerModeName(spec.scheduler)));
  w.Field("morsel_size", uint64_t{spec.morsel_size});
  w.Field("deadline_ms", uint64_t{spec.deadline_ms});
  w.Field("retry", int64_t{spec.retry_max_attempts});
  w.Field("retry_backoff_ms", spec.retry_backoff_ms);
  w.Field("fallback", spec.fallback_enabled);
  w.Field("skip_windows", spec.skip_failed_windows);
  w.Field("shed_watermark_per_ms", spec.shed_watermark_per_ms);
  w.Field("supervisor_seed", uint64_t{spec.supervisor_seed});
  w.Field("disorder_slack_ms", spec.disorder_slack_ms);
  w.Field("allowed_lateness_ms", spec.allowed_lateness_ms);
  w.Field("ingest_dedup", spec.ingest_dedup);
  w.EndObject();
  return w.str();
}

Status TenantSpec::FromHello(const json::Value& message, TenantSpec* out) {
  TenantSpec tenant;
  tenant.name = StringOr(message, kKeyTenant, "");
  const std::string algo = StringOr(message, kKeyAlgo, "npj");
  if (!ParseAlgorithmName(algo, &tenant.algo)) {
    return Status::InvalidArgument("hello names unknown algorithm '" + algo +
                                   "'");
  }
  JoinSpec& spec = tenant.spec;
  spec.window_ms =
      static_cast<uint32_t>(NumberOr(message, "window_ms", spec.window_ms));
  spec.num_threads =
      static_cast<int>(NumberOr(message, "threads", spec.num_threads));
  spec.radix_bits =
      static_cast<int>(NumberOr(message, "radix_bits", spec.radix_bits));
  spec.radix_passes =
      static_cast<int>(NumberOr(message, "radix_passes", spec.radix_passes));
  spec.pmj_delta = NumberOr(message, "pmj_delta", spec.pmj_delta);
  spec.jb_group_size =
      static_cast<int>(NumberOr(message, "jb_group_size", spec.jb_group_size));
  if (const std::string kernels = StringOr(message, "kernels", "auto");
      !ParseKernelMode(kernels, &spec.kernels)) {
    return Status::InvalidArgument("hello names unknown kernels mode '" +
                                   kernels + "'");
  }
  if (const std::string scheduler = StringOr(message, "scheduler", "auto");
      !ParseSchedulerMode(scheduler, &spec.scheduler)) {
    return Status::InvalidArgument("hello names unknown scheduler mode '" +
                                   scheduler + "'");
  }
  spec.morsel_size =
      static_cast<size_t>(NumberOr(message, "morsel_size", 0));
  spec.deadline_ms =
      static_cast<uint32_t>(NumberOr(message, "deadline_ms", 0));
  spec.retry_max_attempts =
      static_cast<int>(NumberOr(message, "retry", spec.retry_max_attempts));
  spec.retry_backoff_ms =
      NumberOr(message, "retry_backoff_ms", spec.retry_backoff_ms);
  spec.fallback_enabled =
      BoolOr(message, "fallback", spec.fallback_enabled);
  spec.skip_failed_windows =
      BoolOr(message, "skip_windows", spec.skip_failed_windows);
  spec.shed_watermark_per_ms =
      NumberOr(message, "shed_watermark_per_ms", spec.shed_watermark_per_ms);
  spec.supervisor_seed = static_cast<uint64_t>(
      NumberOr(message, "supervisor_seed", 42));
  spec.disorder_slack_ms =
      NumberOr(message, "disorder_slack_ms", spec.disorder_slack_ms);
  spec.allowed_lateness_ms =
      NumberOr(message, "allowed_lateness_ms", spec.allowed_lateness_ms);
  spec.ingest_dedup = BoolOr(message, "ingest_dedup", spec.ingest_dedup);
  if (const Status status = tenant.Validate(); !status.ok()) return status;
  *out = std::move(tenant);
  return Status::Ok();
}

std::string OkJson() {
  json::Writer w;
  w.BeginObject().Field("op", "ok").EndObject();
  return w.str();
}

std::string ErrorJson(const Status& status) {
  json::Writer w;
  w.BeginObject();
  w.Field("op", "error");
  w.Field("code", std::string(StatusCodeName(status.code())));
  w.Field("message", std::string(status.message()));
  w.EndObject();
  return w.str();
}

std::string BatchJson(std::span<const Tuple> r, std::span<const Tuple> s) {
  json::Writer w;
  w.BeginObject();
  w.Field("op", "batch");
  const auto write_stream = [&w](const char* key,
                                 std::span<const Tuple> tuples) {
    w.Key(key).BeginArray();
    for (const Tuple& t : tuples) {
      w.BeginArray().Uint(t.ts).Uint(t.key).EndArray();
    }
    w.EndArray();
  };
  write_stream("r", r);
  write_stream("s", s);
  w.EndObject();
  return w.str();
}

std::string EndJson() {
  json::Writer w;
  w.BeginObject().Field("op", "end").EndObject();
  return w.str();
}

std::string WindowJson(const WindowResult& window) {
  json::Writer w;
  w.BeginObject();
  w.Field("op", "window");
  w.Field("window_index", uint64_t{window.window_index});
  w.Field("window_start_ms", uint64_t{window.window_start_ms});
  w.Field("algorithm", window.algorithm);
  w.Field("status", window.status_code);
  if (!window.status_message.empty()) {
    w.Field("message", window.status_message);
  }
  w.Field("inputs", uint64_t{window.inputs});
  w.Field("matches", uint64_t{window.matches});
  w.Field("checksum", std::to_string(window.checksum));
  w.Field("recovered", window.recovered);
  w.Field("degraded", window.degraded);
  w.Field("wait_ms", window.wait_ms);
  w.Field("worker", int64_t{window.worker});
  w.Field("stolen", window.stolen);
  w.EndObject();
  return w.str();
}

std::string ByeJson(const std::string& tenant, uint64_t windows,
                    uint64_t inputs, uint64_t matches, uint64_t checksum,
                    bool recovered, bool degraded) {
  json::Writer w;
  w.BeginObject();
  w.Field("op", "bye");
  w.Field("tenant", tenant);
  w.Field("windows", uint64_t{windows});
  w.Field("inputs", uint64_t{inputs});
  w.Field("matches", uint64_t{matches});
  w.Field("checksum", std::to_string(checksum));
  w.Field("recovered", recovered);
  w.Field("degraded", degraded);
  w.EndObject();
  return w.str();
}

Status ParseBatch(const json::Value& message, std::vector<Tuple>* r,
                  std::vector<Tuple>* s) {
  const auto parse_stream = [&message](const char* key,
                                       std::vector<Tuple>* out) -> Status {
    const json::Value* tuples = message.Find(key);
    if (tuples == nullptr) return Status::Ok();  // one-sided batches are fine
    if (!tuples->is_array()) {
      return Status::InvalidArgument(std::string("batch '") + key +
                                     "' is not an array");
    }
    // Both fields must be integers a uint32_t holds exactly: a cast would
    // silently turn 5e9 into 4294967295 and 1.5 into 1.
    const auto is_u32 = [](const json::Value& v) {
      return v.is_number() && v.number >= 0 && v.number <= 4294967295.0 &&
             v.number == std::floor(v.number);
    };
    out->reserve(out->size() + tuples->array.size());
    for (const json::Value& entry : tuples->array) {
      if (!entry.is_array() || entry.array.size() != 2 ||
          !is_u32(entry.array[0]) || !is_u32(entry.array[1])) {
        return Status::InvalidArgument(
            std::string("batch '") + key +
            "' tuples must be [ts, key] pairs of integers in [0, 2^32 - 1]");
      }
      out->push_back(Tuple{static_cast<uint32_t>(entry.array[0].number),
                           static_cast<uint32_t>(entry.array[1].number)});
    }
    return Status::Ok();
  };
  if (const Status status = parse_stream("r", r); !status.ok()) return status;
  return parse_stream("s", s);
}

Status ParseWindow(const json::Value& message, WindowResult* out) {
  WindowResult window;
  window.window_index =
      static_cast<uint64_t>(NumberOr(message, "window_index", 0));
  window.window_start_ms =
      static_cast<uint64_t>(NumberOr(message, "window_start_ms", 0));
  window.algorithm = StringOr(message, "algorithm", "");
  window.status_code = StringOr(message, "status", "");
  window.status_message = StringOr(message, "message", "");
  window.inputs = static_cast<uint64_t>(NumberOr(message, "inputs", 0));
  window.matches = static_cast<uint64_t>(NumberOr(message, "matches", 0));
  window.checksum = U64Or(message, "checksum", 0);
  window.recovered = BoolOr(message, "recovered", false);
  window.degraded = BoolOr(message, "degraded", false);
  window.wait_ms = NumberOr(message, "wait_ms", 0);
  window.worker = static_cast<int>(NumberOr(message, "worker", -1));
  window.stolen = BoolOr(message, "stolen", false);
  if (window.status_code.empty()) {
    return Status::InvalidArgument("window frame without a status");
  }
  *out = std::move(window);
  return Status::Ok();
}

Status ParseError(const json::Value& message) {
  const std::string code_name = StringOr(message, "code", "internal");
  StatusCode code = StatusCode::kInternal;
  if (!ParseStatusCodeName(code_name, &code) || code == StatusCode::kOk) {
    code = StatusCode::kInternal;
  }
  return Status(code, StringOr(message, "message", "server error"));
}

Status WriteFrame(int fd, const std::string& json) {
  std::string framed = json;
  framed.push_back('\n');
  size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FailedPrecondition(std::string("socket write failed: ") +
                                        std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FrameReader::ReadFrame(std::string* frame, bool* eof,
                              int poll_timeout_ms, bool* timed_out) {
  *eof = false;
  if (timed_out != nullptr) *timed_out = false;
  for (;;) {
    if (const size_t nl = buffer_.find('\n'); nl != std::string::npos) {
      frame->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return Status::Ok();
    }
    if (buffer_.size() > max_frame_bytes_) {
      return Status::InvalidArgument(
          "frame exceeds the " + std::to_string(max_frame_bytes_) +
          "-byte framing limit without a newline");
    }
    if (poll_timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, poll_timeout_ms);
      if (ready < 0 && errno != EINTR) {
        return Status::FailedPrecondition(std::string("poll failed: ") +
                                          std::strerror(errno));
      }
      if (ready <= 0) {
        if (timed_out != nullptr) *timed_out = true;
        return Status::Ok();
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FailedPrecondition(std::string("socket read failed: ") +
                                        std::strerror(errno));
    }
    if (n == 0) {
      // A half frame at EOF is a torn peer, not an orderly close.
      if (!buffer_.empty()) {
        return Status::DataLoss("connection closed mid-frame");
      }
      *eof = true;
      return Status::Ok();
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status FrameReader::ReadMessage(json::Value* message, bool* eof) {
  std::string frame;
  if (const Status status = ReadFrame(&frame, eof); !status.ok()) {
    return status;
  }
  if (*eof) return Status::Ok();
  return json::Parse(frame, message);
}

}  // namespace iawj::serve
