#include "src/serve/protocol.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace iawj::serve {

namespace {

// Spec keys carried by the hello frame. Kept in one place so ToHelloJson
// and FromHello cannot drift: a knob serialized but not parsed (or vice
// versa) would silently break the serve-vs-offline differential.
constexpr char kKeyTenant[] = "tenant";
constexpr char kKeyAlgo[] = "algo";

// The canonical batch frame around its two tuple arrays, shared by
// BatchJson and ScanBatchFrame so the writer and the fast lane cannot drift.
constexpr std::string_view kBatchHead = R"({"op":"batch","r":)";
constexpr std::string_view kBatchMid = R"(,"s":)";

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

// The largest integer every double below it represents exactly: a JSON
// number past it may already have been rounded by the parser.
constexpr double kMaxExactInteger = 9007199254740991.0;  // 2^53 - 1

// Reads an integer field into *out (left alone when absent). Like
// ParseBatch's fields, it must be an integer the field's type holds
// exactly: a cast would turn 2.5 into 2, -1 into SIZE_MAX and 2^32 + 1
// into 2^32 - 1.
template <typename T>
Status IntegerField(const json::Value& msg, const char* key, T* out) {
  const json::Value* v = msg.Find(key);
  if (v == nullptr) return Status::Ok();
  const double lo =
      std::max(static_cast<double>(std::numeric_limits<T>::min()),
               -kMaxExactInteger);
  const double hi = std::min(
      static_cast<double>(std::numeric_limits<T>::max()), kMaxExactInteger);
  if (!v->is_number() || v->number < lo || v->number > hi ||
      v->number != std::floor(v->number)) {
    return Status::InvalidArgument(
        std::string("field '") + key + "' must be an integer in [" +
        std::to_string(static_cast<int64_t>(lo)) + ", " +
        std::to_string(static_cast<int64_t>(hi)) + "]");
  }
  *out = static_cast<T>(v->number);
  return Status::Ok();
}

// Checksums and the supervisor seed are full 64-bit values; a JSON number
// round-trips through a double and loses everything past 2^53, so the wire
// carries them as decimal strings. A number still reads while it is exact.
Status U64Field(const json::Value& msg, const char* key, uint64_t* out) {
  const json::Value* v = msg.Find(key);
  if (v == nullptr || !v->is_string()) return IntegerField(msg, key, out);
  const char* first = v->string.data();
  const char* last = first + v->string.size();
  uint64_t parsed = 0;
  const auto [end, err] = std::from_chars(first, last, parsed);
  if (first == last || err != std::errc() || end != last) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be a decimal string in [0, 2^64)");
  }
  *out = parsed;
  return Status::Ok();
}

// The widest tuple BatchJson writes, with its separating comma.
constexpr size_t kMaxTupleBytes = sizeof("[4294967295,4294967295],") - 1;

// Writes `tuples` as [[ts,key],...] at `p`, which has room for
// kMaxTupleBytes per tuple plus the brackets; returns the new end.
char* WriteTuples(char* p, std::span<const Tuple> tuples) {
  *p++ = '[';
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) *p++ = ',';
    *p++ = '[';
    p = std::to_chars(p, p + 10, tuples[i].ts).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + 10, tuples[i].key).ptr;
    *p++ = ']';
  }
  *p++ = ']';
  return p;
}

// Scans one canonical number, 0 or [1-9][0-9]{0,9} at most 2^32 - 1, that
// must be followed by `next`. Leading zeros, signs, fractions, exponents
// and 11-digit numbers all fail on that following byte.
bool ScanU32(const char*& p, const char* end, char next, uint32_t* out) {
  if (p == end || *p < '0' || *p > '9') return false;
  uint64_t value = static_cast<uint64_t>(*p++ - '0');
  if (value != 0) {
    for (int digits = 1; digits < 10 && p != end && *p >= '0' && *p <= '9';
         ++digits) {
      value = value * 10 + static_cast<uint64_t>(*p++ - '0');
    }
  }
  if (value > std::numeric_limits<uint32_t>::max() || p == end ||
      *p != next) {
    return false;
  }
  ++p;
  *out = static_cast<uint32_t>(value);
  return true;
}

// Scans one canonical tuple array, [] or [[ts,key](,[ts,key])*].
bool ScanTuples(const char*& p, const char* end, std::vector<Tuple>* out) {
  if (p == end || *p++ != '[') return false;
  if (p != end && *p == ']') {
    ++p;
    return true;
  }
  for (;;) {
    Tuple t;
    if (p == end || *p++ != '[' || !ScanU32(p, end, ',', &t.ts) ||
        !ScanU32(p, end, ']', &t.key)) {
      return false;
    }
    out->push_back(t);
    if (p == end) return false;
    const char c = *p++;
    if (c == ']') return true;
    if (c != ',') return false;
  }
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
  w.Field("supervisor_seed", std::to_string(spec.supervisor_seed));
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
  for (const Status& status :
       {IntegerField(message, "window_ms", &spec.window_ms),
        IntegerField(message, "threads", &spec.num_threads),
        IntegerField(message, "radix_bits", &spec.radix_bits),
        IntegerField(message, "radix_passes", &spec.radix_passes),
        IntegerField(message, "jb_group_size", &spec.jb_group_size),
        IntegerField(message, "morsel_size", &spec.morsel_size),
        IntegerField(message, "deadline_ms", &spec.deadline_ms),
        IntegerField(message, "retry", &spec.retry_max_attempts),
        U64Field(message, "supervisor_seed", &spec.supervisor_seed)}) {
    if (!status.ok()) return status;
  }
  spec.pmj_delta = NumberOr(message, "pmj_delta", spec.pmj_delta);
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
  spec.retry_backoff_ms =
      NumberOr(message, "retry_backoff_ms", spec.retry_backoff_ms);
  spec.fallback_enabled =
      BoolOr(message, "fallback", spec.fallback_enabled);
  spec.skip_failed_windows =
      BoolOr(message, "skip_windows", spec.skip_failed_windows);
  spec.shed_watermark_per_ms =
      NumberOr(message, "shed_watermark_per_ms", spec.shed_watermark_per_ms);
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
  // Sized for the widest tuples, then trimmed to what was written.
  std::string out(kBatchHead.size() + kBatchMid.size() + 5 +
                      (r.size() + s.size()) * kMaxTupleBytes,
                  '\0');
  char* p = std::copy(kBatchHead.begin(), kBatchHead.end(), out.data());
  p = WriteTuples(p, r);
  p = std::copy(kBatchMid.begin(), kBatchMid.end(), p);
  p = WriteTuples(p, s);
  *p++ = '}';
  out.resize(static_cast<size_t>(p - out.data()));
  return out;
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

bool ScanBatchFrame(std::string_view frame, std::vector<Tuple>* r,
                    std::vector<Tuple>* s) {
  r->clear();
  s->clear();
  if (!frame.ends_with('}')) return false;
  const char* p = frame.data();
  const char* const end = p + frame.size() - 1;  // the closing '}'
  const auto consume = [&p, end](std::string_view token) {
    if (static_cast<size_t>(end - p) < token.size() ||
        !std::equal(token.begin(), token.end(), p)) {
      return false;
    }
    p += token.size();
    return true;
  };
  if (consume(kBatchHead) && ScanTuples(p, end, r) && consume(kBatchMid) &&
      ScanTuples(p, end, s) && p == end) {
    return true;
  }
  r->clear();
  s->clear();
  return false;
}

Status TenantFrame::Decode(std::string_view text) {
  message_ = json::Value();
  scanned_ = ScanBatchFrame(text, &r_, &s_);
  if (scanned_) {
    op_ = "batch";
    return Status::Ok();
  }
  op_.clear();
  if (Status parsed = json::Parse(text, &message_); !parsed.ok()) {
    return parsed;
  }
  if (const json::Value* op = message_.Find("op")) op_ = op->string;
  return Status::Ok();
}

Status TenantFrame::TakeBatch(std::vector<Tuple>* r, std::vector<Tuple>* s) {
  if (!scanned_) return ParseBatch(message_, r, s);
  *r = std::move(r_);
  *s = std::move(s_);
  r_.clear();
  s_.clear();
  return Status::Ok();
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
  if (const Status status = U64Field(message, "checksum", &window.checksum);
      !status.ok()) {
    return status;
  }
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
  char newline = '\n';
  iovec parts[2] = {{const_cast<char*>(json.data()), json.size()},
                    {&newline, 1}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  while (message.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FailedPrecondition(std::string("socket write failed: ") +
                                        std::strerror(errno));
    }
    // Step past what was sent; a short send resumes mid-part.
    for (size_t sent = static_cast<size_t>(n); message.msg_iovlen > 0;) {
      iovec& part = message.msg_iov[0];
      if (sent < part.iov_len) {
        part.iov_base = static_cast<char*>(part.iov_base) + sent;
        part.iov_len -= sent;
        break;
      }
      sent -= part.iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
  }
  return Status::Ok();
}

Status FrameReader::ReadFrame(std::string* frame, bool* eof,
                              int poll_timeout_ms, bool* timed_out) {
  *eof = false;
  if (timed_out != nullptr) *timed_out = false;
  for (;;) {
    // Bytes before searched_ were searched after an earlier read.
    if (const size_t nl = buffer_.find('\n', searched_);
        nl != std::string::npos) {
      frame->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      searched_ = 0;
      return Status::Ok();
    }
    searched_ = buffer_.size();
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
    // Read straight into the buffer, never past one byte over the limit:
    // that byte is what tells a frame at the limit from one beyond it.
    const size_t held = buffer_.size();
    const size_t room = max_frame_bytes_ - held;
    const size_t want = room < kReadBytes ? room + 1 : kReadBytes;
    buffer_.resize(held + want);
    const ssize_t n = ::read(fd_, buffer_.data() + held, want);
    const int read_errno = errno;
    buffer_.resize(held + static_cast<size_t>(std::max<ssize_t>(n, 0)));
    if (n < 0) {
      if (read_errno == EINTR) continue;
      return Status::FailedPrecondition(std::string("socket read failed: ") +
                                        std::strerror(read_errno));
    }
    if (n == 0) {
      // A half frame at EOF is a torn peer, not an orderly close.
      if (!buffer_.empty()) {
        return Status::DataLoss("connection closed mid-frame");
      }
      *eof = true;
      return Status::Ok();
    }
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
