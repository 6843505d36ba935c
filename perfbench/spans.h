// In-memory span log for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into an
// engine layer (datagen, window pipeline, runner, ingest, protocol, client).
// Each span carries a name, start, end, parent and a request id; nothing is
// written until the run ends. When the log is disabled every call is a
// no-op, so the untraced run pays one branch per boundary.
#ifndef IAWJ_PERFBENCH_SPANS_H_
#define IAWJ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace perfbench {

// Milliseconds on the steady clock since the first call in this process.
inline double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;  // index into the log, -1 for a root span
  std::string request;  // window index, or tenant plus batch sequence
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span now; returns its id (-1 when disabled).
  int64_t Begin(std::string name, int64_t parent, std::string request) {
    if (!enabled_) return -1;
    const double now = NowMs();
    return Add(std::move(name), parent, std::move(request), now, now);
  }

  void End(int64_t id) {
    if (id < 0) return;
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
  }

  // Records a span whose bounds were measured elsewhere.
  int64_t Add(std::string name, int64_t parent, std::string request,
              double start_ms, double end_ms) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {std::move(name), start_ms, end_ms, parent, std::move(request)});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Writes the spans as a JSON array of objects (id is the array index).
  void WriteJson(iawj::json::Writer* w) const {
    std::lock_guard<std::mutex> lock(mu_);
    w->BeginArray();
    for (const Span& s : spans_) {
      w->BeginObject();
      w->Field("name", s.name);
      w->Field("start_ms", s.start_ms);
      w->Field("end_ms", s.end_ms);
      w->Field("parent", s.parent);
      w->Field("request", s.request);
      w->EndObject();
    }
    w->EndArray();
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII form of Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent,
             std::string request = "")
      : log_(log),
        id_(log->Begin(std::move(name), parent, std::move(request))) {}
  ~ScopedSpan() { log_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // IAWJ_PERFBENCH_SPANS_H_
