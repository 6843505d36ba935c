// Wire protocol for the iawj_serve daemon (ISSUE 10 tentpole).
//
// Transport is a Unix domain stream socket carrying newline-framed JSON:
// every message is one JSON object terminated by '\n', no other framing.
// The conversation is lockstep per connection, one logical tenant each:
//
//   client                             server
//   ------                             ------
//   {"op":"hello","tenant":...}   ->
//                                 <-   {"op":"ok"} | {"op":"error",...}
//   {"op":"batch","r":[[ts,key],...],"s":[...]}  ->        (repeated)
//                                 <-   {"op":"ok"} | {"op":"error",...}
//   {"op":"end"}                  ->
//                                 <-   {"op":"window",...}  (one per window)
//                                 <-   {"op":"bye",...}
//
// A draining server (SIGTERM) may emit the window/bye tail spontaneously —
// clients must treat a window/bye frame arriving in place of a batch ack as
// "the daemon sealed my stream for me" and stop sending.
//
// The hello carries the tenant spec: the algorithm plus every JoinSpec knob
// that affects the answer or its execution, so a tenant window run inside
// the daemon is byte-identical (matches and checksum) to the same spec run
// offline through iawj_cli. Integer knobs must be integers the knob holds
// exactly (invalid_argument otherwise); supervisor_seed travels as a decimal
// string, like checksums, because a JSON number stops being exact past 2^53.
// Errors carry the engine's stable status-code names ("resource_exhausted",
// ...), so clients recover typed Statuses and the CLI maps them onto its
// usual exit codes.
//
// Batch frames have a canonical fast lane. BatchJson writes one exact shape
// (no whitespace, keys op/r/s in that order, every number 0 or
// [1-9][0-9]{0,9}), and the daemon scans frames of that shape straight into
// tuples (ScanBatchFrame) instead of building a json::Value per tuple and
// per number. Any other frame (whitespace, another key order, one-sided
// batches, 1e3, ...) is still valid wire input: it falls back to json::Parse
// and ParseBatch, the same tuples and the same refusals, only ~20x slower
// per tuple, and the daemon counts it in serve.batches_json_fallback. The
// scan accepts only frames on which that tree parse yields the same tuples,
// so the two lanes cannot disagree.
//
// Frames go out with one sendmsg(MSG_NOSIGNAL) each: a peer that hangs up
// before its reply costs the writer a typed failed_precondition, never a
// SIGPIPE that would take the whole daemon (or iawj_cli --connect) down.
#ifndef IAWJ_SERVE_PROTOCOL_H_
#define IAWJ_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/common/tuple.h"
#include "src/join/context.h"

namespace iawj::serve {

// Parses the lower-case wire name of an algorithm ("npj", "shj-jm", "hhj",
// ...) — the same names iawj_cli's --algo accepts.
bool ParseAlgorithmName(const std::string& name, AlgorithmId* id);

// Maps a wire status-code name back to the enum; false for unknown names.
bool ParseStatusCodeName(const std::string& name, StatusCode* code);

// One logical query: a tenant name plus the algorithm and JoinSpec knobs
// its windows execute under.
struct TenantSpec {
  std::string name;
  AlgorithmId algo = AlgorithmId::kNpj;
  JoinSpec spec;

  // Rejects unusable specs (empty/oversized name, JoinSpec::Validate).
  Status Validate() const;

  // The {"op":"hello",...} frame (no trailing newline).
  std::string ToHelloJson() const;

  // Parses a hello frame. Unknown keys are ignored (forward compatibility);
  // missing keys keep their defaults.
  static Status FromHello(const json::Value& message, TenantSpec* out);
};

// One sealed window's outcome, as reported to the client and mirrored into
// the v9 run record's `serve` block.
struct WindowResult {
  uint64_t window_index = 0;     // tumbling slot: window_start / window_ms
  uint64_t window_start_ms = 0;
  std::string algorithm;         // what finally produced the result
  std::string status_code = "ok";
  std::string status_message;
  uint64_t inputs = 0;
  uint64_t matches = 0;
  uint64_t checksum = 0;
  bool recovered = false;        // supervisor retried / fell back
  bool degraded = false;         // bounded loss (skip/shed/quarantine)
  double wait_ms = 0;            // queue wait: submit -> execution start
  int worker = -1;               // pool worker that executed it
  bool stolen = false;           // executed off the tenant's home worker

  bool ok() const { return status_code == "ok"; }
};

// Frame builders. All return one JSON object without the trailing newline;
// WriteFrame appends it.
std::string OkJson();
std::string ErrorJson(const Status& status);
std::string BatchJson(std::span<const Tuple> r, std::span<const Tuple> s);
std::string EndJson();
std::string WindowJson(const WindowResult& window);
std::string ByeJson(const std::string& tenant, uint64_t windows,
                    uint64_t inputs, uint64_t matches, uint64_t checksum,
                    bool recovered, bool degraded);

// Frame parsers (the "op" key has already been dispatched on).
// ParseBatch reads a batch from its parsed tree: the fallback lane for
// frames ScanBatchFrame does not take, and the reference the scan is tested
// against.
Status ParseBatch(const json::Value& message, std::vector<Tuple>* r,
                  std::vector<Tuple>* s);
Status ParseWindow(const json::Value& message, WindowResult* out);
// Reconstructs the typed Status carried by an {"op":"error"} frame.
Status ParseError(const json::Value& message);

// Scans a canonical batch frame, exactly the bytes BatchJson writes, into
// *r and *s in one pass. Returns false with both cleared for any other
// input: "not canonical", never a refusal.
bool ScanBatchFrame(std::string_view frame, std::vector<Tuple>* r,
                    std::vector<Tuple>* s);

// One frame on a tenant's connection after hello, decoded the way the daemon
// decodes it: a canonical batch takes ScanBatchFrame, any other frame
// json::Parse. The tuples are taken in a second step, after the daemon has
// dispatched on op() and checked for a drain, so the fallback keeps the
// order json::Parse -> op -> drain -> ParseBatch.
class TenantFrame {
 public:
  // Fails, with json::Parse's error, only when the frame is not JSON.
  Status Decode(std::string_view text);

  // "batch" after a scan; otherwise the tree's "op" ("" when absent).
  const std::string& op() const { return op_; }
  // True when the frame took the canonical fast lane.
  bool scanned() const { return scanned_; }

  // Moves a batch frame's tuples out: the scan's, or ParseBatch's.
  Status TakeBatch(std::vector<Tuple>* r, std::vector<Tuple>* s);

 private:
  std::string op_;
  bool scanned_ = false;
  json::Value message_;
  std::vector<Tuple> r_, s_;
};

// --- Framing over a file descriptor ---

// Writes `json` plus the terminating newline with sendmsg(MSG_NOSIGNAL),
// retrying short writes. A closed peer is FailedPrecondition, not SIGPIPE.
// `fd` must be a socket.
Status WriteFrame(int fd, const std::string& json);

// Buffered newline-framed reader. Not thread-safe.
class FrameReader {
 public:
  // The largest frame accepted before a newline arrives. A peer streaming
  // an enormous (or newline-free) frame would otherwise grow the buffer
  // without bound before any admission check sees the message; past the
  // cap ReadFrame fails with InvalidArgument and the caller is expected to
  // drop the connection. The server sizes the cap from its tuple-buffer
  // admission bound (see ServeServer); this default covers every
  // control-plane frame with room to spare.
  static constexpr size_t kDefaultMaxFrameBytes = 64u << 20;  // 64 MiB
  // The most one read(2) asks for; it lands straight in the buffer.
  static constexpr size_t kReadBytes = 64u << 10;  // 64 KiB

  explicit FrameReader(int fd, size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : fd_(fd), max_frame_bytes_(max_frame_bytes) {}

  // Reads one frame into *frame (newline stripped). Outcomes:
  //   ok + *eof=false              — one frame delivered
  //   ok + *eof=true               — orderly close, no frame
  //   ok + *timed_out=true         — poll_timeout_ms elapsed, no frame yet
  //   !ok                          — transport error or oversized frame
  // poll_timeout_ms < 0 blocks indefinitely.
  Status ReadFrame(std::string* frame, bool* eof, int poll_timeout_ms = -1,
                   bool* timed_out = nullptr);

  // ReadFrame + json::Parse in one step (blocking form).
  Status ReadMessage(json::Value* message, bool* eof);

 private:
  int fd_;
  size_t max_frame_bytes_;
  // Bytes read but not yet returned; never more than max_frame_bytes_ + 1.
  std::string buffer_;
  // Length of buffer_'s prefix already searched for a newline.
  size_t searched_ = 0;
};

}  // namespace iawj::serve

#endif  // IAWJ_SERVE_PROTOCOL_H_
