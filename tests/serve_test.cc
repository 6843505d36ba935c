// Tests for the iawj_serve daemon stack (ISSUE 10): wire protocol
// round-trips, the batch fast lane against the JSON tree parse, framing,
// the multi-tenant differential proof (a daemon tenant is byte-identical to
// the same spec run through the offline tumbling-window pipeline), typed
// admission refusals, drain completeness, fair-share non-starvation, v9
// run-record serve blocks, and the iawj_serve help-table drift check.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/datagen/micro.h"
#include "src/join/context.h"
#include "src/join/window_pipeline.h"
#include "src/profiling/metrics.h"
#include "src/serve/client.h"
#include "src/serve/pool.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/stream/disorder.h"
#include "tools/serve_flags.h"

namespace iawj {
namespace {

// Each test gets its own socket so parallel ctest shards never collide.
std::string TestSocketPath(const std::string& tag) {
  return testing::TempDir() + "/iawj_serve_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

MicroWorkload TestWorkload(uint64_t seed, uint64_t rate = 300,
                           uint32_t duration_ms = 12) {
  MicroSpec micro;
  micro.rate_r = rate;
  micro.rate_s = rate;
  micro.window_ms = duration_ms;  // stream duration, not the join window
  micro.dupe = 2.0;
  micro.seed = seed;
  return GenerateMicro(micro);
}

JoinSpec TestSpec(uint32_t window_ms = 4) {
  JoinSpec spec;
  spec.num_threads = 2;
  spec.window_ms = window_ms;
  // Pin the policies off so ambient IAWJ_* env cannot skew expectations.
  spec.shed_watermark_per_ms = -1;
  spec.disorder_slack_ms = -1;
  spec.allowed_lateness_ms = -1;
  return spec;
}

// Streams the workload in `chunks` timeline slices, ends, and returns the
// first non-ok status (or Ok). Arrival-order (unsorted) streams have no
// timeline to slice, so `by_position` cuts them into equal runs instead.
Status DriveTenant(const std::string& socket, const std::string& name,
                   AlgorithmId id, const JoinSpec& spec,
                   const MicroWorkload& w, serve::ServeClient* client,
                   int chunks = 3, bool by_position = false) {
  serve::TenantSpec tenant;
  tenant.name = name;
  tenant.algo = id;
  tenant.spec = spec;
  if (Status s = client->Connect(socket); !s.ok()) return s;
  if (Status s = client->Hello(tenant); !s.ok()) return s;
  if (by_position) {
    const auto part = [chunks](const Stream& stream, int k) {
      const size_t n = stream.size();
      return std::span<const Tuple>(stream.tuples)
          .subspan(n * k / chunks, n * (k + 1) / chunks - n * k / chunks);
    };
    for (int k = 0; k < chunks && !client->drained(); ++k) {
      if (Status s = client->SendBatch(part(w.r, k), part(w.s, k)); !s.ok()) {
        return s;
      }
    }
    return client->End();
  }
  const uint64_t max_ts = std::max<uint64_t>(w.r.MaxTs(), w.s.MaxTs());
  const uint64_t step = max_ts / static_cast<uint64_t>(chunks) + 1;
  size_t ir = 0, is = 0;
  for (uint64_t t = 0; t <= max_ts && !client->drained(); t += step) {
    const size_t ir0 = ir, is0 = is;
    while (ir < w.r.tuples.size() && w.r.tuples[ir].ts < t + step) ++ir;
    while (is < w.s.tuples.size() && w.s.tuples[is].ts < t + step) ++is;
    if (Status s = client->SendBatch(
            std::span<const Tuple>(w.r.tuples.data() + ir0, ir - ir0),
            std::span<const Tuple>(w.s.tuples.data() + is0, is - is0));
        !s.ok()) {
      return s;
    }
  }
  return client->End();
}

// --- Protocol round-trips -------------------------------------------------

TEST(ServeProtocol, OversizedNewlineFreeFrameIsRefusedTyped) {
  // A peer streaming bytes with no newline must hit the framing limit and
  // get a typed refusal, not grow the reader's buffer without bound.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  serve::FrameReader reader(fds[0], /*max_frame_bytes=*/1024);
  const std::string blob(2048, 'x');  // no newline anywhere
  ASSERT_EQ(::write(fds[1], blob.data(), blob.size()),
            static_cast<ssize_t>(blob.size()));
  std::string frame;
  bool eof = false;
  const Status status = reader.ReadFrame(&frame, &eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocol, WindowChecksumSurvivesFullUint64) {
  // Mix64 checksums use all 64 bits; a JSON number would truncate past
  // 2^53, so the wire carries checksums as decimal strings.
  serve::WindowResult window;
  window.window_index = 3;
  window.window_start_ms = 12;
  window.algorithm = "PRJ";
  window.inputs = 1000;
  window.matches = 17;
  window.checksum = 0xFFFFFFFFFFFFFFF0ull;  // far beyond 2^53
  window.wait_ms = 0.25;
  window.worker = 2;
  window.stolen = true;

  json::Value parsed;
  ASSERT_TRUE(json::Parse(serve::WindowJson(window), &parsed).ok());
  serve::WindowResult back;
  ASSERT_TRUE(serve::ParseWindow(parsed, &back).ok());
  EXPECT_EQ(back.checksum, 0xFFFFFFFFFFFFFFF0ull);
  EXPECT_EQ(back.window_index, 3u);
  EXPECT_EQ(back.matches, 17u);
  EXPECT_EQ(back.algorithm, "PRJ");
  EXPECT_TRUE(back.stolen);
  EXPECT_EQ(back.worker, 2);
}

// A cast to uint32_t would turn 5e9 into 4294967295, 1.5 into 1 and 2^32
// into 4294967295; every field must be an integer in [0, 2^32 - 1].
TEST(ServeProtocol, BatchFieldsOutsideUint32AreRefused) {
  for (const char* frame : {R"({"op":"batch","r":[[5e9,7]]})",
                            R"({"op":"batch","r":[[1.5,7]]})",
                            R"({"op":"batch","s":[[1,4294967296]]})"}) {
    SCOPED_TRACE(frame);
    json::Value message;
    ASSERT_TRUE(json::Parse(frame, &message).ok());
    std::vector<Tuple> r, s;
    EXPECT_EQ(serve::ParseBatch(message, &r, &s).code(),
              StatusCode::kInvalidArgument);
  }
  json::Value message;
  ASSERT_TRUE(
      json::Parse(R"({"op":"batch","r":[[4294967295,4294967295]]})", &message)
          .ok());
  std::vector<Tuple> r, s;
  ASSERT_TRUE(serve::ParseBatch(message, &r, &s).ok());
  EXPECT_EQ(r, (std::vector<Tuple>{{4294967295u, 4294967295u}}));
}

TEST(ServeProtocol, HelloRoundTripsEveryAnswerAffectingKnob) {
  // The seed drives shed sampling and backoff jitter, so it must survive
  // the wire exactly: a JSON number would round 2^53 + 1 to 2^53.
  for (const uint64_t seed : {uint64_t{42}, (uint64_t{1} << 53) + 1,
                              ~uint64_t{0}}) {
    SCOPED_TRACE("supervisor_seed " + std::to_string(seed));
    serve::TenantSpec tenant;
    tenant.name = "rt";
    tenant.algo = AlgorithmId::kPmjJb;
    tenant.spec = TestSpec(7);
    tenant.spec.num_threads = 4;
    tenant.spec.jb_group_size = 2;
    tenant.spec.radix_bits = 9;
    tenant.spec.retry_max_attempts = 3;
    tenant.spec.fallback_enabled = true;
    tenant.spec.supervisor_seed = seed;

    json::Value parsed;
    ASSERT_TRUE(json::Parse(tenant.ToHelloJson(), &parsed).ok());
    serve::TenantSpec back;
    ASSERT_TRUE(serve::TenantSpec::FromHello(parsed, &back).ok());
    EXPECT_EQ(back.name, "rt");
    EXPECT_EQ(back.algo, AlgorithmId::kPmjJb);
    EXPECT_EQ(back.spec.num_threads, 4);
    EXPECT_EQ(back.spec.window_ms, 7u);
    EXPECT_EQ(back.spec.jb_group_size, 2);
    EXPECT_EQ(back.spec.radix_bits, 9);
    EXPECT_EQ(back.spec.retry_max_attempts, 3);
    EXPECT_TRUE(back.spec.fallback_enabled);
    EXPECT_EQ(back.spec.supervisor_seed, seed);
  }
}

// A cast would turn each of these into a different knob value than the
// client asked for; every one is refused typed instead.
TEST(ServeProtocol, HelloNumbersOutsideTheirKnobAreRefused) {
  for (const char* field :
       {R"("window_ms":4294967297)", R"("window_ms":2.5)",
        R"("morsel_size":-1)", R"("deadline_ms":4294967396)",
        R"("threads":"4")", R"("supervisor_seed":9007199254740993)",
        R"("supervisor_seed":"-1")",
        R"("supervisor_seed":"18446744073709551616")"}) {
    SCOPED_TRACE(field);
    json::Value hello;
    ASSERT_TRUE(json::Parse(std::string(R"({"op":"hello","tenant":"t",)") +
                                field + "}",
                            &hello)
                    .ok());
    serve::TenantSpec tenant;
    const Status status = serve::TenantSpec::FromHello(hello, &tenant);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  // The older numeric seed form still reads while it is exact.
  json::Value hello;
  ASSERT_TRUE(json::Parse(R"({"op":"hello","tenant":"t",)"
                          R"("supervisor_seed":9007199254740991})",
                          &hello)
                  .ok());
  serve::TenantSpec tenant;
  ASSERT_TRUE(serve::TenantSpec::FromHello(hello, &tenant).ok());
  EXPECT_EQ(tenant.spec.supervisor_seed, 9007199254740991u);
}

// --- The batch fast lane against the JSON tree parse ---------------------

// Random batches with empty sides, both ends of the uint32 range, and
// numbers of every width from 1 to 10 digits.
std::vector<std::pair<std::vector<Tuple>, std::vector<Tuple>>> RandomBatches(
    uint64_t seed, int count) {
  Rng rng(seed);
  const auto value = [&rng]() -> uint32_t {
    switch (rng.NextBounded(4)) {
      case 0:
        return 0;
      case 1:
        return 4294967295u;
      default: {
        uint64_t v = rng.NextBounded(9) + 1;  // 1 to 10 digits
        for (uint64_t digits = rng.NextBounded(10); digits > 0; --digits) {
          v = v * 10 + rng.NextBounded(10);
        }
        return static_cast<uint32_t>(std::min<uint64_t>(v, 4294967295u));
      }
    }
  };
  const auto side = [&]() {
    std::vector<Tuple> tuples(rng.NextBounded(3) == 0 ? 0
                                                      : rng.NextBounded(40));
    for (Tuple& t : tuples) t = Tuple{value(), value()};
    return tuples;
  };
  std::vector<std::pair<std::vector<Tuple>, std::vector<Tuple>>> batches;
  for (int i = 0; i < count; ++i) {
    auto r = side();
    batches.emplace_back(std::move(r), side());
  }
  return batches;
}

// BatchJson as it was written before the fast lane, through json::Writer.
std::string WriterBatchJson(std::span<const Tuple> r,
                            std::span<const Tuple> s) {
  json::Writer w;
  w.BeginObject();
  w.Field("op", "batch");
  for (const auto& [key, tuples] : {std::pair{"r", r}, std::pair{"s", s}}) {
    w.Key(key).BeginArray();
    for (const Tuple& t : tuples) {
      w.BeginArray().Uint(t.ts).Uint(t.key).EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

TEST(ServeProtocol, BatchJsonFramesTakeTheFastLane) {
  const auto batches = RandomBatches(/*seed=*/16, /*count=*/400);
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    const auto& [r, s] = batches[i];
    const std::string frame = serve::BatchJson(r, s);
    EXPECT_EQ(frame, WriterBatchJson(r, s));
    std::vector<Tuple> scanned_r{{9, 9}}, scanned_s;
    ASSERT_TRUE(serve::ScanBatchFrame(frame, &scanned_r, &scanned_s))
        << frame;
    EXPECT_EQ(scanned_r, r);
    EXPECT_EQ(scanned_s, s);
  }
}

// Runs one frame through the daemon's decoder (TenantFrame) and through
// json::Parse + ParseBatch: both must accept it with the same op and
// tuples, or refuse it with the same code and message. Returns whether the
// frame took the fast lane.
bool ExpectLanesAgree(const std::string& frame) {
  SCOPED_TRACE(frame);
  serve::TenantFrame daemon;
  const Status decoded = daemon.Decode(frame);
  json::Value tree;
  const Status parsed = json::Parse(frame, &tree);
  EXPECT_EQ(decoded.code(), parsed.code());
  EXPECT_EQ(decoded.message(), parsed.message());
  if (!parsed.ok() || !decoded.ok()) return false;
  const json::Value* op = tree.Find("op");
  EXPECT_EQ(daemon.op(), op != nullptr ? op->string : "");
  if (daemon.op() != "batch") return false;
  const bool scanned = daemon.scanned();
  std::vector<Tuple> daemon_r, daemon_s, tree_r, tree_s;
  const Status taken = daemon.TakeBatch(&daemon_r, &daemon_s);
  const Status reference = serve::ParseBatch(tree, &tree_r, &tree_s);
  EXPECT_EQ(taken.code(), reference.code());
  EXPECT_EQ(taken.message(), reference.message());
  if (taken.ok() && reference.ok()) {
    EXPECT_EQ(daemon_r, tree_r);
    EXPECT_EQ(daemon_s, tree_s);
  }
  // A frame outside the canonical shape leaves the scan's outputs empty.
  std::vector<Tuple> scan_r{{1, 1}}, scan_s{{2, 2}};
  if (!serve::ScanBatchFrame(frame, &scan_r, &scan_s)) {
    EXPECT_TRUE(scan_r.empty() && scan_s.empty());
  }
  return scanned;
}

TEST(ServeProtocol, FastLaneAgreesWithTreeParseOnValidAndMutatedFrames) {
  const Tuple r[] = {{1, 20}, {300, 4000000000u}};
  const Tuple s[] = {{0, 4294967295u}};
  const std::string small = serve::BatchJson(r, s);
  ASSERT_TRUE(ExpectLanesAgree(small));

  std::vector<std::string> corpus;
  for (size_t n = 0; n < small.size(); ++n) {
    corpus.push_back(small.substr(0, n));
  }
  for (size_t i = 0; i < small.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = small;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      corpus.push_back(flipped);
    }
    for (const char c : std::string_view(" 0129[]{},:\"-.eE+x")) {
      std::string replaced = small;
      replaced[i] = c;
      corpus.push_back(replaced);
    }
    for (const char ws : {' ', '\t', '\r'}) {
      std::string spaced = small;
      spaced.insert(i, 1, ws);
      corpus.push_back(spaced);
    }
  }
  for (const char* frame : {
           R"({"op":"batch","s":[[5,6]],"r":[[1,2]]})",           // s first
           R"({"op":"batch","r":[[1,2]]})",                       // one side
           R"({"op":"batch","s":[[1,2]]})",
           R"({"op":"batch"})",
           R"({"op":"batch","r":[[1,2]],"s":[],"x":1})",          // extra keys
           R"({"x":[1],"op":"batch","r":[],"s":[[3,4]]})",
           R"({"op":"batch","r":[[1,2]],"s":[],"r":[[3,4]]})",    // dup "r"
           R"({"op":"batch","\u0072":[[1,2]],"s":[]})",           // escaped r
           R"({"op":"batch","r":[[1,2]],"s":[]})",
           R"({"op":"batch","r":[[01,2]],"s":[]})",               // numbers
           R"({"op":"batch","r":[[-0,2]],"s":[]})",
           R"({"op":"batch","r":[[1.0,2]],"s":[]})",
           R"({"op":"batch","r":[[1e3,2]],"s":[]})",
           R"({"op":"batch","r":[[00,2]],"s":[]})",
           R"({"op":"batch","r":[[4294967296,2]],"s":[]})",
           R"({"op":"batch","r":[[12345678901,2]],"s":[]})",
           R"({"op":"batch","r":[[1,4294967295]],"s":[[4294967295,0]]})",
           R"({"op":"batch","r":[[1,2,3]],"s":[]})",
           R"({"op":"batch","r":[[1]],"s":[]})",
           R"({"op":"batch","r":[[1,2],],"s":[]})",
           R"({"op":"batch","r":[1,2],"s":[]})",
           R"({"op":"batch","r":{},"s":[]})",
           R"({"op":"batch","r":[],"s":[]} )",
           R"({"op":"batch","r":[],"s":[]}})",
           R"({"op":"end"})",
           "",
       }) {
    corpus.push_back(frame);
  }
  for (const auto& [br, bs] : RandomBatches(/*seed=*/61, /*count=*/50)) {
    corpus.push_back(serve::BatchJson(br, bs));
  }

  size_t scanned = 0, accepted_elsewhere = 0;
  for (const std::string& frame : corpus) {
    if (ExpectLanesAgree(frame)) {
      ++scanned;
    } else if (json::Value tree; json::Parse(frame, &tree).ok()) {
      ++accepted_elsewhere;
    }
  }
  // Both lanes were exercised: BatchJson's frames and the flips that keep
  // the shape (a digit for a digit) were scanned, the rest fell back.
  EXPECT_GT(scanned, 50u);
  EXPECT_GT(accepted_elsewhere, 20u);
}

// --- Framing ---------------------------------------------------------------

// Writes `bytes` to `fd` in pieces of at most `piece` bytes.
void WriteAll(int fd, const std::string& bytes, size_t piece) {
  for (size_t at = 0; at < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + at,
                              std::min(piece, bytes.size() - at));
    ASSERT_GT(n, 0);
    at += static_cast<size_t>(n);
  }
}

TEST(ServeProtocol, FrameReaderReassemblesFramesAcrossReads) {
  constexpr size_t kRead = serve::FrameReader::kReadBytes;
  const auto blob = [](size_t n, char c) { return std::string(n, c); };
  const struct {
    const char* name;
    std::vector<std::string> frames;
    size_t piece;  // bytes per write(2)
  } kCases[] = {
      {"one byte at a time", {R"({"op":"end"})", "{}"}, 1},
      {"several frames in one write", {"a", "", "bc", blob(100, 'd')}, 0},
      {"200 KiB frame", {blob(200 << 10, 'x'), "tail"}, 0},
      {"ends on a read boundary", {blob(kRead - 1, 'y'), "next"}, 0},
      {"newline opens the next read", {blob(kRead, 'z'), "next"}, 0},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string wire;
    for (const std::string& frame : c.frames) wire += frame + "\n";
    std::thread writer([&] {
      WriteAll(fds[1], wire, c.piece == 0 ? wire.size() : c.piece);
      ::close(fds[1]);
    });
    serve::FrameReader reader(fds[0], /*max_frame_bytes=*/256 << 10);
    for (const std::string& expect : c.frames) {
      std::string frame;
      bool eof = false;
      ASSERT_TRUE(reader.ReadFrame(&frame, &eof).ok());
      ASSERT_FALSE(eof);
      EXPECT_EQ(frame.size(), expect.size());
      EXPECT_TRUE(frame == expect);
    }
    std::string frame;
    bool eof = false;
    EXPECT_TRUE(reader.ReadFrame(&frame, &eof).ok());
    EXPECT_TRUE(eof);
    writer.join();
    ::close(fds[0]);
  }
}

// A client that hangs up before its reply must cost the writer a typed
// status: a SIGPIPE would kill the daemon and every other tenant with it.
TEST(ServeProtocol, WriteFrameToAClosedPeerFailsTyped) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const Status status = serve::WriteFrame(fds[0], serve::OkJson());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  ::close(fds[0]);
}

// --- The differential proof ----------------------------------------------

// N tenants running concurrently through one daemon must each be
// byte-identical — window for window — to the same spec run sequentially
// through the offline pipeline. This is the tentpole invariant. The last
// two rows cover the served ingest and shed paths: arrivals permuted within
// a disorder slack, and a shed watermark below the arrival rate.
TEST(ServeDifferential, ConcurrentTenantsMatchOfflineByteExact) {
  const struct {
    const char* name;
    AlgorithmId id;
    uint64_t seed;
    uint32_t window_ms;
    uint32_t slack_ms;     // > 0: PermuteWithinSlack arrivals + that slack
    double shed_per_ms;    // > 0: shed watermark (arrivals run at 300/ms)
  } kTenants[] = {
      {"alpha", AlgorithmId::kNpj, 11, 3, 0, 0},
      {"bravo", AlgorithmId::kPrj, 22, 4, 0, 0},
      {"charlie", AlgorithmId::kShjJm, 33, 5, 0, 0},
      {"delta", AlgorithmId::kNpj, 44, 3, 3, 0},
      {"echo", AlgorithmId::kMway, 55, 4, 0, 120},
  };
  constexpr size_t kCount = std::size(kTenants);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("diff");
  options.pool_threads = 2;
  options.max_tenants = kCount;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<MicroWorkload> workloads;
  std::vector<PipelineResult> offline;
  std::vector<JoinSpec> specs;
  for (const auto& t : kTenants) {
    workloads.push_back(TestWorkload(t.seed));
    specs.push_back(TestSpec(t.window_ms));
    if (t.slack_ms > 0) {
      MicroWorkload& w = workloads.back();
      w.r = PermuteWithinSlack(w.r, t.slack_ms, t.seed + 1);
      w.s = PermuteWithinSlack(w.s, t.slack_ms, t.seed + 2);
      specs.back().disorder_slack_ms = t.slack_ms;
    }
    if (t.shed_per_ms > 0) specs.back().shed_watermark_per_ms = t.shed_per_ms;
    offline.push_back(RunTumblingWindows(t.id, workloads.back().r,
                                         workloads.back().s, specs.back()));
    ASSERT_TRUE(offline.back().status.ok());
    ASSERT_GT(offline.back().windows.size(), 1u);
    if (t.slack_ms > 0) {
      ASSERT_GT(offline.back().ingest.reordered, 0u) << t.name;
    }
    if (t.shed_per_ms > 0) {
      ASSERT_GT(offline.back().recovery.tuples_shed, 0u) << t.name;
    }
  }

  std::vector<serve::ServeClient> clients(kCount);
  std::vector<Status> statuses(kCount);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kCount; ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = DriveTenant(options.socket_path, kTenants[i].name,
                                kTenants[i].id, specs[i], workloads[i],
                                &clients[i], /*chunks=*/3,
                                /*by_position=*/kTenants[i].slack_ms > 0);
    });
  }
  for (auto& t : threads) t.join();
  server.Shutdown();

  uint64_t offline_windows = 0;
  for (size_t i = 0; i < kCount; ++i) {
    SCOPED_TRACE(kTenants[i].name);
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    const auto& windows = clients[i].windows();
    ASSERT_EQ(windows.size(), offline[i].windows.size());
    for (size_t wi = 0; wi < windows.size(); ++wi) {
      SCOPED_TRACE("window " + std::to_string(wi));
      const WindowRun& expect = offline[i].windows[wi];
      EXPECT_EQ(windows[wi].window_index, expect.window_index);
      EXPECT_EQ(windows[wi].window_start_ms, expect.window_start_ms);
      EXPECT_EQ(windows[wi].inputs, expect.result.inputs);
      EXPECT_EQ(windows[wi].matches, expect.result.matches);
      EXPECT_EQ(windows[wi].checksum, expect.result.checksum);
      EXPECT_TRUE(windows[wi].ok()) << windows[wi].status_code;
    }
    EXPECT_EQ(clients[i].totals().matches, offline[i].total_matches);
    EXPECT_EQ(clients[i].totals().checksum, offline[i].total_checksum);
    EXPECT_EQ(clients[i].totals().inputs, offline[i].total_inputs);
    offline_windows += offline[i].windows.size();
  }
  EXPECT_EQ(server.stats().tenants_admitted, kCount);
  EXPECT_EQ(server.stats().windows_done, offline_windows);
}

// A batch frame that is valid JSON but not BatchJson's canonical shape —
// spaces everywhere, keys reordered — is served on the fallback lane: acked,
// counted in serve.batches_json_fallback, and answered exactly like the
// offline pipeline. ServeClient's frames never take the fallback.
TEST(ServeDifferential, NonCanonicalBatchFramesTakeTheFallbackLane) {
  const bool metrics_were_enabled = metrics::Enabled();
  metrics::ForceEnable(true);
  metrics::Counter* fallback =
      metrics::GetCounter("serve.batches_json_fallback");
  ASSERT_NE(fallback, nullptr);
  const uint64_t fallback_before = fallback->Value();

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("fallback");
  options.pool_threads = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const MicroWorkload w = TestWorkload(88);
  const JoinSpec spec = TestSpec(4);
  const PipelineResult offline =
      RunTumblingWindows(AlgorithmId::kNpj, w.r, w.s, spec);
  ASSERT_TRUE(offline.status.ok());
  ASSERT_GT(offline.windows.size(), 1u);

  serve::ServeClient canonical;
  ASSERT_TRUE(DriveTenant(options.socket_path, "canonical", AlgorithmId::kNpj,
                          spec, w, &canonical)
                  .ok());
  EXPECT_EQ(canonical.totals().checksum, offline.total_checksum);
  EXPECT_EQ(server.stats().batches_json_fallback, 0u);
  EXPECT_EQ(fallback->Value(), fallback_before);

  // The same stream from a hand-rolled client, in two pretty-printed frames.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  serve::FrameReader reader(fd);
  const auto reply_op = [&reader]() {
    json::Value reply;
    bool eof = false;
    EXPECT_TRUE(reader.ReadMessage(&reply, &eof).ok());
    EXPECT_FALSE(eof);
    const json::Value* op = reply.Find("op");
    return std::pair{op != nullptr ? op->string : "", reply};
  };
  serve::TenantSpec tenant;
  tenant.name = "pretty";
  tenant.algo = AlgorithmId::kNpj;
  tenant.spec = spec;
  ASSERT_TRUE(serve::WriteFrame(fd, tenant.ToHelloJson()).ok());
  ASSERT_EQ(reply_op().first, "ok");
  const auto pretty = [](std::span<const Tuple> r, std::span<const Tuple> s) {
    const auto side = [](std::span<const Tuple> tuples) {
      std::string out = "[ ";
      for (size_t i = 0; i < tuples.size(); ++i) {
        out += (i > 0 ? ", [ " : "[ ") + std::to_string(tuples[i].ts) +
               " , " + std::to_string(tuples[i].key) + " ]";
      }
      return out + " ]";
    };
    return "{ \"s\" : " + side(s) + ", \"op\" : \"batch\", \"r\" : " +
           side(r) + " }";
  };
  const uint64_t mid = std::max<uint64_t>(w.r.MaxTs(), w.s.MaxTs()) / 2;
  const auto cut = [mid](const Stream& stream) {
    return static_cast<size_t>(
        std::partition_point(
            stream.tuples.begin(), stream.tuples.end(),
            [mid](const Tuple& t) { return t.ts < mid; }) -
        stream.tuples.begin());
  };
  const std::span<const Tuple> r(w.r.tuples), s(w.s.tuples);
  const size_t ir = cut(w.r), is = cut(w.s);
  for (const std::string& frame :
       {pretty(r.first(ir), s.first(is)),
        pretty(r.subspan(ir), s.subspan(is))}) {
    std::vector<Tuple> scan_r, scan_s;
    ASSERT_FALSE(serve::ScanBatchFrame(frame, &scan_r, &scan_s));
    ASSERT_TRUE(serve::WriteFrame(fd, frame).ok());
    ASSERT_EQ(reply_op().first, "ok");
  }
  ASSERT_TRUE(serve::WriteFrame(fd, serve::EndJson()).ok());
  std::vector<serve::WindowResult> windows;
  for (;;) {
    const auto [op, reply] = reply_op();
    if (op == "bye") break;
    ASSERT_EQ(op, "window");
    ASSERT_TRUE(serve::ParseWindow(reply, &windows.emplace_back()).ok());
  }
  ::close(fd);
  server.Shutdown();
  metrics::ForceEnable(metrics_were_enabled);

  EXPECT_EQ(server.stats().batches_json_fallback, 2u);
  EXPECT_EQ(fallback->Value(), fallback_before + 2);
  ASSERT_EQ(windows.size(), offline.windows.size());
  for (size_t wi = 0; wi < windows.size(); ++wi) {
    SCOPED_TRACE("window " + std::to_string(wi));
    const WindowRun& expect = offline.windows[wi];
    EXPECT_EQ(windows[wi].window_index, expect.window_index);
    EXPECT_EQ(windows[wi].inputs, expect.result.inputs);
    EXPECT_EQ(windows[wi].matches, expect.result.matches);
    EXPECT_EQ(windows[wi].checksum, expect.result.checksum);
  }
}

// --- Typed admission refusals --------------------------------------------

TEST(ServeAdmission, TenantLimitRefusalIsResourceExhausted) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("limit");
  options.pool_threads = 1;
  options.max_tenants = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  serve::TenantSpec first;
  first.name = "first";
  first.spec = TestSpec();
  serve::ServeClient a;
  ASSERT_TRUE(a.Connect(options.socket_path).ok());
  ASSERT_TRUE(a.Hello(first).ok());

  serve::TenantSpec second = first;
  second.name = "second";
  serve::ServeClient b;
  ASSERT_TRUE(b.Connect(options.socket_path).ok());
  const Status refused = b.Hello(second);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted)
      << refused.ToString();

  // The slot frees when the first tenant leaves; admission is a gauge, not
  // a ratchet.
  ASSERT_TRUE(a.End().ok());
  a.Close();
  serve::ServeClient c;
  ASSERT_TRUE(c.Connect(options.socket_path).ok());
  EXPECT_TRUE(c.Hello(second).ok());
  EXPECT_TRUE(c.End().ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().tenants_rejected, 1u);
}

TEST(ServeAdmission, OutOfOrderBatchWithoutIngestPolicyIsInvalidArgument) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("order");
  options.pool_threads = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  serve::TenantSpec tenant;
  tenant.name = "strict";
  tenant.spec = TestSpec();
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  ASSERT_TRUE(client.Hello(tenant).ok());

  const Tuple ahead[] = {{10, 1}};
  const Tuple behind[] = {{5, 2}};  // regression: 5 after 10
  ASSERT_TRUE(client
                  .SendBatch(std::span<const Tuple>(ahead, 1),
                             std::span<const Tuple>())
                  .ok());
  const Status refused = client.SendBatch(std::span<const Tuple>(behind, 1),
                                          std::span<const Tuple>());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();

  // The refusal is per-batch: the connection stays usable and the accepted
  // tuple still seals.
  ASSERT_TRUE(client.End().ok());
  EXPECT_EQ(client.totals().inputs, 1u);
  server.Shutdown();
  EXPECT_EQ(server.stats().batches_rejected, 1u);
}

// --max-buffer bounds the tuples a tenant's operator holds — unsealed
// tuples plus the reorder buffer — not every tuple the tenant ever sent: a
// long in-order tenant whose backlog stays near 1,200 tuples is never
// refused under a 5,000-tuple cap, with or without a disorder slack.
TEST(ServeAdmission, BufferBoundCountsOnlyUnsealedTuples) {
  MicroSpec micro;
  micro.rate_r = micro.rate_s = 10;
  micro.window_ms = 1000;  // a 1 s stream: 20,000 tuples in all
  micro.seed = 9;
  const MicroWorkload w = GenerateMicro(micro);
  for (const uint32_t slack : {0u, 20u}) {
    SCOPED_TRACE("disorder_slack_ms " + std::to_string(slack));
    serve::ServeOptions options;
    options.socket_path = TestSocketPath("bound" + std::to_string(slack));
    options.pool_threads = 1;
    options.max_buffer_tuples = 5000;
    serve::ServeServer server(options);
    ASSERT_TRUE(server.Start().ok());

    JoinSpec spec = TestSpec(50);
    spec.num_threads = 1;
    Stream sent_r = w.r, sent_s = w.s;
    if (slack > 0) {
      spec.disorder_slack_ms = slack;
      sent_r = PermuteWithinSlack(w.r, slack, 1);
      sent_s = PermuteWithinSlack(w.s, slack, 2);
    }
    const PipelineResult offline =
        RunTumblingWindows(AlgorithmId::kNpj, sent_r, sent_s, spec);
    ASSERT_TRUE(offline.status.ok());
    ASSERT_EQ(offline.windows.size(), 20u);

    serve::TenantSpec tenant;
    tenant.name = "long";
    tenant.algo = AlgorithmId::kNpj;
    tenant.spec = spec;
    serve::ServeClient client;
    ASSERT_TRUE(client.Connect(options.socket_path).ok());
    ASSERT_TRUE(client.Hello(tenant).ok());
    // 10 ms batches: by timeline in order, by position (the same 101
    // batches' worth of tuples) when permuted.
    constexpr size_t kBatches = 101;
    for (size_t k = 0; k < kBatches; ++k) {
      const auto part = [k](const Stream& stream, bool ordered) {
        const auto& t = stream.tuples;
        size_t lo = t.size() * k / kBatches, hi = t.size() * (k + 1) / kBatches;
        if (ordered) {
          const auto at = [&t](uint64_t ts) {
            return static_cast<size_t>(
                std::lower_bound(t.begin(), t.end(), ts,
                                 [](const Tuple& x, uint64_t v) {
                                   return x.ts < v;
                                 }) -
                t.begin());
          };
          lo = at(k * 10);
          hi = k + 1 == kBatches ? t.size() : at((k + 1) * 10);
        }
        return std::span<const Tuple>(t).subspan(lo, hi - lo);
      };
      const Status sent = client.SendBatch(part(sent_r, slack == 0),
                                           part(sent_s, slack == 0));
      ASSERT_TRUE(sent.ok()) << "batch " << k << ": " << sent.ToString();
    }
    ASSERT_TRUE(client.End().ok());
    server.Shutdown();
    EXPECT_EQ(server.stats().batches_rejected, 0u);

    const auto& windows = client.windows();
    ASSERT_EQ(windows.size(), offline.windows.size());
    for (size_t wi = 0; wi < windows.size(); ++wi) {
      SCOPED_TRACE("window " + std::to_string(wi));
      EXPECT_EQ(windows[wi].window_start_ms,
                offline.windows[wi].window_start_ms);
      EXPECT_EQ(windows[wi].inputs, offline.windows[wi].result.inputs);
      EXPECT_EQ(windows[wi].matches, offline.windows[wi].result.matches);
      EXPECT_EQ(windows[wi].checksum, offline.windows[wi].result.checksum);
    }
  }
}

// A tenant without an ingest policy is refused a key outside the engine's
// key domain (the sort joins and linear-probe tables assume keys < 2^31);
// the refusal is per batch and the connection stays usable.
TEST(ServeAdmission, KeyOutsideDomainWithoutIngestPolicyIsInvalidArgument) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("keydomain");
  options.pool_threads = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  serve::TenantSpec tenant;
  tenant.name = "strict";
  tenant.algo = AlgorithmId::kMway;
  tenant.spec = TestSpec();
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  ASSERT_TRUE(client.Hello(tenant).ok());

  const Tuple bad[] = {{1, kKeyDomainLimit}};
  const Status refused = client.SendBatch(std::span<const Tuple>(bad, 1),
                                          std::span<const Tuple>());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();

  const Tuple r[] = {{2, 7}};
  const Tuple s[] = {{3, 7}};
  ASSERT_TRUE(client
                  .SendBatch(std::span<const Tuple>(r, 1),
                             std::span<const Tuple>(s, 1))
                  .ok());
  ASSERT_TRUE(client.End().ok());
  EXPECT_EQ(client.totals().inputs, 2u);
  EXPECT_EQ(client.totals().matches, 1u);
  server.Shutdown();
  EXPECT_EQ(server.stats().batches_rejected, 1u);
}

TEST(ServeAdmission, HelloWhileDrainingIsFailedPrecondition) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("drainhello");
  options.pool_threads = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.RequestDrain();

  serve::TenantSpec tenant;
  tenant.name = "late";
  tenant.spec = TestSpec();
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  const Status refused = client.Hello(tenant);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
  server.Shutdown();
}

// --- Drain completeness ---------------------------------------------------

// A drain must seal everything the daemon acked: the client that streamed
// half its workload gets exactly the offline answer over that half, via a
// spontaneous window/bye tail instead of a batch ack.
TEST(ServeDrain, MidStreamDrainSealsEveryAckedTuple) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("drain");
  options.pool_threads = 2;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const MicroWorkload w = TestWorkload(77);
  const JoinSpec spec = TestSpec(3);

  serve::TenantSpec tenant;
  tenant.name = "half";
  tenant.algo = AlgorithmId::kNpj;
  tenant.spec = spec;
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(options.socket_path).ok());
  ASSERT_TRUE(client.Hello(tenant).ok());

  // First half of the timeline, acked before the drain starts.
  const uint64_t mid = std::max<uint64_t>(w.r.MaxTs(), w.s.MaxTs()) / 2;
  size_t ir = 0, is = 0;
  while (ir < w.r.tuples.size() && w.r.tuples[ir].ts < mid) ++ir;
  while (is < w.s.tuples.size() && w.s.tuples[is].ts < mid) ++is;
  ASSERT_TRUE(client
                  .SendBatch(std::span<const Tuple>(w.r.tuples.data(), ir),
                             std::span<const Tuple>(w.s.tuples.data(), is))
                  .ok());

  server.RequestDrain();

  // The next batch meets the drain: the daemon answers with the sealed tail
  // for what it acked, never an error.
  ASSERT_TRUE(client
                  .SendBatch(std::span<const Tuple>(w.r.tuples.data() + ir,
                                                    w.r.tuples.size() - ir),
                             std::span<const Tuple>(w.s.tuples.data() + is,
                                                    w.s.tuples.size() - is))
                  .ok());
  EXPECT_TRUE(client.drained());
  ASSERT_TRUE(client.End().ok());  // no-op after a drain
  server.Shutdown();

  Stream half_r, half_s;
  half_r.tuples.assign(w.r.tuples.begin(), w.r.tuples.begin() + ir);
  half_s.tuples.assign(w.s.tuples.begin(), w.s.tuples.begin() + is);
  const PipelineResult offline =
      RunTumblingWindows(AlgorithmId::kNpj, half_r, half_s, spec);
  ASSERT_TRUE(offline.status.ok());
  EXPECT_EQ(client.windows().size(), offline.windows.size());
  EXPECT_EQ(client.totals().matches, offline.total_matches);
  EXPECT_EQ(client.totals().checksum, offline.total_checksum);
}

// --- Fair share -----------------------------------------------------------

// A hot tenant saturating the pool must not starve a quiet one: both finish
// byte-exact, and the pool's service accounting shows work crossing tenant
// homes (the tenants really share workers).
TEST(ServeFairShare, HotTenantDoesNotStarveQuietTenant) {
  serve::ServeOptions options;
  options.socket_path = TestSocketPath("fair");
  options.pool_threads = 2;
  options.max_inflight = 2;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const MicroWorkload hot_w = TestWorkload(101, /*rate=*/600,
                                           /*duration_ms=*/24);
  const MicroWorkload quiet_w = TestWorkload(202, /*rate=*/100,
                                             /*duration_ms=*/12);
  const JoinSpec hot_spec = TestSpec(2);    // many small windows
  const JoinSpec quiet_spec = TestSpec(6);  // a few windows
  const PipelineResult hot_offline =
      RunTumblingWindows(AlgorithmId::kNpj, hot_w.r, hot_w.s, hot_spec);
  const PipelineResult quiet_offline = RunTumblingWindows(
      AlgorithmId::kNpj, quiet_w.r, quiet_w.s, quiet_spec);
  ASSERT_GT(hot_offline.windows.size(), quiet_offline.windows.size());

  serve::ServeClient hot, quiet;
  Status hot_status, quiet_status;
  std::thread hot_thread([&] {
    hot_status = DriveTenant(options.socket_path, "hot", AlgorithmId::kNpj,
                             hot_spec, hot_w, &hot, /*chunks=*/6);
  });
  std::thread quiet_thread([&] {
    quiet_status = DriveTenant(options.socket_path, "quiet",
                               AlgorithmId::kNpj, quiet_spec, quiet_w,
                               &quiet, /*chunks=*/3);
  });
  hot_thread.join();
  quiet_thread.join();
  server.Shutdown();

  ASSERT_TRUE(hot_status.ok()) << hot_status.ToString();
  ASSERT_TRUE(quiet_status.ok()) << quiet_status.ToString();
  EXPECT_EQ(hot.totals().matches, hot_offline.total_matches);
  EXPECT_EQ(hot.totals().checksum, hot_offline.total_checksum);
  EXPECT_EQ(quiet.totals().matches, quiet_offline.total_matches);
  EXPECT_EQ(quiet.totals().checksum, quiet_offline.total_checksum);
  EXPECT_EQ(quiet.windows().size(), quiet_offline.windows.size());
}

// Regression: tenant queues must stay address-stable while jobs run. The
// pool once kept tenants in a std::vector, so a concurrent AddTenant (any
// new client hello) could reallocate it under a worker's feet — dangling
// the queue reference its post-job accounting wrote through. This churn
// (every thread registering tenants while every other thread's jobs are in
// flight) trips that as a use-after-free under TSan/ASan.
TEST(ServePool, TenantChurnWhileJobsRunIsSafe) {
  serve::FairSharePool pool;
  pool.Start(/*threads=*/4, /*max_inflight=*/2);
  constexpr int kTenantThreads = 8, kRounds = 25, kJobsPerRound = 3;
  std::atomic<uint64_t> executed{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kTenantThreads);
  for (int t = 0; t < kTenantThreads; ++t) {
    tenants.emplace_back([&pool, &executed, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int slot = pool.AddTenant("churn-" + std::to_string(t));
        for (int j = 0; j < kJobsPerRound; ++j) {
          ASSERT_TRUE(pool.Submit(slot, [&executed](int, bool, double) {
            executed.fetch_add(1, std::memory_order_relaxed);
          }));
        }
        pool.WaitIdle(slot);
        pool.RemoveTenant(slot);
        // The drained slot is reclaimed: stale ids read as gone, not as
        // some later tenant's account.
        EXPECT_EQ(pool.TenantServiceNs(slot), 0u);
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  const uint64_t expected =
      static_cast<uint64_t>(kTenantThreads) * kRounds * kJobsPerRound;
  EXPECT_EQ(executed.load(), expected);
  EXPECT_EQ(pool.stats().jobs_done, expected);
  pool.Stop();
}

// --- v9 run records -------------------------------------------------------

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> entries;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return entries;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") entries.push_back(dir + "/" + name);
  }
  closedir(d);
  return entries;
}

TEST(ServeRecords, EveryTenantWindowWritesAV9ServeBlock) {
  const std::string dir = testing::TempDir() + "/iawj_serve_records_" +
                          std::to_string(::getpid());
  setenv("IAWJ_METRICS_DIR", dir.c_str(), 1);

  serve::ServeOptions options;
  options.socket_path = TestSocketPath("records");
  options.pool_threads = 1;
  serve::ServeServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const MicroWorkload w = TestWorkload(55);
  serve::ServeClient client;
  const Status status = DriveTenant(options.socket_path, "recorded",
                                    AlgorithmId::kNpj, TestSpec(4), w,
                                    &client);
  server.Shutdown();
  unsetenv("IAWJ_METRICS_DIR");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_GT(client.windows().size(), 1u);

  const std::vector<std::string> files = ListDir(dir);
  ASSERT_EQ(files.size(), client.windows().size())
      << "one v9 record per tenant window";
  std::set<uint64_t> indices;
  for (const std::string& path : files) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json::Value record;
    ASSERT_TRUE(json::Parse(buffer.str(), &record).ok()) << path;
    EXPECT_GE(record.Find("record_version")->number, 9);
    EXPECT_EQ(record.Find("bench")->string, "iawj_serve");
    EXPECT_EQ(record.Find("workload")->string, "recorded");
    const json::Value* serve = record.Find("serve");
    ASSERT_NE(serve, nullptr) << path << " missing the serve block";
    EXPECT_EQ(serve->Find("tenant")->string, "recorded");
    EXPECT_GE(serve->Find("tenants_active")->number, 1);
    EXPECT_GE(serve->Find("worker")->number, 0);
    EXPECT_GE(serve->Find("wait_ms")->number, 0);
    indices.insert(
        static_cast<uint64_t>(serve->Find("window_index")->number));
  }
  EXPECT_EQ(indices.size(), client.windows().size())
      << "serve blocks must cover every distinct window";
}

// --- Options resolution ---------------------------------------------------

TEST(ServeOptions, FlagBeatsEnvBeatsDefault) {
  unsetenv("IAWJ_SERVE_POOL_THREADS");
  EXPECT_EQ(serve::ServeOptions::Resolve({}).pool_threads, 4);  // default

  setenv("IAWJ_SERVE_POOL_THREADS", "7", 1);
  EXPECT_EQ(serve::ServeOptions::Resolve({}).pool_threads, 7);  // env

  serve::ServeOptions flags;
  flags.pool_threads = 2;
  EXPECT_EQ(serve::ServeOptions::Resolve(flags).pool_threads, 2);  // flag
  unsetenv("IAWJ_SERVE_POOL_THREADS");

  setenv("IAWJ_SERVE_MEM_SHARE", "2.5", 1);  // clamped to 1.0
  EXPECT_DOUBLE_EQ(serve::ServeOptions::Resolve({}).mem_share, 1.0);
  unsetenv("IAWJ_SERVE_MEM_SHARE");
}

// --- Help-table drift (tools/serve_flags.h vs tools/iawj_serve.cc) -------

TEST(ServeFlags, HelpTextListsEveryTableEntryOnce) {
  const std::string help = serve_cli::HelpText();
  for (const serve_cli::FlagInfo& f : serve_cli::kFlags) {
    EXPECT_NE(help.find("--" + std::string(f.name)), std::string::npos)
        << "--" << f.name << " missing from HelpText()";
  }
  EXPECT_NE(help.find("usage:"), std::string::npos);
  EXPECT_NE(help.find("Exit codes"), std::string::npos);
}

// Same two-way drift check flags_test runs for iawj_cli: the set of flags
// iawj_serve.cc consumes must equal its help table exactly.
TEST(ServeFlags, HelpTableMatchesFlagsConsumedByDaemon) {
  const std::string path =
      std::string(IAWJ_SOURCE_DIR) + "/tools/iawj_serve.cc";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  std::set<std::string> consumed;
  const std::regex get_call(
      R"(flags\.Get(?:String|Int|Double|Bool)\(\s*\"([a-z0-9-]+)\")");
  for (auto it = std::sregex_iterator(source.begin(), source.end(), get_call);
       it != std::sregex_iterator(); ++it) {
    consumed.insert((*it)[1].str());
  }
  ASSERT_FALSE(consumed.empty()) << "no flags.Get* calls found in " << path;

  std::set<std::string> documented;
  for (const serve_cli::FlagInfo& f : serve_cli::kFlags) {
    EXPECT_TRUE(documented.insert(f.name).second)
        << "duplicate help-table entry --" << f.name;
  }
  for (const std::string& name : consumed) {
    EXPECT_TRUE(documented.count(name))
        << "--" << name << " consumed by iawj_serve.cc but missing from "
        << "tools/serve_flags.h";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(consumed.count(name))
        << "--" << name << " documented in tools/serve_flags.h but never "
        << "consumed by iawj_serve.cc";
  }
}

}  // namespace
}  // namespace iawj
