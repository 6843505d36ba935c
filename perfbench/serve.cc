// serve-mixed: a closed loop of tenant connections to a separately launched
// iawj_serve process. Each tenant thread sends its next batch only after the
// previous one was acked. Tenants: plain NPJ (eager sealing), plain PRJ, and
// NPJ with disorder_slack_ms over PermuteWithinSlack arrivals (deferred
// sealing plus IngestStream in the daemon).
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/datagen/micro.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/stream/disorder.h"

extern char** environ;

namespace perfbench {
namespace {

using iawj::Stream;
using iawj::Tuple;

struct ServeParams {
  std::string serve_bin;
  std::string socket;
  int pool_threads = 0;
  int join_threads = 0;  // per tenant window
  uint64_t rate = 0;
  uint32_t stream_ms = 0;
  uint32_t window_ms = 0;
  uint32_t batch_ms = 0;
  uint32_t slack_ms = 0;
  int slack_tenant = 0;  // index of the tenant with a disorder policy
  uint32_t oracle_key_mod = 0;  // oracle slice of each tenant's window 0
  std::vector<iawj::AlgorithmId> algos;
  std::vector<std::string> algo_names;
};

struct Batch {
  std::span<const Tuple> r, s;
};

// One tenant's generated inputs: the ordered streams (for the offline
// expectation), what is sent (arrival order), and its batches.
struct TenantInput {
  iawj::serve::TenantSpec tenant;
  Stream r, s;                // sorted
  Stream sent_r, sent_s;      // arrival order (== r, s without disorder)
  std::vector<Batch> batches;
};

// [lo, hi) index ranges cutting `arrivals` into n batches: by timestamp for
// an ordered stream, by position for an arrival-order one.
std::vector<std::pair<size_t, size_t>> Cut(const Stream& arrivals,
                                           uint32_t batch_ms, size_t n,
                                           bool ordered) {
  std::vector<std::pair<size_t, size_t>> out(n);
  const auto& t = arrivals.tuples;
  size_t lo = 0;
  for (size_t k = 0; k < n; ++k) {
    size_t hi;
    if (k + 1 == n) {
      hi = t.size();
    } else if (ordered) {
      const uint64_t end = (k + 1) * uint64_t{batch_ms};
      const auto before = [](const Tuple& x, uint64_t v) { return x.ts < v; };
      hi = static_cast<size_t>(
          std::lower_bound(t.begin() + lo, t.end(), end, before) - t.begin());
    } else {
      hi = t.size() * (k + 1) / n;
    }
    out[k] = {lo, hi};
    lo = hi;
  }
  return out;
}

TenantInput MakeTenant(const ServeParams& p, uint64_t seed, int index,
                       const std::string& name) {
  TenantInput in;
  iawj::MicroSpec micro;
  micro.rate_r = micro.rate_s = p.rate;
  micro.window_ms = p.stream_ms;
  micro.seed = seed * 31 + static_cast<uint64_t>(index);
  iawj::MicroWorkload gen = iawj::GenerateMicro(micro);
  in.r = std::move(gen.r);
  in.s = std::move(gen.s);
  const bool disorder = index == p.slack_tenant;
  if (disorder) {
    in.sent_r = iawj::PermuteWithinSlack(in.r, p.slack_ms, micro.seed + 101);
    in.sent_s = iawj::PermuteWithinSlack(in.s, p.slack_ms, micro.seed + 202);
  } else {
    in.sent_r = in.r;
    in.sent_s = in.s;
  }
  in.tenant.name = name;
  in.tenant.algo = p.algos[index];
  in.tenant.spec.num_threads = p.join_threads;
  in.tenant.spec.window_ms = p.window_ms;
  in.tenant.spec.clock_mode = iawj::Clock::Mode::kInstant;
  if (disorder) in.tenant.spec.disorder_slack_ms = p.slack_ms;

  const size_t n = (p.stream_ms + p.batch_ms - 1) / p.batch_ms;
  const auto cut_r = Cut(in.sent_r, p.batch_ms, n, !disorder);
  const auto cut_s = Cut(in.sent_s, p.batch_ms, n, !disorder);
  for (size_t k = 0; k < n; ++k) {
    in.batches.push_back(
        {std::span<const Tuple>(in.sent_r.tuples)
             .subspan(cut_r[k].first, cut_r[k].second - cut_r[k].first),
         std::span<const Tuple>(in.sent_s.tuples)
             .subspan(cut_s[k].first, cut_s[k].second - cut_s[k].first)});
  }
  return in;
}

// The separately launched daemon. Stop() sends SIGTERM and waits for exit.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const ServeParams& p) {
    socket_ = p.socket;
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {
        p.serve_bin, "--socket=" + p.socket,
        "--pool-threads=" + std::to_string(p.pool_threads)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's drain summary goes to stderr, keeping stdout for the
    // benchmark record.
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, args[0].c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  // Peak resident set (VmHWM) in MiB, or 0 when unreadable.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024;
      }
    }
    return 0;
  }

  // SIGTERM, then SIGKILL after 10 s; always reaps the process and removes
  // its socket.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// Connects, retrying while the daemon is still binding its socket.
iawj::Status ConnectWithRetry(iawj::serve::ServeClient* client,
                              const std::string& socket) {
  iawj::Status st;
  for (int i = 0; i < 5000; ++i) {
    st = client->Connect(socket);
    if (st.ok()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return st;
}

struct WindowKey {
  uint64_t inputs, matches, checksum;
};

// Offline RunTumblingWindows of one tenant's inputs: windows by start time.
std::map<uint64_t, WindowKey> Expect(const TenantInput& in,
                                     AlgoTotals* totals) {
  const double t0 = NowMs();
  const iawj::PipelineResult pr = iawj::RunTumblingWindows(
      in.tenant.algo, in.sent_r, in.sent_s, in.tenant.spec);
  totals->pipeline_ms += NowMs() - t0;
  totals->threads = in.tenant.spec.num_threads;
  std::map<uint64_t, WindowKey> out;
  for (const iawj::WindowRun& run : pr.windows) {
    totals->Add(run.result);
    out[run.window_start_ms] = {run.result.inputs, run.result.matches,
                                run.result.checksum};
  }
  return out;
}

// What one tenant thread measured in one repetition.
struct TenantRun {
  double hello_ms = 0;
  double first_send_ms = 0;
  double bye_ms = 0;  // time the bye arrived
  double end_to_bye_ms = 0;
  std::vector<double> acks_ms;
  uint64_t refused = 0;
  std::string error;
  std::vector<iawj::serve::WindowResult> windows;
};

void StreamTenant(const TenantInput& in, int index,
                  iawj::serve::ServeClient* client, SpanLog* log,
                  const std::atomic<bool>* go, TenantRun* out) {
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  const std::string tenant_id = "tenant=" + std::to_string(index);
  const int64_t stream_span = log->Begin("client.stream", -1, tenant_id);
  out->acks_ms.reserve(in.batches.size());
  out->first_send_ms = NowMs();
  for (size_t k = 0; k < in.batches.size(); ++k) {
    const Batch& b = in.batches[k];
    const double t0 = NowMs();
    const iawj::Status st = client->SendBatch(b.r, b.s);
    const double t1 = NowMs();
    out->acks_ms.push_back(t1 - t0);
    log->Add("client.batch", stream_span,
             tenant_id + "/batch=" + std::to_string(k), t0, t1);
    if (!st.ok()) {
      ++out->refused;
      if (out->error.empty()) out->error = "batch refused: " + st.ToString();
    }
    if (client->drained()) {
      out->error = "daemon drained mid-stream";
      break;
    }
  }
  const double end_start = NowMs();
  const iawj::Status st = client->End();
  out->bye_ms = NowMs();
  out->end_to_bye_ms = out->bye_ms - end_start;
  log->Add("client.end", stream_span, tenant_id + "/end", end_start,
           out->bye_ms);
  log->End(stream_span);
  if (!st.ok() && out->error.empty()) out->error = "end: " + st.ToString();
  out->windows = client->windows();
}

// Protocol layer cost on every kProtocolStride-th batch of each tenant,
// outside the timed region: encode (BatchJson) and decode (json::Parse +
// ParseBatch). Sampling keeps the traced run short; parsing every batch
// takes longer than streaming them.
constexpr size_t kProtocolStride = 8;

void MeasureProtocol(const std::vector<TenantInput>& inputs, SpanLog* log,
                     iawj::json::Writer* w) {
  double encode_ms = 0, parse_ms = 0;
  uint64_t bytes = 0, tuples = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t k = 0; k < inputs[i].batches.size(); k += kProtocolStride) {
      const Batch& b = inputs[i].batches[k];
      const std::string id =
          "tenant=" + std::to_string(i) + "/batch=" + std::to_string(k);
      const double t0 = NowMs();
      const std::string frame = iawj::serve::BatchJson(b.r, b.s);
      const double t1 = NowMs();
      iawj::json::Value message;
      std::vector<Tuple> r, s;
      const bool ok = iawj::json::Parse(frame, &message).ok() &&
                      iawj::serve::ParseBatch(message, &r, &s).ok() &&
                      r.size() == b.r.size() && s.size() == b.s.size();
      const double t2 = NowMs();
      log->Add("protocol.encode", -1, id, t0, t1);
      log->Add("protocol.parse", -1, id, t1, t2);
      if (!ok) std::fprintf(stderr, "perfbench_bin: batch round trip\n");
      encode_ms += t1 - t0;
      parse_ms += t2 - t1;
      bytes += frame.size() + 1;  // + newline framing
      tuples += b.r.size() + b.s.size();
    }
  }
  w->Key("protocol").BeginObject();
  w->Field("encode_ms", encode_ms);
  w->Field("parse_ms", parse_ms);
  w->Field("bytes", bytes);
  w->Field("tuples", tuples);
  w->EndObject();
}

// The disorder tenant's ingest work, as the daemon does it at end of stream.
void MeasureIngest(const TenantInput& in, SpanLog* log,
                   iawj::json::Writer* w) {
  const iawj::IngestPolicy policy = iawj::IngestPolicy::Resolve(
      in.tenant.spec.disorder_slack_ms, in.tenant.spec.allowed_lateness_ms,
      in.tenant.spec.ingest_dedup);
  const int64_t span = log->Begin("disorder.ingest", -1, in.tenant.name);
  const double t0 = NowMs();
  const iawj::IngestResult r = iawj::IngestStream(in.sent_r, policy);
  const iawj::IngestResult s = iawj::IngestStream(in.sent_s, policy);
  const double ms = NowMs() - t0;
  log->End(span);
  w->Key("ingest").BeginObject();
  w->Field("ms", ms);
  w->Field("tuples", r.stats.tuples_in + s.stats.tuples_in);
  w->EndObject();
}

}  // namespace

int RunServe(RunContext* ctx, iawj::json::Writer* w) {
  ServeParams p;
  p.serve_bin = ctx->String("serve_bin");
  p.socket = ctx->String("socket");
  p.pool_threads = static_cast<int>(ctx->Int("pool_threads"));
  p.join_threads = static_cast<int>(ctx->Int("join_threads"));
  p.rate = static_cast<uint64_t>(ctx->Int("rate"));
  p.stream_ms = static_cast<uint32_t>(ctx->Int("stream_ms"));
  p.window_ms = static_cast<uint32_t>(ctx->Int("window_ms"));
  p.batch_ms = static_cast<uint32_t>(ctx->Int("batch_ms"));
  p.slack_ms = static_cast<uint32_t>(ctx->Int("slack_ms"));
  p.slack_tenant = static_cast<int>(ctx->Int("slack_tenant"));
  p.oracle_key_mod = static_cast<uint32_t>(ctx->Int("oracle_key_mod"));
  const std::string algos = ctx->String("tenants");
  if (!ctx->missing.empty()) {
    std::fprintf(stderr, "perfbench_bin: missing workload parameters:%s\n",
                 ctx->missing.c_str());
    return 2;
  }
  if (p.batch_ms == 0 || p.window_ms == 0 || p.join_threads < 1 ||
      p.oracle_key_mod == 0 || !ParseAlgorithms(algos, &p.algos) ||
      p.slack_tenant < 0 ||
      p.slack_tenant >= static_cast<int>(p.algos.size())) {
    std::fprintf(stderr, "perfbench_bin: bad serve workload parameters\n");
    return 2;
  }
  for (auto id : p.algos) p.algo_names.emplace_back(iawj::AlgorithmName(id));
  const int n = static_cast<int>(p.algos.size());
  std::vector<std::string> names;  // tenant names
  for (int i = 0; i < n; ++i) {
    names.push_back("t" + std::to_string(i) + "-" + p.algo_names[i] +
                    (i == p.slack_tenant ? "-disorder" : ""));
  }

  SpanLog& spans = *ctx->spans;
  std::vector<std::map<uint64_t, WindowKey>> expected;
  std::vector<TenantInput> inputs;
  w->Key("reps").BeginArray();
  const double begin_ms = NowMs();
  for (int rep = 0;
       rep < RunContext::kMinReps || NowMs() - begin_ms < ctx->seconds * 1000;
       ++rep) {
    const bool traced = ctx->RepTraced(rep);
    SpanLog untraced(false);
    SpanLog& log = traced ? spans : untraced;
    const std::string rep_id = "rep=" + std::to_string(rep);

    // Set-up: inputs, daemon start, every hello acked.
    inputs.clear();
    const double setup_start = NowMs();
    double gen_ms = 0;
    {
      ScopedSpan span(&log, "datagen.generate", -1, rep_id);
      for (int i = 0; i < n; ++i) {
        inputs.push_back(MakeTenant(p, ctx->seed, i, names[i]));
      }
      gen_ms = NowMs() - setup_start;
    }
    Daemon daemon;
    std::vector<std::unique_ptr<iawj::serve::ServeClient>> clients;
    std::vector<TenantRun> runs(n);
    {
      ScopedSpan span(&log, "serve.start", -1, rep_id);
      if (!daemon.Start(p)) {
        std::fprintf(stderr, "perfbench_bin: cannot launch %s\n",
                     p.serve_bin.c_str());
        return 2;
      }
    }
    for (int i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<iawj::serve::ServeClient>());
      const std::string tenant_id = "tenant=" + std::to_string(i);
      ScopedSpan span(&log, "client.hello", -1, tenant_id);
      const double t0 = NowMs();
      iawj::Status st = ConnectWithRetry(clients[i].get(), p.socket);
      if (st.ok()) st = clients[i]->Hello(inputs[i].tenant);
      runs[i].hello_ms = NowMs() - t0;
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench_bin: hello %s: %s\n",
                     inputs[i].tenant.name.c_str(), st.ToString().c_str());
        return 2;
      }
    }
    const double setup_ms = NowMs() - setup_start;

    // Timed region: first batch sent to last bye received.
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back(StreamTenant, std::cref(inputs[i]), i,
                           clients[i].get(), &log, &go, &runs[i]);
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    double first = runs[0].first_send_ms, last = runs[0].bye_ms;
    for (const TenantRun& run : runs) {
      first = std::min(first, run.first_send_ms);
      last = std::max(last, run.bye_ms);
    }
    const double rss_mb = daemon.PeakRssMb();
    clients.clear();
    daemon.Stop();

    // Correctness against an offline run of the same inputs, computed once
    // (the inputs depend only on the seed), outside set-up and timing. The
    // daemon reports no runner phases, so traced repetitions rerun this
    // offline reference for the runner.* and window_pipeline.* rows.
    const int64_t check_span = log.Begin("check.serve_vs_offline", -1, rep_id);
    std::vector<AlgoTotals> reference(n);
    if (expected.empty() || traced) {
      std::vector<std::map<uint64_t, WindowKey>> got;
      for (int i = 0; i < n; ++i) {
        got.push_back(Expect(inputs[i], &reference[i]));
      }
      if (expected.empty()) expected = std::move(got);
    }
    uint64_t tuples = 0;
    std::vector<double> waits;
    uint64_t stolen = 0;
    for (int i = 0; i < n; ++i) {
      const TenantRun& run = runs[i];
      const std::string& name = inputs[i].tenant.name;
      ctx->attempted += inputs[i].batches.size() + expected[i].size();
      for (uint64_t k = 0; k < run.refused; ++k) {
        ctx->Fail(name + ": " + run.error);
      }
      if (run.refused == 0 && !run.error.empty()) {
        ctx->Fail(name + ": " + run.error);
      }
      std::set<uint64_t> served;
      for (const iawj::serve::WindowResult& win : run.windows) {
        served.insert(win.window_start_ms);
        waits.push_back(win.wait_ms);
        if (win.stolen) ++stolen;
        const auto it = expected[i].find(win.window_start_ms);
        if (!win.ok() || it == expected[i].end() ||
            it->second.matches != win.matches ||
            it->second.checksum != win.checksum ||
            it->second.inputs != win.inputs) {
          ctx->Fail(name + " window@" + std::to_string(win.window_start_ms) +
                    " differs from offline (" + win.status_code + ")");
        } else {
          tuples += win.inputs;
        }
      }
      for (const auto& [start, key] : expected[i]) {
        if (served.count(start) == 0) {
          ctx->Fail(name + " window@" + std::to_string(start) + " missing");
        }
      }
    }
    log.End(check_span);

    w->BeginObject();
    w->Field("traced", traced);
    w->Key("setup_s").BeginArray().Double(setup_ms / 1000).EndArray();
    w->Field("gen_ms", gen_ms);
    w->Field("timed_s", (last - first) / 1000);
    w->Field("tuples", tuples);
    w->Field("mem_peak_mb", rss_mb);
    w->Key("acks_ms").BeginArray();
    for (const TenantRun& run : runs) {
      for (double a : run.acks_ms) w->Double(a);
    }
    w->EndArray();
    w->Key("hello_ms").BeginArray();
    for (const TenantRun& run : runs) w->Double(run.hello_ms);
    w->EndArray();
    w->Key("end_to_bye_ms").BeginArray();
    for (const TenantRun& run : runs) w->Double(run.end_to_bye_ms);
    w->EndArray();
    w->Key("queue_wait_ms").BeginArray();
    for (double x : waits) w->Double(x);
    w->EndArray();
    w->Field("windows", static_cast<uint64_t>(waits.size()));
    w->Field("stolen", stolen);
    if (traced) {
      MeasureProtocol(inputs, &log, w);
      MeasureIngest(inputs[p.slack_tenant], &log, w);
      w->Key("algos");
      WriteAlgoTotals(names, reference, w);
    }
    w->EndObject();
  }
  w->EndArray();

  // Nested-loop oracle over a slice of each tenant's first window.
  uint64_t oracle_matches = 0;
  for (int i = 0; i < n; ++i) {
    oracle_matches += CheckOracleSlice(
        {p.algos[i]}, inputs[i].r, inputs[i].s, p.window_ms, p.oracle_key_mod,
        p.join_threads, p.window_ms, ctx);
  }
  w->Field("oracle_matches", oracle_matches);
  if (ctx->trace) {
    MeasureScaling(p.algos, names, Slice(inputs[0].r, kScalingSliceMs, 1),
                   Slice(inputs[0].s, kScalingSliceMs, 1), p.join_threads,
                   p.window_ms, w);
  }
  return 0;
}

}  // namespace perfbench
