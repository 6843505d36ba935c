#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/join/runner.h"
#include "src/join/supervisor.h"
#include "src/join/window_operator.h"
#include "src/memory/tracker.h"
#include "src/profiling/metrics.h"
#include "src/profiling/run_record.h"
#include "src/stream/disorder.h"

namespace iawj::serve {

namespace {

// Rough per-tuple footprint of one in-flight window: the sliced input copy
// plus hash-table / partition-buffer overhead across the algorithms. Used
// only for admission preflight, never charged.
constexpr int64_t kBytesPerTuplePreflight = 48;

// Radix bound the skew detector will not push past (2^14 partitions is
// already past the sweet spot of every PRJ sweep in the paper's Figure 18).
constexpr int kMaxSkewRadixBits = 14;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || parsed <= 0) {
    IAWJ_LOG(Warning) << "ignoring malformed $" << name << "='" << value
                      << "'";
    return fallback;
  }
  return parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed <= 0) {
    IAWJ_LOG(Warning) << "ignoring malformed $" << name << "='" << value
                      << "'";
    return fallback;
  }
  return parsed;
}

void BumpCounter(const char* name, uint64_t n = 1) {
  if (!metrics::Enabled()) return;
  if (auto* counter = metrics::GetCounter(name)) counter->Add(n);
}

}  // namespace

ServeOptions ServeOptions::Resolve(ServeOptions o) {
  if (o.socket_path.empty()) {
    const char* path = std::getenv("IAWJ_SERVE_SOCKET");
    if (path != nullptr) o.socket_path = path;
  }
  if (o.pool_threads <= 0) {
    o.pool_threads = static_cast<int>(EnvInt("IAWJ_SERVE_POOL_THREADS", 4));
  }
  if (o.max_tenants <= 0) {
    o.max_tenants = static_cast<int>(EnvInt("IAWJ_SERVE_MAX_TENANTS", 8));
  }
  if (o.max_inflight <= 0) {
    o.max_inflight = static_cast<int>(EnvInt("IAWJ_SERVE_MAX_INFLIGHT", 4));
  }
  if (o.max_buffer_tuples <= 0) {
    o.max_buffer_tuples = EnvInt("IAWJ_SERVE_MAX_BUFFER", 4194304);
  }
  if (o.mem_share <= 0) o.mem_share = EnvDouble("IAWJ_SERVE_MEM_SHARE", 1.0);
  o.mem_share = std::min(o.mem_share, 1.0);
  return o;
}

// Per-connection tenant state. Lives on the HandleConnection stack: window
// jobs referencing it always complete before SealFinal's WaitIdle returns,
// and SealFinal always runs before the frame loop exits.
struct ServeServer::TenantSession {
  TenantSpec tenant;
  int slot = -1;
  SupervisorPolicy supervision;
  IngestPolicy ingest_policy;
  // The tenant's ingest → shed → segment state: only unsealed tuples and
  // the reorder buffers live here, never the whole stream.
  std::optional<WindowOperator> windows;

  // Skew detector state: the radix bits subsequent windows run with.
  std::atomic<int> radix_bits{0};
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};

  // Bounded-loss accounting outside individual windows.
  uint64_t tuples_shed = 0;       // watermark + backlog shedding
  uint64_t backlog_shed_events = 0;

  std::mutex results_mu;
  std::vector<WindowResult> results;
};

ServeServer::ServeServer(ServeOptions options)
    : options_(ServeOptions::Resolve(std::move(options))) {}

ServeServer::~ServeServer() { Shutdown(); }

Status ServeServer::Start() {
  if (started_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument(
        "no socket path (set --socket or $IAWJ_SERVE_SOCKET)");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition(std::string("socket(): ") +
                                      std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale file from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::FailedPrecondition("bind(" + options_.socket_path +
                                      "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::FailedPrecondition(std::string("listen(): ") +
                                      std::strerror(err));
  }

  pool_.Start(options_.pool_threads, options_.max_inflight);
  started_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  IAWJ_LOG(Info) << "iawj_serve listening on " << options_.socket_path << " ("
                 << options_.pool_threads << " pool threads, max "
                 << options_.max_tenants << " tenants)";
  return Status::Ok();
}

void ServeServer::RequestDrain() {
  draining_.store(true, std::memory_order_relaxed);
}

void ServeServer::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (shut_down_.exchange(true)) return;
  RequestDrain();
  accept_stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connection threads notice draining_ within one poll interval, seal
  // their tails, and finish; join them all before stopping the pool.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (const auto& connection : connections) connection->thread.join();
  pool_.Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.cross_tenant_steals = pool_.stats().cross_tenant_steals;
  }
  IAWJ_LOG(Info) << "iawj_serve drained: " << stats().windows_done
                 << " windows done, " << stats().cross_tenant_steals
                 << " cross-tenant steals";
}

ServeServer::ServerStats ServeServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats snapshot = stats_;
  snapshot.cross_tenant_steals = pool_.stats().cross_tenant_steals;
  return snapshot;
}

void ServeServer::AcceptLoop() {
  // Keeps accepting while draining: a latecomer's hello gets the typed
  // failed_precondition refusal instead of hanging unanswered in the
  // listen backlog. Only Shutdown stops the loop.
  while (!accept_stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    // A long-lived daemon sees many short-lived clients; reaping here keeps
    // connections_ bounded by the concurrent connection count rather than
    // growing one joinable zombie thread per client ever served.
    ReapConnectionsLocked();
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    connection->thread = std::thread([this, fd, raw] {
      HandleConnection(fd);
      ::close(fd);
      raw->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
}

void ServeServer::ReapConnectionsLocked() {
  auto finished = [](const std::unique_ptr<Connection>& connection) {
    return connection->done.load(std::memory_order_acquire);
  };
  for (const auto& connection : connections_) {
    if (finished(connection)) connection->thread.join();
  }
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(), finished),
      connections_.end());
}

void ServeServer::HandleConnection(int fd) {
  // Frame cap: the largest legitimate frame is a batch of max_buffer_tuples
  // tuples (the shed path must still parse an over-budget batch to thin
  // it), at most ~24 JSON bytes per tuple plus envelope. Anything larger is
  // hostile or corrupt and tears down the connection before it can balloon
  // daemon memory.
  const size_t max_frame_bytes =
      static_cast<size_t>(options_.max_buffer_tuples) * 32 + 4096;
  FrameReader reader(fd, max_frame_bytes);

  // Hello + admission. The poll timeout keeps a silent connection from
  // pinning the drain.
  TenantSession session;
  for (;;) {
    std::string frame;
    bool eof = false, timed_out = false;
    const Status status = reader.ReadFrame(&frame, &eof, 100, &timed_out);
    if (!status.ok() || eof) return;
    if (timed_out) {
      if (draining_.load(std::memory_order_relaxed)) return;
      continue;
    }
    json::Value message;
    Status parsed = json::Parse(frame, &message);
    if (parsed.ok()) {
      const json::Value* op = message.Find("op");
      if (op == nullptr || op->string != "hello") {
        parsed = Status::InvalidArgument("expected a hello frame first");
      } else {
        parsed = TenantSpec::FromHello(message, &session.tenant);
      }
    }
    if (!parsed.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.tenants_rejected;
      }
      WriteFrame(fd, ErrorJson(parsed));
      return;
    }
    break;
  }

  // Tenant-count admission: CAS so concurrent hellos cannot oversubscribe.
  for (;;) {
    if (draining_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.tenants_rejected;
      WriteFrame(fd, ErrorJson(Status::FailedPrecondition(
                         "daemon is draining; not accepting tenants")));
      return;
    }
    int active = tenants_active_.load(std::memory_order_relaxed);
    if (active >= options_.max_tenants) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.tenants_rejected;
      WriteFrame(fd, ErrorJson(Status::ResourceExhausted(
                         "tenant limit reached (" +
                         std::to_string(options_.max_tenants) + ")")));
      return;
    }
    if (tenants_active_.compare_exchange_weak(active, active + 1,
                                              std::memory_order_relaxed)) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tenants_admitted;
  }
  if (metrics::Enabled()) {
    if (auto* gauge = metrics::GetGauge("serve.tenants_active")) {
      gauge->Set(tenants_active_.load(std::memory_order_relaxed));
    }
  }

  session.slot = pool_.AddTenant(session.tenant.name);
  session.supervision = SupervisorPolicy::Resolve(session.tenant.spec);
  session.ingest_policy = IngestPolicy::Resolve(
      session.tenant.spec.disorder_slack_ms,
      session.tenant.spec.allowed_lateness_ms,
      session.tenant.spec.ingest_dedup);
  session.windows.emplace(WindowShape::Tumbling(session.tenant.spec.window_ms),
                          session.ingest_policy, session.supervision);
  session.radix_bits.store(session.tenant.spec.radix_bits,
                           std::memory_order_relaxed);
  WriteFrame(fd, OkJson());

  bool sealed = false;
  for (;;) {
    std::string frame;
    bool eof = false, timed_out = false;
    const Status status = reader.ReadFrame(&frame, &eof, 100, &timed_out);
    if (!status.ok() || eof) {
      // The client vanished without end: its timeline is incomplete, so the
      // unsealed tail is discarded — but windows already on the pool finish
      // and their records flush before the tenant departs.
      pool_.WaitIdle(session.slot);
      sealed = true;
      break;
    }
    if (timed_out) {
      if (!draining_.load(std::memory_order_relaxed)) continue;
      // Server-initiated drain: seal as if the client had sent end.
      SealFinal(&session, fd);
      sealed = true;
      break;
    }

    TenantFrame message;
    if (const Status parsed = message.Decode(frame); !parsed.ok()) {
      WriteFrame(fd, ErrorJson(Status::InvalidArgument("bad frame: " +
                                                       parsed.ToString())));
      continue;
    }

    if (message.op() == "end") {
      SealFinal(&session, fd);
      sealed = true;
      break;
    }
    if (message.op() != "batch") {
      WriteFrame(fd, ErrorJson(Status::InvalidArgument("unknown op: " +
                                                       message.op())));
      continue;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      // The drain wins over a batch already in flight: instead of the ack
      // the client gets the sealed window/bye tail covering everything the
      // daemon acked before the drain. The unacked batch is the client's to
      // replay elsewhere — acking it here would promise a seal the
      // draining daemon may not deliver.
      SealFinal(&session, fd);
      sealed = true;
      break;
    }

    if (!message.scanned()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.batches_json_fallback;
      }
      BumpCounter("serve.batches_json_fallback");
    }
    std::vector<Tuple> batch_r, batch_s;
    Status admitted = message.TakeBatch(&batch_r, &batch_s);
    // Without an ingest policy the sorted-stream contract and the key domain
    // are the client's to honor: a regressing timestamp would corrupt window
    // slicing and an out-of-domain key the sort and linear-probe joins, so
    // both are refused typed. An ingest policy reorders or quarantines them.
    for (int i = 0; i < 2 && admitted.ok(); ++i) {
      if (session.ingest_policy.Enabled()) break;
      uint64_t last = session.windows->frontier(i);
      for (const Tuple& t : i == 0 ? batch_r : batch_s) {
        if (t.ts < last) {
          admitted = Status::InvalidArgument(
              "timestamps regress within the stream; configure "
              "disorder_slack_ms/allowed_lateness_ms to accept out-of-order "
              "arrivals");
          break;
        }
        if (t.key >= kKeyDomainLimit) {
          admitted = Status::InvalidArgument(
              "key " + std::to_string(t.key) +
              " is outside the key domain [0, 2^31)");
          break;
        }
        last = t.ts;
      }
    }
    if (admitted.ok()) {
      const uint64_t buffered = session.windows->buffered();
      const uint64_t incoming = batch_r.size() + batch_s.size();
      if (buffered + incoming >
          static_cast<uint64_t>(options_.max_buffer_tuples)) {
        if (session.supervision.shed_watermark_per_ms > 0) {
          // Backlog shedding: thin the incoming batch with the tenant's
          // configured watermark instead of refusing it. Deterministic in
          // (batch, policy, how many backlog sheds preceded this one).
          const uint64_t shed_seed = session.supervision.seed + 2 +
                                     session.backlog_shed_events++;
          uint64_t shed = 0;
          for (auto* batch : {&batch_r, &batch_s}) {
            ShedResult result = ShedToWatermark(
                MakeStream(std::move(*batch)),
                session.supervision.shed_watermark_per_ms,
                session.supervision.shed_max_lag_ms, shed_seed);
            shed += result.tuples_shed;
            *batch = std::move(result.stream.tuples);
          }
          CountShed(&session, shed);
        } else {
          admitted = Status::ResourceExhausted(
              "tenant buffer full (" +
              std::to_string(options_.max_buffer_tuples) +
              " unsealed tuples); drain with end or configure "
              "shed_watermark_per_ms");
        }
      }
    }
    if (!admitted.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.batches_rejected;
      }
      BumpCounter("serve.batches_rejected");
      WriteFrame(fd, ErrorJson(admitted));
      continue;
    }

    const uint64_t incoming = batch_r.size() + batch_s.size();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.tuples_in += incoming;
    }
    BumpCounter("serve.tuples_in", incoming);
    const uint64_t shed_before = session.windows->tuples_shed();
    session.windows->Push(batch_r, batch_s, [&](SealedWindow window) {
      SubmitWindow(&session, std::move(window));
    });
    CountShed(&session, session.windows->tuples_shed() - shed_before);
    WriteFrame(fd, OkJson());
  }

  if (!sealed) pool_.WaitIdle(session.slot);
  pool_.RemoveTenant(session.slot);
  tenants_active_.fetch_sub(1, std::memory_order_relaxed);
  if (metrics::Enabled()) {
    if (auto* gauge = metrics::GetGauge("serve.tenants_active")) {
      gauge->Set(tenants_active_.load(std::memory_order_relaxed));
    }
  }
}

void ServeServer::CountShed(TenantSession* session, uint64_t shed) {
  if (shed == 0) return;
  session->tuples_shed += shed;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.tuples_shed += shed;
  }
  BumpCounter("serve.tuples_shed", shed);
}

void ServeServer::SealFinal(TenantSession* session, int fd) {
  const uint64_t shed_before = session->windows->tuples_shed();
  session->windows->Flush({}, {}, [&](SealedWindow window) {
    SubmitWindow(session, std::move(window));
  });
  CountShed(session, session->windows->tuples_shed() - shed_before);

  pool_.WaitIdle(session->slot);

  std::vector<WindowResult> results;
  {
    std::lock_guard<std::mutex> lock(session->results_mu);
    results = session->results;
  }
  // Jobs complete in pool order, not window order; the client sees windows
  // in timeline order like the offline pipeline reports them.
  std::sort(results.begin(), results.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return a.window_index < b.window_index;
            });
  uint64_t inputs = 0, matches = 0, checksum = 0;
  bool recovered = false;
  bool degraded = session->tuples_shed > 0 ||
                  session->windows->ingest_stats().quarantined() > 0;
  for (const WindowResult& window : results) {
    WriteFrame(fd, WindowJson(window));
    recovered = recovered || window.recovered;
    degraded = degraded || window.degraded || !window.ok();
    if (window.ok()) {
      inputs += window.inputs;
      matches += window.matches;
      checksum += window.checksum;
    }
  }
  WriteFrame(fd, ByeJson(session->tenant.name, results.size(), inputs,
                         matches, checksum, recovered, degraded));
}

void ServeServer::SubmitWindow(TenantSession* session, SealedWindow window) {
  const JoinSpec& spec = session->tenant.spec;
  const uint64_t window_index = window.index;
  const uint64_t start = window.start_ms;

  WindowResult shell;
  shell.window_index = window_index;
  shell.window_start_ms = start;
  shell.algorithm = std::string(AlgorithmName(session->tenant.algo));

  // Memory admission: the estimated footprint must fit both this tenant's
  // share of the budget and the budget's remaining headroom (Preflight).
  // Refused windows never reach the pool; the client gets a typed result.
  const uint64_t window_inputs = window.r.size() + window.s.size();
  const int64_t estimate =
      static_cast<int64_t>(window_inputs) * kBytesPerTuplePreflight;
  Status admission = Status::Ok();
  const int64_t budget = mem::BudgetBytes();
  if (budget > 0 &&
      static_cast<double>(estimate) >
          static_cast<double>(budget) * options_.mem_share) {
    admission = Status::ResourceExhausted(
        "window " + std::to_string(window_index) + " estimate (" +
        std::to_string(estimate) + " bytes) exceeds the tenant share of the "
        "memory budget");
  } else {
    admission = mem::Preflight(estimate, "serve window admission");
  }
  if (!admission.ok()) {
    shell.status_code = std::string(StatusCodeName(admission.code()));
    shell.status_message = admission.message();
    shell.inputs = window_inputs;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.windows_shed;
    }
    BumpCounter("serve.windows_shed");
    std::lock_guard<std::mutex> lock(session->results_mu);
    session->results.push_back(std::move(shell));
    return;
  }

  JoinSpec window_spec = spec;
  window_spec.radix_bits = session->radix_bits.load(std::memory_order_relaxed);
  const uint64_t queue_depth =
      session->submitted.load(std::memory_order_relaxed) -
      session->completed.load(std::memory_order_relaxed);
  session->submitted.fetch_add(1, std::memory_order_relaxed);

  // WindowJob is a std::function (copyable), so the sealed window rides in
  // a shared_ptr instead of being copied per std::function copy.
  auto inputs = std::make_shared<SealedWindow>(std::move(window));
  const bool submitted = pool_.Submit(
      session->slot,
      [this, session, inputs, window_spec, window_index, start, shell,
       queue_depth](int worker, bool stolen, double wait_ms) {
        JoinRunner runner;
        const RunResult result =
            RunWindowOnce(runner, session->tenant.algo, inputs->r, inputs->s,
                          window_spec, session->supervision, window_index);

        WindowResult window = shell;
        if (!result.algorithm.empty()) window.algorithm = result.algorithm;
        window.status_code = std::string(StatusCodeName(result.status.code()));
        window.status_message = result.status.message();
        window.inputs = result.inputs;
        window.matches = result.matches;
        window.checksum = result.checksum;
        window.recovered = result.recovery.recovered();
        window.degraded = result.recovery.degraded();
        window.wait_ms = wait_ms;
        window.worker = worker;
        window.stolen = stolen;

        RunRecordContext context;
        context.bench = "iawj_serve";
        context.workload = session->tenant.name;
        context.serve.active = true;
        context.serve.tenant = session->tenant.name;
        context.serve.window_index = window_index;
        context.serve.window_start_ms = start;
        context.serve.tenants_active = tenants_active();
        context.serve.queue_depth = queue_depth;
        context.serve.cross_tenant_steals =
            pool_.stats().cross_tenant_steals;
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          context.serve.windows_shed = stats_.windows_shed;
          if (result.status.ok()) ++stats_.windows_done;
        }
        context.serve.wait_ms = wait_ms;
        context.serve.worker = worker;
        context.serve.stolen = stolen;
        MaybeWriteRunRecord(result, window_spec, context);
        // Failed windows must not count: OPERATIONS.md keys troubleshooting
        // on serve.windows_done agreeing with ServerStats::windows_done.
        if (result.status.ok()) BumpCounter("serve.windows_done");

        session->completed.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(session->results_mu);
          session->results.push_back(std::move(window));
        }
        MaybeRepartition(session);
      });
  if (!submitted) {
    // Pool stopping underneath us (hard shutdown): report the window
    // cancelled rather than silently losing it.
    session->submitted.fetch_sub(1, std::memory_order_relaxed);
    shell.status_code = std::string(StatusCodeName(StatusCode::kCancelled));
    shell.status_message = "daemon shut down before the window ran";
    std::lock_guard<std::mutex> lock(session->results_mu);
    session->results.push_back(std::move(shell));
  }
}

void ServeServer::MaybeRepartition(TenantSession* session) {
  // PanJoin-style skew response: a radix-partitioned tenant consuming more
  // than twice its fair share of pool service gets finer partitions, which
  // shrinks its longest indivisible work unit and lets the fair-share
  // dispatcher interleave other tenants more often. Answer-preserving: the
  // match multiset is invariant in radix_bits.
  const AlgorithmId algo = session->tenant.algo;
  if (algo != AlgorithmId::kPrj && algo != AlgorithmId::kHhj) return;
  if (session->completed.load(std::memory_order_relaxed) < 4) return;
  const int active = tenants_active();
  if (active < 2) return;
  const uint64_t mine = pool_.TenantServiceNs(session->slot);
  const uint64_t total = pool_.stats().total_service_ns;
  if (total == 0) return;
  const double fair_share = static_cast<double>(total) / active;
  if (static_cast<double>(mine) <= 2.0 * fair_share) return;
  int bits = session->radix_bits.load(std::memory_order_relaxed);
  if (bits >= kMaxSkewRadixBits) return;
  if (!session->radix_bits.compare_exchange_strong(
          bits, bits + 1, std::memory_order_relaxed)) {
    return;  // another worker just bumped it
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.repartitions;
  }
  BumpCounter("serve.repartitions");
  IAWJ_LOG(Info) << "skew detector: tenant '" << session->tenant.name
                 << "' at " << mine << " ns of " << total
                 << " ns pool service; radix_bits " << bits << " -> "
                 << bits + 1;
}

}  // namespace iawj::serve
