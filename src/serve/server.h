// The iawj_serve daemon core: a long-lived multi-tenant join service.
//
// One ServeServer owns a Unix-domain listening socket, one connection
// thread per client, and one FairSharePool shared by every tenant. A
// connection speaks the newline-framed JSON protocol (serve/protocol.h):
// hello registers a tenant (admission-controlled) and gives it a
// WindowOperator (join/window_operator.h); each batch is pushed into it, and
// every tumbling window it seals goes onto the pool while the stream flows.
// Ingestion and shedding run incrementally inside the operator, the same
// code the offline pipeline pushes whole streams through, and each window
// runs through RunWindowOnce under the tenant's supervision policy — so a
// served window is byte-identical (matches, checksum) to the same spec run
// through iawj_cli, by construction.
//
// Admission control, per tenant:
//   - tenant count:    hello is refused (resource_exhausted) at the
//                      max_tenants bound, or while draining
//                      (failed_precondition);
//   - unsealed tuples: a batch that would push the tuples the tenant's
//                      operator holds (unsealed windows plus the reorder
//                      buffer) past max_buffer_tuples is refused
//                      (resource_exhausted) — unless the tenant configured
//                      a shed watermark, in which case the incoming batch
//                      is thinned by ShedToWatermark and admitted with the
//                      loss accounted (degraded, serve.tuples_shed);
//   - memory share:    each sealed window preflights its estimated
//                      footprint against mem_share of the process budget
//                      (mem::Preflight) before touching the pool; refused
//                      windows are reported to the client with a typed
//                      resource_exhausted result (serve.windows_shed);
//   - in-flight bound: the pool backpressures Submit at max_inflight jobs
//                      per tenant, so a flooding connection blocks instead
//                      of ballooning the queue.
//
// A PanJoin-style skew detector watches per-tenant service share: a tenant
// of a radix-partitioned algorithm (PRJ/HHJ) consuming more than twice its
// fair share of pool time gets its radix bits bumped for subsequent
// windows — finer partitions, better steal granularity, identical answer
// (the match multiset is algorithm- and radix-invariant).
//
// Drain (SIGTERM): RequestDrain stops admitting tenants (late hellos are
// still accepted and refused typed), and every connection flushes its
// operator as if the client had sent end — in-flight and unsealed windows
// complete, their v9 run records flush, clients receive the full
// window/bye tail — then Shutdown stops the accept loop and joins
// everything.
#ifndef IAWJ_SERVE_SERVER_H_
#define IAWJ_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/join/window_operator.h"
#include "src/serve/pool.h"
#include "src/serve/protocol.h"
#include "src/stream/stream.h"

namespace iawj::serve {

// Daemon configuration. Resolution order per knob: explicit field (> 0)
// wins, then the environment variable, then the default — the same
// precedence convention as JoinSpec's supervision knobs.
struct ServeOptions {
  std::string socket_path;        // required; $IAWJ_SERVE_SOCKET when empty
  int pool_threads = 0;           // $IAWJ_SERVE_POOL_THREADS, default 4
  int max_tenants = 0;            // $IAWJ_SERVE_MAX_TENANTS, default 8
  int max_inflight = 0;           // $IAWJ_SERVE_MAX_INFLIGHT, default 4
  int64_t max_buffer_tuples = 0;  // $IAWJ_SERVE_MAX_BUFFER, default 4194304
  double mem_share = 0;           // $IAWJ_SERVE_MEM_SHARE, default 1.0

  // Applies environment fallbacks and defaults to every unset field.
  static ServeOptions Resolve(ServeOptions overrides);
};

class ServeServer {
 public:
  // Counters over the daemon lifetime; mirrored into serve.* metrics.
  struct ServerStats {
    uint64_t connections = 0;
    uint64_t tenants_admitted = 0;
    uint64_t tenants_rejected = 0;
    uint64_t batches_rejected = 0;
    uint64_t batches_json_fallback = 0;  // batches not in canonical form
    uint64_t tuples_in = 0;
    uint64_t tuples_shed = 0;      // watermark + backlog shedding
    uint64_t windows_done = 0;
    uint64_t windows_shed = 0;     // admission-refused windows
    uint64_t repartitions = 0;     // skew-detector radix bumps
    uint64_t cross_tenant_steals = 0;
  };

  explicit ServeServer(ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Binds the socket (unlinking a stale file), starts the pool and the
  // accept loop. FailedPrecondition when the path cannot be bound.
  Status Start();

  // Begins draining: no new tenants (connections are still accepted so a
  // latecomer's hello gets a typed failed_precondition refusal rather than
  // hanging in the listen backlog); existing connections seal and finish
  // as if their client had sent end. Returns immediately.
  void RequestDrain();

  // RequestDrain + joins every connection and the pool + removes the
  // socket file. Blocks until the daemon is fully quiesced. Idempotent.
  void Shutdown();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const { return options_; }

  ServerStats stats() const;
  int tenants_active() const {
    return tenants_active_.load(std::memory_order_relaxed);
  }

 private:
  struct TenantSession;

  // One client connection: its handler thread plus a completion flag the
  // thread raises as its last act, so the accept loop can join and discard
  // finished connections instead of accumulating joinable zombies for the
  // daemon's lifetime.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  // Joins and erases every connection whose handler has finished.
  void ReapConnectionsLocked();
  void HandleConnection(int fd);
  // Flushes the tenant's operator, waits for its jobs, and writes the
  // window/bye tail to the client.
  void SealFinal(TenantSession* session, int fd);
  void SubmitWindow(TenantSession* session, SealedWindow window);
  // Folds tuples the tenant's shedding dropped into the loss accounting.
  void CountShed(TenantSession* session, uint64_t shed);
  void MaybeRepartition(TenantSession* session);

  ServeOptions options_;
  FairSharePool pool_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> accept_stop_{false};  // set by Shutdown only
  std::atomic<bool> started_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<int> tenants_active_{0};

  std::mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace iawj::serve

#endif  // IAWJ_SERVE_SERVER_H_
