// No-Partitioning Join (NPJ), Blanas et al. — lazy, hash, shared table.
//
// Both relations split into equisized per-thread portions; all threads
// populate one shared hash table with R, synchronize on a barrier, then
// concurrently probe with their portions of S (paper §3.1). The table is
// the paper's latched bucket chain under scalar kernels and the lock-free
// CAS chain table under the auto plan (common/kernels.h).
#ifndef IAWJ_JOIN_NPJ_H_
#define IAWJ_JOIN_NPJ_H_

#include <memory>

#include "src/common/kernels.h"
#include "src/hash/concurrent_table.h"
#include "src/hash/lockfree_table.h"
#include "src/join/context.h"
#include "src/partition/range.h"

namespace iawj {

template <typename Tracer = NullTracer>
class NpjJoin : public JoinAlgorithm {
 public:
  std::string_view name() const override { return "NPJ"; }

  KernelSites kernel_sites(const JoinSpec&) const override {
    return {.shared_build = true, .chained_probe = true};
  }

  Status Setup(const JoinContext& ctx) override {
    // Both shared tables preflight their full footprint first.
    const bool lockfree = ctx.kernels.lockfree_build;
    const int64_t table_bytes =
        lockfree ? LockFreeChainTable<Tracer>::TrackedBytesFor(ctx.r.size())
                 : ConcurrentBucketChainTable<Tracer>::TrackedBytesFor(
                       ctx.r.size());
    if (Status s = mem::Preflight(table_bytes, "NPJ shared hash table");
        !s.ok()) {
      return s;
    }
    if (lockfree) {
      lockfree_table_ =
          std::make_unique<LockFreeChainTable<Tracer>>(ctx.r.size());
    } else {
      table_ = std::make_unique<ConcurrentBucketChainTable<Tracer>>(
          ctx.r.size());
    }
    if (ctx.MorselMode()) {
      // Both parallel loops become morsel phases. Sized here, not by worker
      // 0, because the build loop starts straight after the window wait with
      // no barrier in between.
      build_phase_.Reset(*ctx.scheduler, ctx.r.size());
      probe_phase_.Reset(*ctx.scheduler, ctx.s.size());
    }
    return Status::Ok();
  }

  void RunWorker(const JoinContext& ctx, int worker) override;

  void Teardown() override {
    table_.reset();
    lockfree_table_.reset();
  }

 private:
  // The build/probe loops are identical across the two shared-table
  // substrates; RunWorker picks the active one and instantiates this.
  template <typename Table>
  void RunWorkerOn(Table& table, const JoinContext& ctx, int worker);

  std::unique_ptr<ConcurrentBucketChainTable<Tracer>> table_;
  std::unique_ptr<LockFreeChainTable<Tracer>> lockfree_table_;
  MorselPhase build_phase_;
  MorselPhase probe_phase_;
};

// Instantiates the production (NullTracer) variant.
std::unique_ptr<JoinAlgorithm> MakeNpj();
// Instantiates the cache-profiling (SimTracer) variant.
std::unique_ptr<JoinAlgorithm> MakeNpjTraced();

}  // namespace iawj

#endif  // IAWJ_JOIN_NPJ_H_
