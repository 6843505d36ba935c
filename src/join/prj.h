// Parallel Radix Join (PRJ), Kim et al. / Balkesen et al. — lazy, hash,
// cache-aware physical replication.
//
// Both relations are radix-partitioned by the low #r bits of the key into
// contiguous partitions; partitions then join independently with a
// cache-resident bucket-chain hash table. Partitioning runs fully in
// parallel (per-thread histograms, cooperative prefix sums, scatter) in one
// pass, or — JoinSpec::radix_passes == 2 — in Balkesen's two-pass variant
// that keeps the number of concurrently open write streams per pass at
// 2^(#r/2), easing TLB pressure for large #r. The per-partition joins drain
// from a shared atomic task queue, so key skew that collapses tuples into
// few partitions serializes PRJ — the effect the paper measures in
// Figure 13.
#ifndef IAWJ_JOIN_PRJ_H_
#define IAWJ_JOIN_PRJ_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/kernels.h"
#include "src/join/context.h"
#include "src/memory/tracker.h"
#include "src/profiling/cache_sim.h"

namespace iawj {

template <typename Tracer = NullTracer>
class PrjJoin : public JoinAlgorithm {
 public:
  std::string_view name() const override { return "PRJ"; }

  KernelSites kernel_sites(const JoinSpec& spec) const override {
    const bool linear = spec.hash_table_kind == HashTableKind::kLinearProbe;
    return {.radix_scatter = true,
            .chained_probe = !linear,
            .linear_probe = linear};
  }

  Status Setup(const JoinContext& ctx) override;
  void RunWorker(const JoinContext& ctx, int worker) override;
  void Teardown() override;

 private:
  // Both return true when the run was cancelled mid-phase; the caller must
  // unwind from RunWorker without touching the barrier (see AbortRequested).
  bool RunSecondPass(const JoinContext& ctx, int worker, Tracer& tracer);
  bool JoinPartitions(const JoinContext& ctx, int worker, Tracer& tracer);

  // Bit split: pass 1 uses the low bits1_ bits, pass 2 the next bits2_.
  int bits1_ = 0;
  int bits2_ = 0;
  // Resolved once in Setup: morsel-driven scheduling (join/scheduler.h).
  // Pass 1 histograms/cursors become per-morsel instead of per-thread, and
  // the refine/join task queues drain through morsel phases so steals are
  // counted and NUMA-ordered.
  bool morsel_ = false;
  size_t parts1_ = 0;
  size_t parts_total_ = 0;

  // Pass-1 scattered copies, partition-contiguous.
  mem::TrackedBuffer<Tuple> r_out_;
  mem::TrackedBuffer<Tuple> s_out_;
  // Pass-2 refined copies (radix_passes == 2 only).
  mem::TrackedBuffer<Tuple> r_out2_;
  mem::TrackedBuffer<Tuple> s_out2_;

  // hist[i * parts1 + p]: tuples of pass-1 partition p in chunk i, where a
  // chunk is thread i's equisized range (static) or the i-th morsel
  // (morsel mode — same grid as the pass-1 phases below).
  std::vector<uint64_t> hist_r_;
  std::vector<uint64_t> hist_s_;
  // Morsel mode only: scatter cursor rows per morsel, cursors_[m * parts1 +
  // p] = offsets[p] + sum of partition-p histogram counts of morsels < m.
  // Worker 0 publishes them between the histogram and scatter barriers;
  // each row is then mutated exclusively by its morsel's claimant.
  std::vector<uint64_t> cursors_r_;
  std::vector<uint64_t> cursors_s_;
  // Morsel mode only: pass-1 morsel grids (histogram and scatter walk the
  // same grid so cursor prefixes line up) and task phases for the dynamic
  // refine/join queues. Pass-1 morsel sizes are raised so the histogram
  // block stays bounded (<= kMaxPass1Morsels per side).
  static constexpr size_t kMaxPass1Morsels = 4096;
  size_t morsel_r_ = 0;
  size_t morsel_s_ = 0;
  MorselPhase hist_phase_r_;
  MorselPhase hist_phase_s_;
  MorselPhase scatter_phase_r_;
  MorselPhase scatter_phase_s_;
  MorselPhase refine_phase_;
  MorselPhase join_phase_;
  // Pass-1 partition start offsets (size parts1 + 1).
  std::vector<uint64_t> offsets_r_;
  std::vector<uint64_t> offsets_s_;
  // Final partition offsets (size parts_total + 1), memory order.
  std::vector<uint64_t> final_off_r_;
  std::vector<uint64_t> final_off_s_;

  std::atomic<size_t> next_refine_{0};
  std::atomic<size_t> next_join_{0};
};

std::unique_ptr<JoinAlgorithm> MakePrj();
std::unique_ptr<JoinAlgorithm> MakePrjTraced();

}  // namespace iawj

#endif  // IAWJ_JOIN_PRJ_H_
