// Hybrid Hash Join (HHJ) — lazy, hash, spill-capable (ISSUE 7).
//
// The paper's eight algorithms all assume the window fits in RAM; HHJ is
// the robustness-layer ninth that survives larger-than-memory windows with
// bounded memory. It radix-partitions both relations (the same
// content-based split as PRJ's first pass), keeps the hottest partitions —
// ranked by the partitioning histogram, PanJoin-style — resident in
// tracker-accounted buffers up to half the memory budget, and spills the
// cold tail to per-partition run files (io/spill.h). Resident partitions
// join in memory; spilled partitions are restored one at a time under a
// per-worker load budget, recursively repartitioned when a run is still too
// large, and block-nested-looped once the bounded recursion depth is
// exhausted (a single over-duplicated key cannot recurse forever). The
// answer is always exact; memory pressure becomes disk traffic instead of
// a failed run.
//
// Budget layout (B = IAWJ_MEM_BUDGET; unlimited keeps everything resident):
//   B/2  resident partition copies + their transient build tables
//   B/4  spill write buffers (page size shrinks so 2 * partitions fit)
//   B/4  restore loads: each worker loads at most B/(4*threads) at a time
#ifndef IAWJ_JOIN_HHJ_H_
#define IAWJ_JOIN_HHJ_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/kernels.h"
#include "src/io/spill.h"
#include "src/join/context.h"
#include "src/memory/tracker.h"

namespace iawj {

template <typename Tracer = NullTracer>
class HhjJoin : public JoinAlgorithm {
 public:
  std::string_view name() const override { return "HHJ"; }

  // Its own scalar scatter (resident or spilled per tuple) and private
  // builds; every probe is of a LinearProbeTable.
  KernelSites kernel_sites(const JoinSpec&) const override {
    return {.linear_probe = true};
  }

  Status Setup(const JoinContext& ctx) override;
  void RunWorker(const JoinContext& ctx, int worker) override;
  void Teardown() override;

  const SpillStats* spill_stats() override;

 private:
  // One spilled partition's run files plus the append locks the scatter
  // phase serializes on (writers themselves are single-threaded).
  struct PartitionFiles {
    spill::SpillWriter r, s;
    std::mutex mu_r, mu_s;
  };

  // Scatters this worker's chunk of one relation: resident tuples into the
  // in-memory copy, cold tuples into their partition's run file. Returns
  // false when the run was cancelled (barrier slot already dropped).
  bool ScatterChunk(const JoinContext& ctx, int worker, bool is_r,
                    Tracer& tracer);

  // Flushes and closes every spill writer; failures cancel the run.
  void CloseWriters(const JoinContext& ctx);

  // Joins one resident partition (build over R, probe with S). Returns
  // false when cancelled.
  bool JoinResident(const JoinContext& ctx, size_t p, int worker,
                    Tracer& tracer);

  // Restores and joins one spilled run pair, recursing into a finer
  // repartitioning when R does not fit the load budget and falling back to
  // block-nested-loop at the depth bound.
  Status JoinSpilled(const JoinContext& ctx, int worker,
                     const std::string& base, const std::string& r_path,
                     const std::string& s_path, uint64_t r_count,
                     uint64_t s_count, int depth, Tracer& tracer);

  Status JoinLoadedRun(const JoinContext& ctx, int worker,
                       const std::string& r_path, const std::string& s_path,
                       uint64_t r_count, Tracer& tracer);
  Status RepartitionRun(const JoinContext& ctx, int worker,
                        const std::string& base, const std::string& r_path,
                        const std::string& s_path, int depth, Tracer& tracer);
  Status JoinBlockNestedLoop(const JoinContext& ctx, int worker,
                             const std::string& r_path,
                             const std::string& s_path, Tracer& tracer);

  void NoteDepth(int depth);
  void NoteElapsedUs(uint64_t us);

  int bits_ = 0;
  size_t parts_ = 0;
  size_t page_bytes_ = 0;
  int64_t load_budget_ = 0;  // per-worker restore bytes (tuples + table)

  std::vector<uint64_t> hr_, hs_;           // per-partition tuple counts
  std::vector<uint8_t> resident_;           // partition -> kept in memory?
  std::vector<uint64_t> res_off_r_, res_off_s_;  // resident copy offsets
  std::vector<uint64_t> cursors_r_, cursors_s_;  // [worker][partition]
  mem::TrackedBuffer<Tuple> r_res_, s_res_;

  std::string dir_;  // this run's spill directory; empty = nothing spilled
  std::vector<std::unique_ptr<PartitionFiles>> files_;  // [partition]
  std::vector<uint32_t> resident_list_, spilled_list_;
  std::atomic<size_t> next_resident_{0}, next_spilled_{0};

  std::atomic<uint64_t> bytes_written_{0}, bytes_read_{0};
  std::atomic<uint64_t> pages_written_{0}, pages_read_{0};
  std::atomic<uint64_t> max_depth_{0}, bnl_fallbacks_{0};
  std::atomic<uint64_t> elapsed_us_{0};  // max over workers
  SpillStats snapshot_;
};

// Instantiates the production (NullTracer) variant.
std::unique_ptr<JoinAlgorithm> MakeHhj();
// Instantiates the cache-profiling (SimTracer) variant.
std::unique_ptr<JoinAlgorithm> MakeHhjTraced();

}  // namespace iawj

#endif  // IAWJ_JOIN_HHJ_H_
