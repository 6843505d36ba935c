#include "src/join/hhj.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

#include "src/hash/linear_probe.h"
#include "src/hash/prefetch.h"
#include "src/hash/simd_probe.h"
#include "src/partition/radix.h"
#include "src/partition/range.h"

namespace iawj {

namespace {

// Fanout cap: each spilled partition holds two open run files, so 2^7
// partitions bound the worst case at 256 descriptors and write buffers.
constexpr int kMaxBits = 7;
// Smallest useful page payload; the budget-driven page shrink stops here.
constexpr size_t kMinPageBytes = 1024;
// Working estimate of build-side table cost per tuple: a LinearProbeTable
// over n tuples allocates NextPow2(2n) slots of 8 bytes, <= 32 bytes/tuple.
constexpr uint64_t kTableBytesPerBuildTuple = 32;
// Recursive repartitioning: 4-way fanout on the next-higher key bits, at
// most kMaxDepth levels before the block-nested-loop fallback takes over
// (a single over-duplicated key can never be split by key bits).
constexpr int kChildBits = 2;
constexpr uint32_t kChildMask = (1u << kChildBits) - 1;
constexpr int kMaxDepth = 4;

constexpr size_t kCancelMask = 8191;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

template <typename Tracer>
Status HhjJoin<Tracer>::Setup(const JoinContext& ctx) {
  const int threads = ctx.spec->num_threads;
  const int64_t budget = mem::BudgetBytes();

  // Fanout and page size adapt to the budget: all spill write buffers (two
  // relations' worth) must fit inside one budget quarter.
  bits_ = std::clamp(ctx.spec->radix_bits, 1, kMaxBits);
  page_bytes_ = spill::PageBytes();
  if (budget > 0) {
    while (bits_ > 1 &&
           static_cast<int64_t>(2 * (size_t{1} << bits_) * kMinPageBytes) >
               budget / 4) {
      --bits_;
    }
    const int64_t per_writer = budget / 4 / (2 * (int64_t{1} << bits_));
    page_bytes_ = std::clamp(static_cast<size_t>(per_writer), kMinPageBytes,
                             page_bytes_);
  }
  parts_ = size_t{1} << bits_;

  // One serial counting pass per relation, chunked exactly as the scatter
  // phase will be, yields both the residency histogram and the per-worker
  // scatter cursors without an extra barrier.
  std::vector<uint64_t> per_worker_r, per_worker_s;
  const auto count_chunks = [&](std::span<const Tuple> rel,
                                std::vector<uint64_t>* per_worker,
                                std::vector<uint64_t>* totals) {
    per_worker->assign(static_cast<size_t>(threads) * parts_, 0);
    totals->assign(parts_, 0);
    for (int t = 0; t < threads; ++t) {
      const ChunkRange c = ChunkForThread(rel.size(), t, threads);
      uint64_t* row = per_worker->data() + static_cast<size_t>(t) * parts_;
      RadixHistogram(rel.data() + c.begin, c.size(), bits_, row);
      for (size_t p = 0; p < parts_; ++p) (*totals)[p] += row[p];
    }
  };
  count_chunks(ctx.r, &per_worker_r, &hr_);
  count_chunks(ctx.s, &per_worker_s, &hs_);

  // Hot-first residency: rank partitions by tuple count (the histogram is
  // the sample) and keep the heaviest that fit half the budget, costing
  // each partition its copies plus its transient build table. First-fit
  // decreasing: a cold giant that misses does not evict smaller partitions.
  std::vector<uint32_t> order(parts_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return hr_[a] + hs_[a] > hr_[b] + hs_[b];
  });
  resident_.assign(parts_, 1);
  int64_t used = 0;
  const int64_t resident_budget = budget > 0 ? budget / 2 : 0;
  for (const uint32_t p : order) {
    if (hr_[p] + hs_[p] == 0) continue;
    const int64_t cost =
        static_cast<int64_t>((hr_[p] + hs_[p]) * sizeof(Tuple) +
                             kTableBytesPerBuildTuple * hr_[p]);
    if (budget <= 0 || used + cost <= resident_budget) {
      used += cost;
      resident_list_.push_back(p);
    } else {
      resident_[p] = 0;
      spilled_list_.push_back(p);
    }
  }
  std::sort(resident_list_.begin(), resident_list_.end());
  std::sort(spilled_list_.begin(), spilled_list_.end());

  // Resident copy layout + per-worker scatter cursors.
  res_off_r_.assign(parts_ + 1, 0);
  res_off_s_.assign(parts_ + 1, 0);
  for (size_t p = 0; p < parts_; ++p) {
    res_off_r_[p + 1] = res_off_r_[p] + (resident_[p] ? hr_[p] : 0);
    res_off_s_[p + 1] = res_off_s_[p] + (resident_[p] ? hs_[p] : 0);
  }
  const auto make_cursors = [&](const std::vector<uint64_t>& per_worker,
                                const std::vector<uint64_t>& offsets,
                                std::vector<uint64_t>* cursors) {
    cursors->assign(static_cast<size_t>(threads) * parts_, 0);
    for (size_t p = 0; p < parts_; ++p) {
      uint64_t at = offsets[p];
      for (int t = 0; t < threads; ++t) {
        (*cursors)[static_cast<size_t>(t) * parts_ + p] = at;
        at += per_worker[static_cast<size_t>(t) * parts_ + p];
      }
    }
  };
  make_cursors(per_worker_r, res_off_r_, &cursors_r_);
  make_cursors(per_worker_s, res_off_s_, &cursors_s_);

  if (Status s = mem::Preflight(
          static_cast<int64_t>(
              (res_off_r_[parts_] + res_off_s_[parts_]) * sizeof(Tuple)),
          "HHJ resident partitions");
      !s.ok()) {
    return s;
  }
  r_res_.Resize(res_off_r_[parts_]);
  s_res_.Resize(res_off_s_[parts_]);

  files_.clear();
  files_.resize(parts_);
  if (!spilled_list_.empty()) {
    if (Status s = spill::CreateRunDir(&dir_); !s.ok()) return s;
    for (const uint32_t p : spilled_list_) {
      auto pf = std::make_unique<PartitionFiles>();
      const std::string base = dir_ + "/p" + std::to_string(p);
      if (Status s = pf->r.Open(base + "_r.spl", page_bytes_); !s.ok()) {
        return s;
      }
      if (Status s = pf->s.Open(base + "_s.spl", page_bytes_); !s.ok()) {
        return s;
      }
      files_[p] = std::move(pf);
    }
  }

  // Restore loads share the last budget quarter across workers; the floor
  // keeps tiny budgets functional (one page in flight plus table slack).
  load_budget_ =
      budget > 0
          ? std::max<int64_t>(budget / (4 * threads),
                              static_cast<int64_t>(2 * page_bytes_ + 4096))
          : std::numeric_limits<int64_t>::max();

  next_resident_.store(0, std::memory_order_relaxed);
  next_spilled_.store(0, std::memory_order_relaxed);
  bytes_written_.store(0, std::memory_order_relaxed);
  bytes_read_.store(0, std::memory_order_relaxed);
  pages_written_.store(0, std::memory_order_relaxed);
  pages_read_.store(0, std::memory_order_relaxed);
  max_depth_.store(0, std::memory_order_relaxed);
  bnl_fallbacks_.store(0, std::memory_order_relaxed);
  elapsed_us_.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

template <typename Tracer>
bool HhjJoin<Tracer>::ScatterChunk(const JoinContext& ctx, int worker,
                                   bool is_r, Tracer& tracer) {
  const std::span<const Tuple> in = is_r ? ctx.r : ctx.s;
  const ChunkRange chunk =
      ChunkForThread(in.size(), worker, ctx.spec->num_threads);
  uint64_t* cursors = (is_r ? cursors_r_ : cursors_s_).data() +
                      static_cast<size_t>(worker) * parts_;
  Tuple* out = (is_r ? r_res_ : s_res_).data();
  for (size_t i = chunk.begin; i < chunk.end; ++i) {
    if ((i & kCancelMask) == 0 && ctx.AbortRequested()) return false;
    tracer.Access(&in[i], sizeof(Tuple));
    const uint32_t p = RadixOf(in[i].key, bits_);
    if (resident_[p]) {
      out[cursors[p]] = in[i];
      tracer.Access(&out[cursors[p]], sizeof(Tuple));
      ++cursors[p];
    } else {
      PartitionFiles& pf = *files_[p];
      std::lock_guard<std::mutex> lock(is_r ? pf.mu_r : pf.mu_s);
      spill::SpillWriter& w = is_r ? pf.r : pf.s;
      if (Status s = w.Append(in[i]); !s.ok()) {
        ctx.cancel->Cancel(std::move(s));
        ctx.AbortRequested();
        return false;
      }
    }
  }
  return true;
}

template <typename Tracer>
void HhjJoin<Tracer>::CloseWriters(const JoinContext& ctx) {
  Status first;
  for (const uint32_t p : spilled_list_) {
    PartitionFiles& pf = *files_[p];
    for (spill::SpillWriter* w : {&pf.r, &pf.s}) {
      const Status s = w->Close();
      bytes_written_.fetch_add(w->bytes_written(), std::memory_order_relaxed);
      pages_written_.fetch_add(w->pages_written(), std::memory_order_relaxed);
      if (!s.ok() && first.ok()) first = s;
    }
  }
  if (!first.ok()) ctx.cancel->Cancel(std::move(first));
}

template <typename Tracer>
bool HhjJoin<Tracer>::JoinResident(const JoinContext& ctx, size_t p,
                                   int worker, Tracer& tracer) {
  if (hr_[p] == 0 || hs_[p] == 0) return true;
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  const Tuple* r = r_res_.data() + res_off_r_[p];
  const Tuple* s = s_res_.data() + res_off_s_[p];
  LinearProbeTable<Tracer> table(hr_[p]);
  {
    ScopedPhase build(&prof, Phase::kBuild);
    tracer.SetPhase(Phase::kBuild);
    for (uint64_t i = 0; i < hr_[p]; ++i) {
      if ((i & kCancelMask) == 0 && ctx.AbortRequested()) return false;
      tracer.Access(&r[i], sizeof(Tuple));
      table.Insert(r[i], tracer);
    }
  }
  {
    ScopedPhase probe(&prof, Phase::kProbe);
    tracer.SetPhase(Phase::kProbe);
    if (ctx.kernels.batched_probe || ctx.kernels.simd_probe) {
      // SIMD (or, without AVX2, batched) probe in cancel-cadence stripes.
      constexpr uint64_t kStripe = kCancelMask + 1;
      const auto on_match = [&](const Tuple& st, const Tuple& rt) {
        sink.OnMatch(st.key, rt.ts, st.ts);
      };
      for (uint64_t i = 0; i < hs_[p]; i += kStripe) {
        if (ctx.AbortRequested()) return false;
        const uint64_t end = std::min<uint64_t>(hs_[p], i + kStripe);
        kernels::ProbeDispatch(table, s + i, end - i, on_match, tracer,
                               ctx.kernels);
      }
    } else {
      for (uint64_t i = 0; i < hs_[p]; ++i) {
        if ((i & kCancelMask) == 0 && ctx.AbortRequested()) return false;
        const Tuple t = s[i];
        tracer.Access(&s[i], sizeof(Tuple));
        table.Probe(
            t.key, [&](Tuple rt) { sink.OnMatch(t.key, rt.ts, t.ts); },
            tracer);
      }
    }
  }
  return true;
}

template <typename Tracer>
Status HhjJoin<Tracer>::JoinLoadedRun(const JoinContext& ctx, int worker,
                                      const std::string& r_path,
                                      const std::string& s_path,
                                      uint64_t r_count, Tracer& tracer) {
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  mem::TrackedBuffer<Tuple> r_run;
  LinearProbeTable<Tracer> table(r_count);
  {
    ScopedPhase build(&prof, Phase::kBuild);
    tracer.SetPhase(Phase::kBuild);
    spill::SpillReader rr;
    if (Status s = rr.Open(r_path); !s.ok()) return s;
    Status s = rr.ReadAll(&r_run);
    bytes_read_.fetch_add(rr.bytes_read(), std::memory_order_relaxed);
    pages_read_.fetch_add(rr.pages_read(), std::memory_order_relaxed);
    if (!s.ok()) return s;
    for (size_t i = 0; i < r_run.size(); ++i) {
      if ((i & kCancelMask) == 0 && ctx.Cancelled()) {
        return ctx.cancel->reason();
      }
      table.Insert(r_run[i], tracer);
    }
  }
  ScopedPhase probe(&prof, Phase::kProbe);
  tracer.SetPhase(Phase::kProbe);
  spill::SpillReader sr;
  if (Status s = sr.Open(s_path); !s.ok()) return s;
  mem::TrackedBuffer<Tuple> page;
  bool eof = false;
  Status status;
  while (status.ok()) {
    if (Status s = sr.ReadPage(&page, &eof); !s.ok()) {
      status = std::move(s);
      break;
    }
    if (eof) break;
    if (ctx.Cancelled()) {
      status = ctx.cancel->reason();
      break;
    }
    if (ctx.kernels.batched_probe || ctx.kernels.simd_probe) {
      // One spill page is well under the cancel stripe; dispatch it whole.
      kernels::ProbeDispatch(
          table, page.data(), page.size(),
          [&](const Tuple& st, const Tuple& rt) {
            sink.OnMatch(st.key, rt.ts, st.ts);
          },
          tracer, ctx.kernels);
    } else {
      for (size_t i = 0; i < page.size(); ++i) {
        if ((i & kCancelMask) == 0 && ctx.Cancelled()) {
          status = ctx.cancel->reason();
          break;
        }
        const Tuple t = page[i];
        table.Probe(
            t.key, [&](Tuple rt) { sink.OnMatch(t.key, rt.ts, t.ts); },
            tracer);
      }
    }
  }
  bytes_read_.fetch_add(sr.bytes_read(), std::memory_order_relaxed);
  pages_read_.fetch_add(sr.pages_read(), std::memory_order_relaxed);
  return status;
}

template <typename Tracer>
Status HhjJoin<Tracer>::RepartitionRun(const JoinContext& ctx, int worker,
                                       const std::string& base,
                                       const std::string& r_path,
                                       const std::string& s_path, int depth,
                                       Tracer& tracer) {
  // Split both runs 4 ways on the next-higher key bits (the low bits_ are
  // constant within a partition, and parent levels consumed theirs).
  const int shift = bits_ + depth * kChildBits;
  const int children = 1 << kChildBits;
  std::vector<std::string> child_bases(children);
  std::vector<uint64_t> child_r(children, 0), child_s(children, 0);

  const auto split = [&](const std::string& path, bool is_r,
                         std::vector<uint64_t>* counts) -> Status {
    std::vector<spill::SpillWriter> out(children);
    for (int c = 0; c < children; ++c) {
      child_bases[c] = base + "_c" + std::to_string(c);
      if (Status s = out[c].Open(
              child_bases[c] + (is_r ? "_r.spl" : "_s.spl"), page_bytes_);
          !s.ok()) {
        return s;
      }
    }
    spill::SpillReader in;
    if (Status s = in.Open(path); !s.ok()) return s;
    mem::TrackedBuffer<Tuple> page;
    bool eof = false;
    Status status;
    while (status.ok()) {
      if (ctx.Cancelled()) {
        status = ctx.cancel->reason();
        break;
      }
      if (Status s = in.ReadPage(&page, &eof); !s.ok()) {
        status = std::move(s);
        break;
      }
      if (eof) break;
      for (size_t i = 0; i < page.size(); ++i) {
        const uint32_t c = (page[i].key >> shift) & kChildMask;
        if (Status s = out[c].Append(page[i]); !s.ok()) {
          status = std::move(s);
          break;
        }
      }
    }
    bytes_read_.fetch_add(in.bytes_read(), std::memory_order_relaxed);
    pages_read_.fetch_add(in.pages_read(), std::memory_order_relaxed);
    for (int c = 0; c < children; ++c) {
      const Status s = out[c].Close();
      bytes_written_.fetch_add(out[c].bytes_written(),
                               std::memory_order_relaxed);
      pages_written_.fetch_add(out[c].pages_written(),
                               std::memory_order_relaxed);
      if (!s.ok() && status.ok()) status = s;
      (*counts)[c] = out[c].tuples();
    }
    return status;
  };

  {
    ScopedPhase part(&ctx.profile(worker), Phase::kPartition);
    tracer.SetPhase(Phase::kPartition);
    if (Status s = split(r_path, true, &child_r); !s.ok()) return s;
    if (Status s = split(s_path, false, &child_s); !s.ok()) return s;
  }
  // The parent runs are fully consumed; dropping them bounds disk usage to
  // O(input) per recursion level instead of accumulating every level.
  spill::RemoveRunDir(r_path);
  spill::RemoveRunDir(s_path);

  for (int c = 0; c < children; ++c) {
    if (Status s = JoinSpilled(ctx, worker, child_bases[c],
                               child_bases[c] + "_r.spl",
                               child_bases[c] + "_s.spl", child_r[c],
                               child_s[c], depth + 1, tracer);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

template <typename Tracer>
Status HhjJoin<Tracer>::JoinBlockNestedLoop(const JoinContext& ctx, int worker,
                                            const std::string& r_path,
                                            const std::string& s_path,
                                            Tracer& tracer) {
  bnl_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  PhaseProfile& prof = ctx.profile(worker);
  MatchSink& sink = ctx.sink(worker);
  ScopedPhase probe(&prof, Phase::kProbe);
  tracer.SetPhase(Phase::kProbe);

  const size_t block_tuples = static_cast<size_t>(
      std::max<int64_t>(load_budget_ / (2 * static_cast<int64_t>(sizeof(Tuple))),
                        1024));
  spill::SpillReader rr, sr;
  if (Status s = rr.Open(r_path); !s.ok()) return s;
  if (Status s = sr.Open(s_path); !s.ok()) return s;

  mem::TrackedBuffer<Tuple> block, r_page, s_page;
  bool r_eof = false;
  Status status;
  while (status.ok() && !r_eof) {
    // Fill one R block from pages.
    block.Clear();
    while (block.size() < block_tuples) {
      if (Status s = rr.ReadPage(&r_page, &r_eof); !s.ok()) {
        status = std::move(s);
        break;
      }
      if (r_eof) break;
      for (size_t i = 0; i < r_page.size(); ++i) block.PushBack(r_page[i]);
    }
    if (!status.ok() || block.empty()) break;
    // Stream all of S against the block.
    if (Status s = sr.Rewind(); !s.ok()) {
      status = std::move(s);
      break;
    }
    bool s_eof = false;
    while (status.ok()) {
      if (ctx.Cancelled()) {
        status = ctx.cancel->reason();
        break;
      }
      if (Status s = sr.ReadPage(&s_page, &s_eof); !s.ok()) {
        status = std::move(s);
        break;
      }
      if (s_eof) break;
      for (size_t i = 0; i < s_page.size(); ++i) {
        const Tuple t = s_page[i];
        for (size_t j = 0; j < block.size(); ++j) {
          if (block[j].key == t.key) sink.OnMatch(t.key, block[j].ts, t.ts);
        }
      }
    }
  }
  bytes_read_.fetch_add(rr.bytes_read() + sr.bytes_read(),
                        std::memory_order_relaxed);
  pages_read_.fetch_add(rr.pages_read() + sr.pages_read(),
                        std::memory_order_relaxed);
  return status;
}

template <typename Tracer>
void HhjJoin<Tracer>::NoteDepth(int depth) {
  uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (seen < static_cast<uint64_t>(depth) &&
         !max_depth_.compare_exchange_weak(seen, static_cast<uint64_t>(depth),
                                           std::memory_order_relaxed)) {
  }
}

template <typename Tracer>
void HhjJoin<Tracer>::NoteElapsedUs(uint64_t us) {
  uint64_t seen = elapsed_us_.load(std::memory_order_relaxed);
  while (seen < us && !elapsed_us_.compare_exchange_weak(
                          seen, us, std::memory_order_relaxed)) {
  }
}

template <typename Tracer>
Status HhjJoin<Tracer>::JoinSpilled(const JoinContext& ctx, int worker,
                                    const std::string& base,
                                    const std::string& r_path,
                                    const std::string& s_path,
                                    uint64_t r_count, uint64_t s_count,
                                    int depth, Tracer& tracer) {
  NoteDepth(depth);
  if (ctx.Cancelled()) return ctx.cancel->reason();
  if (r_count == 0 || s_count == 0) return Status::Ok();
  // Load path: the whole R run plus its build table fits this worker's
  // restore budget.
  const int64_t load_cost = static_cast<int64_t>(
      r_count * (sizeof(Tuple) + kTableBytesPerBuildTuple));
  if (load_cost <= load_budget_) {
    return JoinLoadedRun(ctx, worker, r_path, s_path, r_count, tracer);
  }
  // Still too large: repartition on higher key bits while progress is
  // possible (shift past bit 30 cannot split keys, which stay < 2^31).
  if (depth < kMaxDepth && bits_ + (depth + 1) * kChildBits <= 30) {
    return RepartitionRun(ctx, worker, base, r_path, s_path, depth, tracer);
  }
  // Recursion exhausted (over-duplicated keys): exact block-nested-loop.
  return JoinBlockNestedLoop(ctx, worker, r_path, s_path, tracer);
}

template <typename Tracer>
void HhjJoin<Tracer>::RunWorker(const JoinContext& ctx, int worker) {
  PhaseProfile& prof = ctx.profile(worker);
  Tracer tracer = MakeWorkerTracer<Tracer>(ctx, worker);

  // Lazy approach: wait out the window before processing starts.
  {
    ScopedPhase wait(&prof, Phase::kWait);
    ctx.WaitUntil(ctx.window_close_ms);
  }
  if (ctx.AbortRequested()) return;

  // Phase 1 — partition: resident tuples scatter into the in-memory copies
  // (disjoint per-worker cursor ranges, no locks); cold tuples append to
  // their partition's run file under its lock.
  {
    ScopedPhase part(&prof, Phase::kPartition);
    tracer.SetPhase(Phase::kPartition);
    if (!ScatterChunk(ctx, worker, /*is_r=*/true, tracer)) return;
    if (!ScatterChunk(ctx, worker, /*is_r=*/false, tracer)) return;
  }
  ctx.barrier->arrive_and_wait();

  // Worker 0 seals every run file so readers below never see a buffered
  // tail; a failed flush cancels the run for everyone.
  uint64_t spill_us = 0;
  if (worker == 0 && !spilled_list_.empty()) {
    const uint64_t t0 = NowUs();
    ScopedPhase part(&prof, Phase::kPartition);
    CloseWriters(ctx);
    spill_us += NowUs() - t0;
  }
  ctx.barrier->arrive_and_wait();
  if (ctx.AbortRequested()) return;

  // Phase 2 — resident partitions, one per claim off a shared queue.
  while (true) {
    const size_t i = next_resident_.fetch_add(1, std::memory_order_relaxed);
    if (i >= resident_list_.size()) break;
    if (!JoinResident(ctx, resident_list_[i], worker, tracer)) return;
  }

  // Phase 3 — spilled partitions, restored under the per-worker load
  // budget, recursing / degrading as needed.
  if (!spilled_list_.empty()) {
    const uint64_t t0 = NowUs();
    while (true) {
      const size_t i = next_spilled_.fetch_add(1, std::memory_order_relaxed);
      if (i >= spilled_list_.size()) break;
      const uint32_t p = spilled_list_[i];
      const std::string base = dir_ + "/p" + std::to_string(p);
      Status s = JoinSpilled(ctx, worker, base, base + "_r.spl",
                             base + "_s.spl", hr_[p], hs_[p], 0, tracer);
      if (!s.ok()) {
        ctx.cancel->Cancel(std::move(s));
        ctx.AbortRequested();
        NoteElapsedUs(spill_us + (NowUs() - t0));
        return;
      }
    }
    spill_us += NowUs() - t0;
  }
  if (spill_us > 0) NoteElapsedUs(spill_us);
}

template <typename Tracer>
void HhjJoin<Tracer>::Teardown() {
  files_.clear();
  spill::RemoveRunDir(dir_);
  dir_.clear();
  r_res_ = mem::TrackedBuffer<Tuple>();
  s_res_ = mem::TrackedBuffer<Tuple>();
  hr_.clear();
  hs_.clear();
  resident_.clear();
  res_off_r_.clear();
  res_off_s_.clear();
  cursors_r_.clear();
  cursors_s_.clear();
}

template <typename Tracer>
const SpillStats* HhjJoin<Tracer>::spill_stats() {
  snapshot_.partitions = parts_;
  snapshot_.partitions_spilled = spilled_list_.size();
  snapshot_.partitions_resident = resident_list_.size();
  snapshot_.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  snapshot_.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  snapshot_.pages_written = pages_written_.load(std::memory_order_relaxed);
  snapshot_.pages_read = pages_read_.load(std::memory_order_relaxed);
  snapshot_.recursion_depth = max_depth_.load(std::memory_order_relaxed);
  snapshot_.bnl_fallbacks = bnl_fallbacks_.load(std::memory_order_relaxed);
  snapshot_.spill_elapsed_ms =
      static_cast<double>(elapsed_us_.load(std::memory_order_relaxed)) / 1000.0;
  return &snapshot_;
}

template class HhjJoin<NullTracer>;
template class HhjJoin<SimTracer>;

std::unique_ptr<JoinAlgorithm> MakeHhj() {
  return std::make_unique<HhjJoin<NullTracer>>();
}

std::unique_ptr<JoinAlgorithm> MakeHhjTraced() {
  return std::make_unique<HhjJoin<SimTracer>>();
}

}  // namespace iawj
