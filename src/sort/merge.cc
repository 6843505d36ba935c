#include "src/sort/merge.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/memory/tracker.h"

namespace iawj::sort {

namespace {

// A classic loser tree over K run cursors. Internal nodes 1..K-1 store the
// loser of the match played there; leaf i lives at implicit position K+i.
// K is small (thread or run count), so the O(log K) replay per element
// dominates pointer chasing nicely.
class LoserTree {
 public:
  explicit LoserTree(const std::vector<Run>& runs)
      : runs_(runs), k_(runs.size()) {
    cursors_.assign(k_, 0);
    tree_.assign(std::max<size_t>(k_, 1), 0);
    winner_ = k_ == 1 ? 0 : InitWinner(1);
  }

  bool Empty() const { return Exhausted(winner_); }

  // Pops the smallest head element.
  uint64_t Pop() {
    const size_t run = winner_;
    const uint64_t value = runs_[run].data[cursors_[run]];
    ++cursors_[run];
    Replay(run);
    return value;
  }

 private:
  uint64_t KeyOf(size_t run) const {
    return runs_[run].data[cursors_[run]];
  }

  bool Exhausted(size_t run) const { return cursors_[run] >= runs_[run].size; }

  // Whether run a wins (advances) against run b. Exhausted runs lose to
  // everything; among exhausted runs the choice is immaterial.
  bool Beats(size_t a, size_t b) const {
    if (Exhausted(b)) return true;
    if (Exhausted(a)) return false;
    return KeyOf(a) <= KeyOf(b);
  }

  // Recursively seats losers in the subtree under `node`, returning its
  // winner. Children of internal node n are 2n and 2n+1; positions >= k_
  // are leaves for run (position - k_).
  size_t InitWinner(size_t node) {
    if (node >= k_) return node - k_;
    const size_t w1 = InitWinner(2 * node);
    const size_t w2 = InitWinner(2 * node + 1);
    if (Beats(w1, w2)) {
      tree_[node] = w2;
      return w1;
    }
    tree_[node] = w1;
    return w2;
  }

  // After popping from `run`, replays it against the losers on its
  // leaf-to-root path; the surviving run is the new winner.
  void Replay(size_t run) {
    size_t current = run;
    for (size_t node = (run + k_) / 2; node >= 1; node /= 2) {
      if (!Beats(current, tree_[node])) std::swap(current, tree_[node]);
    }
    winner_ = current;
  }

  const std::vector<Run>& runs_;
  size_t k_;
  std::vector<size_t> cursors_;
  std::vector<size_t> tree_;  // loser run index per internal node
  size_t winner_ = 0;
};

size_t TotalSize(const std::vector<Run>& runs) {
  size_t total = 0;
  for (const Run& r : runs) total += r.size;
  return total;
}

}  // namespace

void MultiwayMerge(const std::vector<Run>& runs, uint64_t* out) {
  if (runs.empty()) return;
  if (runs.size() == 1) {
    std::memcpy(out, runs[0].data, runs[0].size * sizeof(uint64_t));
    return;
  }
  LoserTree tree(runs);
  size_t k = 0;
  while (!tree.Empty()) out[k++] = tree.Pop();
}

void MultiPassMerge(const std::vector<Run>& runs, uint64_t* out,
                    const Options& options) {
  if (runs.empty()) return;
  const size_t total = TotalSize(runs);
  if (runs.size() == 1) {
    std::memcpy(out, runs[0].data, total * sizeof(uint64_t));
    return;
  }

  // Copy run contents into a working buffer laid out back to back, then merge
  // adjacent run pairs until one run remains, ping-ponging with `out`.
  mem::TrackedBuffer<uint64_t> scratch(total);
  struct Segment {
    size_t offset;
    size_t size;
  };
  std::vector<Segment> segments;
  segments.reserve(runs.size());
  {
    size_t offset = 0;
    for (const Run& r : runs) {
      std::memcpy(scratch.data() + offset, r.data, r.size * sizeof(uint64_t));
      segments.push_back({offset, r.size});
      offset += r.size;
    }
  }

  uint64_t* src = scratch.data();
  uint64_t* dst = out;
  while (segments.size() > 1) {
    std::vector<Segment> next;
    next.reserve((segments.size() + 1) / 2);
    for (size_t i = 0; i + 1 < segments.size(); i += 2) {
      const Segment& a = segments[i];
      const Segment& b = segments[i + 1];
      IAWJ_CHECK_EQ(a.offset + a.size, b.offset);
      MergePacked(src + a.offset, a.size, src + b.offset, b.size,
                  dst + a.offset, options);
      next.push_back({a.offset, a.size + b.size});
    }
    if (segments.size() % 2 == 1) {
      const Segment& last = segments.back();
      std::memcpy(dst + last.offset, src + last.offset,
                  last.size * sizeof(uint64_t));
      next.push_back(last);
    }
    segments = std::move(next);
    std::swap(src, dst);
  }
  if (src != out) std::memcpy(out, src, total * sizeof(uint64_t));
}

}  // namespace iawj::sort
