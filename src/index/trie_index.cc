#include "index/trie_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "index/batch_scan.h"
#include "index/soa_planes.h"
#include "index/str_tile.h"
#include "util/logging.h"

namespace dita {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stride between QueryContext checkpoints, in node visits. Large enough
/// that the counter update is invisible next to the MBR tests it meters,
/// small enough to bound time-to-stop (bench_cancellation measures it).
constexpr uint32_t kCheckStride = 256;

template <typename T>
size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
void FreeVec(std::vector<T>& v) {
  std::vector<T>().swap(v);
}
}  // namespace

TrieIndex::Scratch& TrieIndex::Scratch::ThreadLocal() {
  static thread_local Scratch s;
  return s;
}

size_t TrieIndex::Scratch::ByteSize() const {
  return VecBytes(suffix_mbrs) + VecBytes(qx) + VecBytes(qy) +
         VecBytes(stack) + VecBytes(cdist) + VecBytes(dsigs);
}

void TrieIndex::Scratch::Release() {
  FreeVec(suffix_mbrs);
  FreeVec(qx);
  FreeVec(qy);
  FreeVec(stack);
  FreeVec(cdist);
  FreeVec(dsigs);
}

Status TrieIndex::Build(std::vector<Trajectory> trajectories,
                        const Options& options, ThreadPool* pool,
                        double* offloaded_seconds) {
  if (options.align_fanout < 2 || options.pivot_fanout < 2) {
    return Status::InvalidArgument("trie fanouts must be at least 2");
  }
  if (options.leaf_capacity < 1) {
    return Status::InvalidArgument("leaf capacity must be at least 1");
  }
  for (const Trajectory& t : trajectories) {
    if (t.empty()) return Status::InvalidArgument("empty trajectory in build set");
  }
  options_ = options;
  trajectories_ = std::move(trajectories);
  double off = 0.0;

  // Fan out only when every pool thread gets enough items to amortize the
  // dispatch; below the threshold the serial path is strictly faster (the
  // build is identical either way, so this is purely a scheduling choice).
  ThreadPool* build_pool = pool;
  if (pool != nullptr &&
      trajectories_.size() < kMinBuildItemsPerThread * pool->num_threads()) {
    build_pool = nullptr;
  }

  // Indexing-sequence extraction is independent per trajectory; chunk it
  // across the pool. Every chunk writes only its own slots, so the result
  // is position-for-position identical to the serial loop. The sequences
  // only shape the build (node MBRs, source ranges, chargeable masks) and
  // are freed with this frame.
  std::vector<IndexingSequence> sequences(trajectories_.size());
  off += ThreadPool::ParallelFor(
      build_pool, trajectories_.size(), /*min_parallel=*/256,
      [this, &sequences](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          sequences[i] = BuildIndexingSequence(
              trajectories_[i], options_.num_pivots, options_.strategy);
        }
      });

  const int num_levels = static_cast<int>(options_.num_pivots) + 2;

  xlo_.clear(); ylo_.clear(); xhi_.clear(); yhi_.clear();
  level_.clear();
  first_child_.clear(); child_count_.clear();
  items_begin_.clear(); items_end_.clear();
  src_lo_.clear(); src_hi_.clear();
  chargeable_.clear();
  items_.clear();

  auto add_node = [this](int32_t level) -> uint32_t {
    const uint32_t idx = static_cast<uint32_t>(level_.size());
    xlo_.push_back(kInf);
    ylo_.push_back(kInf);
    xhi_.push_back(-kInf);
    yhi_.push_back(-kInf);
    level_.push_back(level);
    first_child_.push_back(0);
    child_count_.push_back(0);
    items_begin_.push_back(0);
    items_end_.push_back(0);
    src_lo_.push_back(0);
    src_hi_.push_back(0);
    chargeable_.push_back(1);
    return idx;
  };

  // BFS construction: the work list is processed FIFO, so each node's
  // children are appended consecutively — the CSR layout needs only a
  // (first_child, count) pair per node. Leaf member lists are stashed per
  // node and laid out into the global items array in DFS order afterwards.
  struct Pending {
    uint32_t node;
    int level;
    std::vector<uint32_t> members;
  };
  std::vector<Pending> queue;
  std::vector<std::vector<uint32_t>> leaf_members;
  leaf_members.emplace_back();
  add_node(/*level=*/-1);  // root
  {
    std::vector<uint32_t> all(trajectories_.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    queue.push_back(Pending{0, -1, std::move(all)});
  }

  for (size_t head = 0; head < queue.size(); ++head) {
    Pending cur = std::move(queue[head]);
    const int child_level = cur.level + 1;
    // Leaf when all indexing levels are consumed or the population is small.
    if (child_level >= num_levels ||
        cur.members.size() <= options_.leaf_capacity) {
      leaf_members[cur.node] = std::move(cur.members);
      continue;
    }

    const size_t fanout =
        child_level < 2 ? options_.align_fanout : options_.pivot_fanout;
    auto level_point = [&](uint32_t traj_pos) -> Point {
      return sequences[traj_pos].points[static_cast<size_t>(child_level)];
    };

    auto groups =
        StrTile(std::move(cur.members), level_point, fanout, build_pool, &off);
    first_child_[cur.node] = static_cast<uint32_t>(level_.size());
    child_count_[cur.node] = static_cast<uint32_t>(groups.size());
    for (auto& group : groups) {
      const uint32_t child = add_node(child_level);
      leaf_members.emplace_back();
      uint32_t lo = std::numeric_limits<uint32_t>::max();
      uint32_t hi = 0;
      for (uint32_t pos : group) {
        const Point p = level_point(pos);
        xlo_[child] = std::min(xlo_[child], p.x);
        ylo_[child] = std::min(ylo_[child], p.y);
        xhi_[child] = std::max(xhi_[child], p.x);
        yhi_[child] = std::max(yhi_[child], p.y);
        const uint32_t src = static_cast<uint32_t>(
            sequences[pos].source_indices[static_cast<size_t>(child_level)]);
        lo = std::min(lo, src);
        hi = std::max(hi, src);
        if (!sequences[pos].chargeable[static_cast<size_t>(child_level)]) {
          chargeable_[child] = 0;
        }
      }
      src_lo_[child] = lo;
      src_hi_[child] = hi;
      queue.push_back(Pending{child, child_level, std::move(group)});
    }
  }

  // DFS pass assigns every leaf an items span in traversal-emission order,
  // so the search appends strictly increasing ranges of one flat array.
  items_.reserve(trajectories_.size());
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (child_count_[n] == 0) {
      items_begin_[n] = static_cast<uint32_t>(items_.size());
      items_.insert(items_.end(), leaf_members[n].begin(), leaf_members[n].end());
      items_end_[n] = static_cast<uint32_t>(items_.size());
      continue;
    }
    for (uint32_t c = first_child_[n] + child_count_[n];
         c-- > first_child_[n];) {
      stack.push_back(c);
    }
  }

  // Subtree membership counts, for the funnel's per-level pruning tallies.
  // BFS numbering guarantees every child id exceeds its parent's, so one
  // reverse sweep folds leaf span lengths up to the root.
  subtree_count_.assign(level_.size(), 0);
  for (uint32_t n = static_cast<uint32_t>(level_.size()); n-- > 0;) {
    if (child_count_[n] == 0) {
      subtree_count_[n] = items_end_[n] - items_begin_[n];
    } else {
      uint32_t total = 0;
      for (uint32_t c = first_child_[n]; c < first_child_[n] + child_count_[n];
           ++c) {
        total += subtree_count_[c];
      }
      subtree_count_[n] = total;
    }
  }

  if (offloaded_seconds != nullptr) *offloaded_seconds += off;
  return Status::OK();
}

double TrieIndex::SuffixMinDist(const Trajectory& q, size_t suffix_start,
                                uint32_t n, double limit,
                                size_t* next_suffix_start) const {
  const auto& pts = q.points();
  const double xlo = xlo_[n], ylo = ylo_[n], xhi = xhi_[n], yhi = yhi_[n];
  // The scan minimises squared distances and takes one sqrt at the end —
  // bit-identical to a per-point sqrt (see PlaneMinDistSq) but off the
  // loop-carried min. The within-limit test stays exact: the squared
  // pre-filter over-covers by a few ulps, and the sqrt re-test settles the
  // boundary cases it admits.
  double best_sq = kInf;
  size_t first_within = pts.size();
  const double limit_sq_ub = limit * limit * (1.0 + 1e-14);
  for (size_t j = suffix_start; j < pts.size(); ++j) {
    const double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi, pts[j]);
    best_sq = std::min(best_sq, dsq);
    if (first_within == pts.size() && dsq <= limit_sq_ub &&
        std::sqrt(dsq) <= limit) {
      first_within = j;
    }
    if (best_sq == 0.0 && first_within != pts.size()) break;  // cannot improve
  }
  // Lemma 5.1: query points before the first one within `limit` of this
  // pivot MBR cannot align to this pivot nor to any later one.
  if (next_suffix_start != nullptr) {
    *next_suffix_start = first_within == pts.size() ? suffix_start : first_within;
  }
  return std::sqrt(best_sq);
}

bool TrieIndex::TestNode(uint32_t n, const SearchSpec& spec,
                         const MBR* suffix_mbrs, double* budget,
                         uint32_t* suffix_start) const {
  const int32_t level = level_[n];
  if (level < 0) return true;  // root
  const Trajectory& q = *spec.query;
  const double xlo = xlo_[n], ylo = ylo_[n], xhi = xhi_[n], yhi = yhi_[n];

  switch (spec.mode) {
    case PruneMode::kAccumulate: {
      // Non-chargeable levels (padded repeats of an earlier source point)
      // must not contribute to the accumulated bound.
      if (!chargeable_[n]) return true;
      if (spec.erp_gap != nullptr) {
        // ERP: a row may match the gap point; no alignment, no trimming.
        double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi, *spec.erp_gap);
        for (const Point& p : q.points()) {
          if (dsq == 0.0) break;
          dsq = std::min(dsq, PlaneMinDistSq(xlo, ylo, xhi, yhi, p));
        }
        const double d = std::sqrt(dsq);
        if (d > *budget) return false;
        *budget -= d;
        return true;
      }
      double d;
      if (level == 0) {
        d = PlaneMinDist(xlo, ylo, xhi, yhi, q.front());
      } else if (level == 1) {
        d = PlaneMinDist(xlo, ylo, xhi, yhi, q.back());
      } else {
        // O(1) pre-test before the O(n) suffix scan.
        if (PlaneMinDistRect(xlo, ylo, xhi, yhi, suffix_mbrs[*suffix_start]) >
            *budget) {
          return false;
        }
        size_t next = *suffix_start;
        d = SuffixMinDist(q, *suffix_start, n, *budget, &next);
        *suffix_start = static_cast<uint32_t>(next);
      }
      if (d > *budget) return false;
      *budget -= d;
      return true;
    }
    case PruneMode::kMax: {
      double d;
      if (level == 0) {
        d = PlaneMinDist(xlo, ylo, xhi, yhi, q.front());
      } else if (level == 1) {
        d = PlaneMinDist(xlo, ylo, xhi, yhi, q.back());
      } else {
        if (PlaneMinDistRect(xlo, ylo, xhi, yhi, suffix_mbrs[*suffix_start]) >
            *budget) {
          return false;
        }
        size_t next = *suffix_start;
        const double sd = SuffixMinDist(q, *suffix_start, n, *budget, &next);
        *suffix_start = static_cast<uint32_t>(next);
        d = sd;
      }
      return d <= *budget;  // budget stays tau for max-style distances
    }
    case PruneMode::kEditCount: {
      // A level whose indexing point cannot match any (eligible) query
      // point within epsilon forces at least one edit (Appendix A).
      double dsq = kInf;
      size_t j_lo = 0;
      size_t j_hi = q.size();
      if (level >= 2 && spec.lcss_delta >= 0) {
        // LCSS index constraint: pivot at source index s may only match
        // query indices within delta of it.
        const size_t delta = static_cast<size_t>(spec.lcss_delta);
        const size_t lo = src_lo_[n];
        j_lo = lo > delta ? lo - delta : 0;
        j_hi = std::min(q.size(), static_cast<size_t>(src_hi_[n]) + delta + 1);
      }
      for (size_t j = j_lo; j < j_hi; ++j) {
        dsq = std::min(dsq, PlaneMinDistSq(xlo, ylo, xhi, yhi, q[j]));
        if (dsq == 0.0) break;
      }
      if (std::sqrt(dsq) > spec.epsilon && chargeable_[n]) *budget -= 1.0;
      return *budget >= 0.0;
    }
  }
  return true;
}

void TrieIndex::CollectCandidates(const SearchSpec& spec,
                                  std::vector<uint32_t>* out,
                                  ProbeStats* stats, Scratch* scratch) const {
  DITA_CHECK(spec.query != nullptr);
  if (trajectories_.empty() || spec.query->empty()) return;
  double budget = spec.tau;
  if (spec.mode == PruneMode::kEditCount) budget = std::floor(spec.tau);
  // Traversal buffers live in a caller-owned (or per-thread default)
  // Scratch reused across calls: CollectCandidates runs once per (query,
  // partition) inside hot search/join loops, and per-call allocations show
  // up in filter-dominated profiles. The buffers are sized up and
  // overwritten in place, never cleared: clear + resize would default-fill
  // every slot just to overwrite it.
  Scratch& s = scratch != nullptr ? *scratch : Scratch::ThreadLocal();
  const auto& pts = spec.query->points();
  const uint32_t n = static_cast<uint32_t>(pts.size());
  if (s.suffix_mbrs.size() < n) {
    s.suffix_mbrs.resize(n);
    s.qx.resize(n);
    s.qy.resize(n);
  }
  // suffix_mbrs[j] covers query points [j, n), folded as explicit min/max
  // (MBR::Expand per point is an out-of-line call); a frame's suffix_start
  // is always < n. qx/qy are the SoA point copies the vectorized suffix
  // scan reads.
  MBR* smbrs = s.suffix_mbrs.data();
  double* qx = s.qx.data();
  double* qy = s.qy.data();
  {
    double lx = kInf, ly = kInf, hx = -kInf, hy = -kInf;
    for (uint32_t j = n; j-- > 0;) {
      const Point& p = pts[j];
      qx[j] = p.x;
      qy[j] = p.y;
      lx = std::min(lx, p.x);
      ly = std::min(ly, p.y);
      hx = std::max(hx, p.x);
      hy = std::max(hy, p.y);
      smbrs[j] = MBR(Point{lx, ly}, Point{hx, hy});
    }
  }
  // Accumulate (without an ERP gap) and max test every level against a
  // single rectangle — the front point, the back point, or the current
  // query-suffix MBR — so one vectorized sweep over a frame's contiguous
  // child planes yields every sibling's test distance (for pivot levels,
  // the O(1) pre-test before the suffix scan). Edit-count and ERP test
  // each child with TestNode.
  const bool is_max = spec.mode == PruneMode::kMax;
  const bool rect_gate = is_max || (spec.mode == PruneMode::kAccumulate &&
                                    spec.erp_gap == nullptr);
  const Point& front = pts.front();
  const Point& back = pts.back();

  // Iterative DFS. A frame is a node whose own test passed, with the budget
  // and query-suffix start that survive it (Lemma 5.1). Popping an internal
  // node tests its children in reverse id order and pushes each survivor
  // directly, so emission order matches the recursive reference.
  std::vector<Frame>& stack = s.stack;
  stack.clear();
  stack.push_back(Frame{0, 0, budget});
  uint32_t visits_since_check = 0;
  while (!stack.empty()) {
    if (spec.ctx != nullptr && visits_since_check >= kCheckStride) {
      if (spec.ctx->CheckPoint(visits_since_check)) return;
      visits_since_check = 0;
    }
    const Frame f = stack.back();
    stack.pop_back();
    const uint32_t cnt = child_count_[f.node];
    if (cnt == 0) {
      const uint32_t span = items_end_[f.node] - items_begin_[f.node];
      if (spec.ctx != nullptr && spec.ctx->ChargeCandidates(span)) return;
      out->insert(out->end(), items_.begin() + items_begin_[f.node],
                  items_.begin() + items_end_[f.node]);
      continue;
    }
    const uint32_t fc = first_child_[f.node];
    const int32_t clevel = level_[fc];  // siblings share one level
    visits_since_check += cnt;
    if (rect_gate) {
      // A point test passes the point as both corners (see batch_scan.h).
      Point hi = clevel == 0 ? front : back;
      Point lo = hi;
      if (clevel >= 2) {
        hi = smbrs[f.suffix_start].hi();
        lo = smbrs[f.suffix_start].lo();
      }
      if (s.cdist.size() < cnt) s.cdist.resize(cnt);
      ChildPlaneDists(xlo_.data() + fc, ylo_.data() + fc, xhi_.data() + fc,
                      yhi_.data() + fc, cnt, hi.x, hi.y, lo.x, lo.y,
                      s.cdist.data());
    }
    for (uint32_t c = fc + cnt; c-- > fc;) {
      double b = f.budget;
      uint32_t st = f.suffix_start;
      bool pass;
      if (!rect_gate) {
        pass = TestNode(c, spec, smbrs, &b, &st);
      } else if (!is_max && chargeable_[c] == 0) {
        // Padded repeats of an earlier source point are not charged.
        pass = true;
      } else {
        double d = s.cdist[c - fc];
        if (clevel >= 2 && d <= b) {
          // Pivot level passed the suffix-rectangle pre-test: scan the
          // suffix (bit-identical to SuffixMinDist).
          const SuffixScanResult sr =
              SuffixScan(qx, qy, st, n, xlo_[c], ylo_[c], xhi_[c], yhi_[c], b,
                         b * b * (1.0 + 1e-14));
          if (sr.first_within != n) {
            st = static_cast<uint32_t>(sr.first_within);
          }
          d = std::sqrt(sr.best_sq);
        }
        pass = d <= b;
        if (pass && !is_max) b -= d;  // max keeps the fixed per-level bound
      }
      if (stats != nullptr) {
        ++stats->nodes_visited;
        if (!pass) {
          ++stats->nodes_pruned;
          stats->pruned_members[static_cast<size_t>(clevel)] +=
              subtree_count_[c];
        }
      }
      if (pass) stack.push_back(Frame{c, st, b});
    }
  }
  // Flush the sub-stride remainder so ops accounting is exact per traversal:
  // without this, a selective query (< kCheckStride visits) charges nothing,
  // leaving CancelAfterOps triggers unreachable and time-to-stop unmeasured.
  if (spec.ctx != nullptr && visits_since_check > 0) {
    spec.ctx->CheckPoint(visits_since_check);
  }
}

void TrieIndex::CollectCandidatesBatch(BatchQuery* queries, size_t count,
                                       Scratch* scratch) const {
  for (size_t i = 0; i < count; ++i) {
    CollectCandidates(queries[i].spec, queries[i].out, queries[i].stats,
                      scratch);
  }
}

void TrieIndex::CollectCandidatesReference(const SearchSpec& spec,
                                           std::vector<uint32_t>* out) const {
  DITA_CHECK(spec.query != nullptr);
  if (trajectories_.empty() || spec.query->empty()) return;
  double budget = spec.tau;
  if (spec.mode == PruneMode::kEditCount) budget = std::floor(spec.tau);
  const auto& pts = spec.query->points();
  std::vector<MBR> suffix_mbrs(pts.size() + 1, MBR{});
  for (size_t j = pts.size(); j-- > 0;) {
    suffix_mbrs[j] = suffix_mbrs[j + 1];
    suffix_mbrs[j].Expand(pts[j]);
  }
  SearchNodeReference(0, spec, suffix_mbrs.data(), budget, /*suffix_start=*/0,
                      out);
}

void TrieIndex::SearchNodeReference(uint32_t n, const SearchSpec& spec,
                                    const MBR* suffix_mbrs, double budget,
                                    uint32_t suffix_start,
                                    std::vector<uint32_t>* out) const {
  if (!TestNode(n, spec, suffix_mbrs, &budget, &suffix_start)) return;
  const uint32_t cnt = child_count_[n];
  if (cnt == 0) {
    out->insert(out->end(), items_.begin() + items_begin_[n],
                items_.begin() + items_end_[n]);
    return;
  }
  for (uint32_t c = first_child_[n]; c < first_child_[n] + cnt; ++c) {
    SearchNodeReference(c, spec, suffix_mbrs, budget, suffix_start, out);
  }
}

size_t TrieIndex::ByteSize() const {
  const size_t n = level_.size();
  return 4 * n * sizeof(double)       // xlo/ylo/xhi/yhi planes
         + n * sizeof(int32_t)        // level
         + 6 * n * sizeof(uint32_t)   // child/items spans, src range
         + n * sizeof(uint8_t)        // chargeable mask
         + items_.size() * sizeof(uint32_t);
}

uint64_t TrieIndex::StructureDigest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_bytes = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix = [&](const auto& vec) {
    const uint64_t n = vec.size();
    mix_bytes(&n, sizeof(n));
    if (!vec.empty()) mix_bytes(vec.data(), vec.size() * sizeof(vec[0]));
  };
  mix(xlo_); mix(ylo_); mix(xhi_); mix(yhi_);
  mix(level_);
  mix(first_child_); mix(child_count_);
  mix(items_begin_); mix(items_end_);
  mix(src_lo_); mix(src_hi_);
  mix(chargeable_);
  mix(items_);
  return h;
}

}  // namespace dita
