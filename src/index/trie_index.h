#ifndef DITA_INDEX_TRIE_INDEX_H_
#define DITA_INDEX_TRIE_INDEX_H_

#include <cstdint>
#include <vector>

#include "distance/distance.h"
#include "geom/trajectory.h"
#include "index/pivot.h"
#include "index/signature.h"
#include "util/query_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dita {

/// DITA's local index (§4.2.3): a (K+2)-level trie of MBRs over each
/// trajectory's indexing sequence (first point, last point, K pivots). The
/// index is clustered — trajectories are stored inside it, aligned with the
/// leaves — so candidates are verified without an extra lookup (a point the
/// paper stresses against DFT's non-clustered design).
///
/// The trie is stored flat (DESIGN.md §5c), not as a pointer graph: nodes
/// are numbered in BFS order so every node's children occupy a contiguous
/// id range, per-node MBRs live in SoA planes (xlo/ylo/xhi/yhi arrays that
/// sibling scans walk sequentially), and leaf members are spans into one
/// global items array laid out in DFS order. CollectCandidates is the one
/// traversal (DESIGN.md §5f): an iterative, allocation-free depth-first walk
/// per query over these arrays, with vectorized sibling and suffix scans.
/// CollectCandidatesBatch runs it once per member. The recursive
/// formulation is kept as CollectCandidatesReference, the equivalence
/// oracle for tests.
class TrieIndex {
 public:
  struct Options {
    /// K, the number of pivot points per trajectory.
    size_t num_pivots = 4;
    /// N_L for the two align levels (first/last point).
    size_t align_fanout = 32;
    /// N_L for the K pivot levels; the paper uses a smaller fanout at the
    /// bottom where fewer trajectories remain.
    size_t pivot_fanout = 16;
    /// Stop splitting a node with at most this many trajectories
    /// (Appendix B: "too few trajectories (by default 16)").
    size_t leaf_capacity = 16;
    PivotStrategy strategy = PivotStrategy::kNeighborDistance;
  };

  /// Filtering request. `tau` is interpreted per `mode`:
  /// kAccumulate — remaining distance budget, reduced level by level;
  /// kMax — fixed per-level bound; kEditCount — edit budget, where a level
  /// farther than `epsilon` from the query costs one edit. `lcss_delta >= 0`
  /// additionally restricts pivot levels to the query index window allowed
  /// by LCSS's |i - j| <= delta constraint.
  struct SearchSpec {
    const Trajectory* query = nullptr;
    double tau = 0.0;
    PruneMode mode = PruneMode::kAccumulate;
    double epsilon = 0.0;
    int lcss_delta = -1;
    /// ERP only: the gap point g. When set, every level's bound becomes
    /// min(MinDist(Q, MBR), MinDist(g, MBR)) — a row of T may match the gap
    /// instead of a query point — and endpoint alignment and suffix
    /// trimming are disabled (gap matches consume no query points).
    const Point* erp_gap = nullptr;
    /// Optional cooperative stop token. CollectCandidates checkpoints it
    /// every few hundred node visits and charges emitted candidates against
    /// its budget; on stop the traversal abandons the remaining subtrees
    /// (the partial output is discarded by the caller, never mixed into
    /// results). The reference traversal ignores it — it is the oracle.
    QueryContext* ctx = nullptr;
  };

  /// Per-probe traversal counters, filled by CollectCandidates when a
  /// non-null pointer is passed. `pruned_members[l]` counts trajectories
  /// eliminated by a failed node test at trie level l (the whole pruned
  /// subtree's membership), so the filter funnel can report survivors after
  /// each level: population − Σ_{l' <= l} pruned_members[l'].
  struct ProbeStats {
    uint64_t nodes_visited = 0;
    uint64_t nodes_pruned = 0;
    std::vector<uint64_t> pruned_members;  // indexed by level, num_levels()

    void Reset(size_t num_levels) {
      nodes_visited = 0;
      nodes_pruned = 0;
      pruned_members.assign(num_levels, 0);
    }
    void Merge(const ProbeStats& o) {
      nodes_visited += o.nodes_visited;
      nodes_pruned += o.nodes_pruned;
      if (pruned_members.size() < o.pruned_members.size()) {
        pruned_members.resize(o.pruned_members.size(), 0);
      }
      for (size_t l = 0; l < o.pruned_members.size(); ++l) {
        pruned_members[l] += o.pruned_members[l];
      }
    }
  };

 private:
  /// A traversal frame: a node whose own level test already passed, with
  /// the budget and query-suffix start that survive it (Lemma 5.1).
  struct Frame {
    uint32_t node;
    uint32_t suffix_start;
    double budget;
  };

 public:
  /// Reusable traversal scratch for CollectCandidates. Ownership is
  /// explicit, so callers can hold one scratch per worker, measure it
  /// (ByteSize), and Release() it between bursts instead of every thread
  /// retaining the high-water mark of its largest query until thread exit.
  /// Passing nullptr to the traversal falls back to ThreadLocal().
  class Scratch {
   public:
    Scratch() = default;
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    /// The per-thread default instance used when no scratch is passed.
    static Scratch& ThreadLocal();

    /// Heap bytes currently retained across all buffers.
    size_t ByteSize() const;

    /// Frees every buffer (ByteSize drops to zero); the next traversal
    /// re-grows them from scratch.
    void Release();

    /// Grow-once arena of per-member dilated query signatures, used by the
    /// engine's batched search to avoid a per-batch allocation (DESIGN.md
    /// §5g). Counted by ByteSize and freed by Release like the traversal
    /// buffers.
    std::vector<SigBits>& DilatedSigs() { return dsigs; }

   private:
    friend class TrieIndex;

    // suffix_mbrs[j] covers query points [j, n); qx/qy are the query's
    // points in SoA form, the vectorized suffix scan's input.
    std::vector<MBR> suffix_mbrs;
    std::vector<double> qx;
    std::vector<double> qy;
    std::vector<Frame> stack;
    std::vector<double> cdist;   // per-sibling distances, one frame at a time
    std::vector<SigBits> dsigs;  // per-member dilated sketches (engine batch)
  };

  /// One member of a CollectCandidatesBatch call: the arguments of one
  /// CollectCandidates call. `stats`, when non-null, must be
  /// Reset(num_levels()) by the caller.
  struct BatchQuery {
    SearchSpec spec;
    std::vector<uint32_t>* out = nullptr;
    ProbeStats* stats = nullptr;
  };

  /// Minimum build items per pool thread before Build fans work out to the
  /// pool. Below this the chunk dispatch and cross-thread cache traffic
  /// cost more than the extraction loop they split — measured at bench
  /// scale, where a 4096-trajectory parallel build lost ~25% to the serial
  /// one — so small builds (every partition-local trie at default N_G)
  /// always take the serial path and `build.threads > 1` can no longer
  /// regress them.
  static constexpr size_t kMinBuildItemsPerThread = 4096;

  TrieIndex() = default;

  /// Builds the trie over `trajectories`, which the index takes ownership
  /// of. When `pool` is non-null and the build is large enough to amortize
  /// fan-out (see kMinBuildItemsPerThread), indexing-sequence extraction and
  /// the STR tiling sorts are chunked across it; the result is identical to
  /// the serial build (chunk boundaries only partition slot-indexed writes).
  /// Helper-thread CPU seconds land in `*offloaded_seconds` when provided,
  /// so builds running inside a cluster task can charge them back
  /// (Cluster::ChargeCurrentTask).
  Status Build(std::vector<Trajectory> trajectories, const Options& options,
               ThreadPool* pool = nullptr, double* offloaded_seconds = nullptr);

  /// Appends the positions (into trajectories()) of every trajectory that
  /// survives the trie filter. Never drops a true answer (Lemmas 4.3 / 5.1).
  /// Iterative flat traversal (DESIGN.md §5f); bit-identical output (content
  /// and order) to CollectCandidatesReference. With `stats` non-null the
  /// traversal also tallies visited/pruned nodes and pruned subtree
  /// membership per level (stats are *added* to, call ProbeStats::Reset
  /// first); the stats == null hot path costs one predictable branch per
  /// tested node. `scratch` may be null (the per-thread default is used).
  void CollectCandidates(const SearchSpec& spec, std::vector<uint32_t>* out,
                         ProbeStats* stats = nullptr,
                         Scratch* scratch = nullptr) const;

  /// Runs CollectCandidates for each of `count` members in turn, sharing
  /// one scratch. A member whose ctx stops leaves the others untouched (its
  /// partial output must be discarded by the caller).
  void CollectCandidatesBatch(BatchQuery* queries, size_t count,
                              Scratch* scratch = nullptr) const;

  /// The recursive reference traversal — the pre-flattening implementation
  /// ported onto the flat arrays, kept as the oracle for the equivalence
  /// tests. Not used on hot paths.
  void CollectCandidatesReference(const SearchSpec& spec,
                                  std::vector<uint32_t>* out) const;

  const std::vector<Trajectory>& trajectories() const { return trajectories_; }
  const Trajectory& trajectory(uint32_t pos) const { return trajectories_[pos]; }
  size_t size() const { return trajectories_.size(); }

  size_t NodeCount() const { return level_.size(); }
  size_t ByteSize() const;
  const Options& options() const { return options_; }

  /// Trie levels: first point, last point, K pivots.
  size_t num_levels() const { return options_.num_pivots + 2; }

  /// Trajectories stored under node `n` (== the whole population at the
  /// root). Backs the funnel's pruned-member accounting.
  uint32_t SubtreeCount(uint32_t n) const { return subtree_count_[n]; }

  /// FNV-1a hash over every flat array (structure, MBR planes, spans,
  /// items). Two tries with equal digests were built identically; the
  /// parallel-vs-serial determinism tests compare digests.
  uint64_t StructureDigest() const;

 private:
  /// Evaluates node `n`'s level test for `spec`. Returns false when the
  /// subtree is pruned; otherwise updates *budget / *suffix_start with the
  /// values its children inherit. `suffix_mbrs` points at the query's
  /// suffix-MBR table (suffix_mbrs[j] covers query points [j, n)).
  /// CollectCandidates runs it for edit-count and ERP probes; the reference
  /// traversal runs it for every mode.
  bool TestNode(uint32_t n, const SearchSpec& spec, const MBR* suffix_mbrs,
                double* budget, uint32_t* suffix_start) const;

  void SearchNodeReference(uint32_t n, const SearchSpec& spec,
                           const MBR* suffix_mbrs, double budget,
                           uint32_t suffix_start,
                           std::vector<uint32_t>* out) const;

  /// MinDist from the query's suffix [suffix_start, n) to node MBR `n`;
  /// also computes the next suffix start per Lemma 5.1 under threshold
  /// `limit`.
  double SuffixMinDist(const Trajectory& q, size_t suffix_start, uint32_t n,
                       double limit, size_t* next_suffix_start) const;

  Options options_;
  std::vector<Trajectory> trajectories_;

  // --- Flat node arrays, BFS numbering (children contiguous). ---
  /// Per-node MBR planes. The root (node 0, level -1) stores an empty
  /// rectangle (+inf/-inf) but is never distance-tested.
  std::vector<double> xlo_, ylo_, xhi_, yhi_;
  /// Level of the node's MBR: 0 = first point, 1 = last point, 2 + i =
  /// pivot i; the root is -1.
  std::vector<int32_t> level_;
  /// Children of node n are nodes [first_child_[n], first_child_[n] +
  /// child_count_[n]); count 0 marks a leaf.
  std::vector<uint32_t> first_child_;
  std::vector<uint32_t> child_count_;
  /// Leaf members are items_[items_begin_[n] .. items_end_[n]); spans are
  /// assigned in DFS order so the traversal emits increasing ranges.
  std::vector<uint32_t> items_begin_;
  std::vector<uint32_t> items_end_;
  /// Source-index range of the grouped indexing points (pivot levels only;
  /// used by the LCSS delta-window restriction).
  std::vector<uint32_t> src_lo_;
  std::vector<uint32_t> src_hi_;
  /// 1 iff every member's indexing entry at this level references a source
  /// point not already used by an earlier level (padding repeats points for
  /// short trajectories). Accumulate/edit modes only charge chargeable
  /// levels to preserve the lower-bound property.
  std::vector<uint8_t> chargeable_;
  /// Trajectories stored in the subtree rooted at each node (derived from
  /// the leaf spans after the DFS pass; excluded from StructureDigest).
  std::vector<uint32_t> subtree_count_;
  /// All leaf members, DFS leaf order, member order within a leaf.
  std::vector<uint32_t> items_;
};

}  // namespace dita

#endif  // DITA_INDEX_TRIE_INDEX_H_
