#ifndef DITA_CORE_VERIFIER_H_
#define DITA_CORE_VERIFIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "distance/distance.h"
#include "geom/soa.h"
#include "geom/trajectory.h"
#include "index/cell.h"
#include "index/signature.h"
#include "obs/trace.h"
#include "util/query_context.h"
#include "util/thread_pool.h"

namespace dita {

/// Per-trajectory data precomputed at index-build time so verification can
/// run its cheap filters without touching the raw points (§5.3.3:
/// "Computing MBRs and cells is pre-processed during creating the index").
/// The SoA copy of the coordinates feeds the DP kernels directly, keeping
/// their inner loops on contiguous lanes. Engines build theirs through
/// Verifier::Precompute, which leaves `cells` empty unless the cell tier is
/// on.
struct VerifyPrecomp {
  MBR mbr;
  /// Lemma 5.6 cell summary; empty when built without cells (the verifier
  /// then skips the cell bound for any pair involving this precomp).
  CellSummary cells;
  SoaTrajectory soa;
  /// Level-0 sketch (DESIGN.md §5g): grid-cell bitset + minhash shingles in
  /// the owning engine's SigGrid frame. Zero (empty bits) when the precomp
  /// was built without a grid; the sketch filter then never engages.
  TrajSignature sig;

  /// Every summary, the cell set included.
  static VerifyPrecomp For(const Trajectory& t, double cell_size,
                           const SigGrid* grid = nullptr) {
    VerifyPrecomp p = WithoutCells(t, grid);
    p.cells = CompressToCells(t, cell_size);
    return p;
  }

  /// MBR, SoA lanes and (with a valid grid) the sketch; no cell summary.
  static VerifyPrecomp WithoutCells(const Trajectory& t,
                                    const SigGrid* grid = nullptr) {
    VerifyPrecomp p{t.ComputeMBR(), CellSummary{}, SoaTrajectory(t),
                    TrajSignature{}};
    if (grid != nullptr && grid->valid()) p.sig = BuildSignature(t, *grid);
    return p;
  }

  /// Heap bytes this precomp holds beyond the indexed trajectory itself;
  /// accumulated into IndexStats::local_index_bytes (the inline signature
  /// is separately accounted in IndexStats::sketch_bytes).
  size_t ByteSize() const {
    return sizeof(MBR) + cells.cells.size() * sizeof(CellSummary::Cell) +
           soa.ByteSize();
  }
};

/// Counters describing where candidate pairs were resolved; feeds Fig. 17's
/// candidate counts and the verification ablation.
struct VerifyStats {
  size_t pairs = 0;
  size_t pruned_by_sketch = 0;
  size_t pruned_by_mbr = 0;
  size_t pruned_by_cell = 0;
  size_t dp_computed = 0;
  size_t accepted = 0;
  /// DP matrix cells |T| x |Q| summed over pairs that reached the DP — the
  /// work the filters failed to prune (feeds the verify.dp.cells metric).
  uint64_t dp_cells = 0;

  void Merge(const VerifyStats& o) {
    pairs += o.pairs;
    pruned_by_sketch += o.pruned_by_sketch;
    pruned_by_mbr += o.pruned_by_mbr;
    pruned_by_cell += o.pruned_by_cell;
    dp_computed += o.dp_computed;
    dp_cells += o.dp_cells;
    accepted += o.accepted;
  }
};

/// The verification pipeline of §5.3.3, ordered cheapest first:
///  (1) MBR coverage filtering via extended MBRs (Lemma 5.4);
///  (2) cell-compression lower bound (Lemma 5.6) — off by default: it is
///      O(cells_T * cells_Q) per pair, while the windowed threshold DP
///      usually rejects a pair within a few rows;
///  (3) threshold-aware dynamic program on SoA kernels.
/// Steps (1)-(2) only apply to distances whose semantics support them (DTW,
/// Frechet — every point must align within tau); edit distances go straight
/// to their thresholded DP, which embeds the length filter.
class Verifier {
 public:
  /// One partition's worth of verification work against a single query:
  /// `candidates` indexes into `precomp` (positions within the partition).
  struct Batch {
    const std::vector<VerifyPrecomp>* precomp = nullptr;
    const std::vector<uint32_t>* candidates = nullptr;
    const VerifyPrecomp* query = nullptr;
    double tau = 0.0;
    /// Tau-dilated query signature (engine frame); null disables the
    /// per-candidate sketch test for this batch. Only set for DTW/Frechet.
    const SigBits* dilated = nullptr;
    /// Optional cooperative stop token. VerifyBatch checkpoints the filter
    /// scan, charges surviving DP cells against the budget, caps scratch
    /// growth, attaches the token to every DP scratch involved (kernels
    /// poll it per row block), and abandons the batch once stopped. The
    /// caller must then discard the batch's partial output.
    QueryContext* ctx = nullptr;
  };

  struct BatchResult {
    /// Candidates accepted by this batch.
    size_t accepted = 0;
    /// DP chunks dispatched to the pool (0 when the batch ran serially).
    size_t pool_chunks = 0;
    /// CPU seconds burned on pool threads. The caller must charge these to
    /// its cluster task (Cluster::ChargeCurrentTask) so the virtual-time
    /// ledger sees the same total work as a serial run.
    double offloaded_seconds = 0.0;
  };

  /// One member of a multi-query verification pass: this query's candidate
  /// list (positions into the shared partition precomp array) and its own
  /// tau / stop token / output sinks. The accepted positions land in
  /// `accepted` in candidate-list order, exactly as a standalone
  /// VerifyBatch call would emit them, and `stats` receives the standalone
  /// counters.
  struct MultiQuery {
    const std::vector<uint32_t>* candidates = nullptr;
    const VerifyPrecomp* query = nullptr;
    double tau = 0.0;
    /// Tau-dilated query signature; null disables the sketch test for this
    /// member (see Batch::dilated).
    const SigBits* dilated = nullptr;
    QueryContext* ctx = nullptr;
    std::vector<uint32_t>* accepted = nullptr;
    VerifyStats* stats = nullptr;
  };

  Verifier(std::shared_ptr<TrajectoryDistance> distance, const DitaConfig& config)
      : distance_(std::move(distance)),
        cell_size_(config.verify.cell_size),
        mbr_enabled_(config.verify.enable_mbr),
        cell_enabled_(config.verify.enable_cell),
        sketch_enabled_(config.verify.enable_sketch) {}

  /// The precomp this verifier's filters read: the cell summary (an
  /// O(|t| * cells) scan) is built only when the cell tier is enabled.
  /// `grid` as in VerifyPrecomp::For.
  VerifyPrecomp Precompute(const Trajectory& t,
                           const SigGrid* grid = nullptr) const {
    return cell_enabled_ ? VerifyPrecomp::For(t, cell_size_, grid)
                         : VerifyPrecomp::WithoutCells(t, grid);
  }

  /// Returns true iff distance(t, q) <= tau. Never rejects a true answer.
  /// `dilated` (optional) enables the level-0 sketch test against tp.sig.
  bool Verify(const Trajectory& t, const VerifyPrecomp& tp, const Trajectory& q,
              const VerifyPrecomp& qp, double tau, VerifyStats* stats,
              const SigBits* dilated = nullptr) const;

  /// Verifies a whole candidate list against one query: a one-member
  /// VerifyMulti. A tight first pass runs the cheap filters, then the
  /// surviving DP work either runs serially on the calling thread or —
  /// when `pool` is non-null and at least `min_parallel` survivors remain
  /// — is chunked across the pool. Accepted positions are appended to
  /// `accepted` in candidate order regardless of the execution mode, so
  /// results are deterministic. Stats accumulation matches a loop of
  /// Verify() calls exactly. With `tracer` non-null the batch is wrapped in
  /// a "verify" span (on the calling thread's lane) carrying the batch's
  /// pair / survivor / accepted counts.
  BatchResult VerifyBatch(const Batch& batch, ThreadPool* pool,
                          size_t min_parallel, std::vector<uint32_t>* accepted,
                          VerifyStats* stats,
                          obs::Tracer* tracer = nullptr) const;

  /// Verifies several queries' candidate lists against one partition in a
  /// single pass (DESIGN.md §5f). Per member the filter scan, accounting,
  /// and context charges are exactly those of a standalone VerifyBatch
  /// call; the surviving DP work of all members is then merged and swept
  /// candidate-major — one candidate trajectory's SoA lanes are scored
  /// against every interested query back to back while they are hot —
  /// through ThreadPool::ParallelFor (`min_parallel` applies to the merged
  /// survivor count). Per-member outputs are deterministic; a member whose
  /// context stops mid-sweep only loses its own remaining DP work (its
  /// partial output must be discarded by the caller, as everywhere else).
  /// The summed BatchResult's offloaded_seconds must be charged to the
  /// caller's cluster task as usual. The span is "verify" for one member
  /// and "verify.multi" for several.
  BatchResult VerifyMulti(const std::vector<VerifyPrecomp>& precomp,
                          MultiQuery* queries, size_t count, ThreadPool* pool,
                          size_t min_parallel,
                          obs::Tracer* tracer = nullptr) const;

  const TrajectoryDistance& distance() const { return *distance_; }

 private:
  /// Filter steps (0)-(2) only; updates the prune counters. Step (0) is the
  /// sketch subset test, active when `dilated` is non-null.
  bool PassesFilters(const VerifyPrecomp& tp, const VerifyPrecomp& qp,
                     double tau, VerifyStats* stats,
                     const SigBits* dilated) const;

  std::shared_ptr<TrajectoryDistance> distance_;
  double cell_size_;
  bool mbr_enabled_;
  bool cell_enabled_;
  bool sketch_enabled_;
};

}  // namespace dita

#endif  // DITA_CORE_VERIFIER_H_
