#include "core/verifier.h"

#include <algorithm>
#include <atomic>

#include "distance/dp_scratch.h"

namespace dita {

bool Verifier::PassesFilters(const VerifyPrecomp& tp, const VerifyPrecomp& qp,
                             double tau, VerifyStats* stats,
                             const SigBits* dilated) const {
  const PruneMode mode = distance_->prune_mode();
  // DTW and Frechet align every point of T within tau of some point of Q,
  // which is what the MBR/cell bounds encode. Edit distances may delete
  // points and ERP may match the gap point, so neither bound applies there.
  const bool geometric = distance_->type() == DistanceType::kDTW ||
                         distance_->type() == DistanceType::kFrechet;

  if (geometric && sketch_enabled_ && dilated != nullptr &&
      !tp.sig.bits.Empty()) {
    // Level 0 (DESIGN.md §5g): every point of a matching T lies within tau
    // of some query point, so every occupied cell of T lies in the query's
    // tau-dilated cell set. Four AND-NOTs — cheaper than any other filter.
    if (!tp.sig.bits.SubsetOf(*dilated)) {
      if (stats != nullptr) ++stats->pruned_by_sketch;
      return false;
    }
  }

  if (geometric && mbr_enabled_) {
    // Lemma 5.4: if similar, EMBR_{T,tau} covers MBR_Q and vice versa. Both
    // DTW and Frechet align every point of one trajectory to within tau of
    // a point of the other, so the lemma applies to both.
    if (!tp.mbr.Extended(tau).Covers(qp.mbr) ||
        !qp.mbr.Extended(tau).Covers(tp.mbr)) {
      if (stats != nullptr) ++stats->pruned_by_mbr;
      return false;
    }
  }

  // Lemma 5.6 needs both cell sets: over an empty one the bound reads +inf
  // and would reject a true match, so a precomp built without cells (or an
  // empty trajectory) skips the tier.
  if (geometric && cell_enabled_ && !tp.cells.cells.empty() &&
      !qp.cells.cells.empty()) {
    const bool is_max = mode == PruneMode::kMax;
    const double lb_tq = is_max ? CellLowerBoundFrechet(tp.cells, qp.cells, tau)
                                : CellLowerBoundDtw(tp.cells, qp.cells, tau);
    if (lb_tq > tau) {
      if (stats != nullptr) ++stats->pruned_by_cell;
      return false;
    }
    const double lb_qt = is_max ? CellLowerBoundFrechet(qp.cells, tp.cells, tau)
                                : CellLowerBoundDtw(qp.cells, tp.cells, tau);
    if (lb_qt > tau) {
      if (stats != nullptr) ++stats->pruned_by_cell;
      return false;
    }
  }
  return true;
}

bool Verifier::Verify(const Trajectory&, const VerifyPrecomp& tp,
                      const Trajectory&, const VerifyPrecomp& qp, double tau,
                      VerifyStats* stats, const SigBits* dilated) const {
  if (stats != nullptr) ++stats->pairs;
  if (!PassesFilters(tp, qp, tau, stats, dilated)) return false;
  if (stats != nullptr) {
    ++stats->dp_computed;
    stats->dp_cells +=
        static_cast<uint64_t>(tp.soa.size()) * qp.soa.size();
  }
  const bool within = distance_->WithinThreshold(
      tp.soa.view(), qp.soa.view(), tau, &DpScratch::ThreadLocal());
  if (within && stats != nullptr) ++stats->accepted;
  return within;
}

Verifier::BatchResult Verifier::VerifyBatch(const Batch& batch,
                                            ThreadPool* pool,
                                            size_t min_parallel,
                                            std::vector<uint32_t>* accepted,
                                            VerifyStats* stats,
                                            obs::Tracer* tracer) const {
  MultiQuery q{batch.candidates, batch.query, batch.tau, batch.dilated,
               batch.ctx,        accepted,    stats};
  return VerifyMulti(*batch.precomp, &q, 1, pool, min_parallel, tracer);
}

Verifier::BatchResult Verifier::VerifyMulti(
    const std::vector<VerifyPrecomp>& precomp, MultiQuery* queries,
    size_t count, ThreadPool* pool, size_t min_parallel,
    obs::Tracer* tracer) const {
  BatchResult out;
  if (count == 0) return out;
  obs::SpanGuard span(tracer, count == 1 ? "verify" : "verify.multi");
  DpScratch& scratch = DpScratch::ThreadLocal();

  // Pass 1, member by member: cheap filters only — a tight scan over the
  // precomp array that never touches DP state or raw coordinates,
  // checkpointed in blocks (filter tests are the unit of work charged
  // here), then the member's whole DP work charged up front: exceeding
  // max_dp_cells skips its DP entirely instead of discovering the overrun
  // halfway in. Each member's survivors land contiguously (candidate-list
  // order) in the shared survivors lane; offs[m] delimits them. A member
  // that stops anywhere in its own pass contributes nothing downstream.
  std::vector<uint32_t>& survivors = scratch.Survivors();
  survivors.clear();
  size_t* offs = scratch.Offsets(count + 1);
  size_t total_pairs = 0;
  constexpr size_t kFilterStride = 256;
  for (size_t m = 0; m < count; ++m) {
    offs[m] = survivors.size();
    MultiQuery& q = queries[m];
    QueryContext* const ctx = q.ctx;
    if (ctx != nullptr && ctx->stopped()) continue;
    const std::vector<uint32_t>& candidates = *q.candidates;
    if (q.stats != nullptr) q.stats->pairs += candidates.size();
    total_pairs += candidates.size();
    bool stopped_in_scan = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (ctx != nullptr && (i % kFilterStride) == 0 && i != 0 &&
          ctx->CheckPoint(kFilterStride)) {
        stopped_in_scan = true;
        break;
      }
      const uint32_t pos = candidates[i];
      if (PassesFilters(precomp[pos], *q.query, q.tau, q.stats, q.dilated)) {
        survivors.push_back(pos);
      }
    }
    if (stopped_in_scan) {
      survivors.resize(offs[m]);
      continue;
    }
    uint64_t member_dp_cells = 0;
    for (size_t r = offs[m]; r < survivors.size(); ++r) {
      member_dp_cells += static_cast<uint64_t>(precomp[survivors[r]].soa.size()) *
                         q.query->soa.size();
    }
    if (q.stats != nullptr) {
      q.stats->dp_computed += survivors.size() - offs[m];
      q.stats->dp_cells += member_dp_cells;
    }
    if (ctx != nullptr && (ctx->ChargeDpCells(member_dp_cells) ||
                           ctx->CheckScratchBytes(scratch.ByteSize()))) {
      survivors.resize(offs[m]);
      continue;
    }
  }
  offs[count] = survivors.size();
  const size_t total = survivors.size();

  // Pass 2: the merged thresholded DP work, swept candidate-major. Sorting
  // the packed (position << 32 | rank) keys groups every (candidate, query)
  // pair that shares a candidate trajectory, so its SoA lanes are scored
  // against all interested queries while hot (a single member's ranks are
  // already its own order, so it skips the sort). Accept bits are keyed by
  // survivor rank, and the per-member compaction below re-reads them in
  // rank order — i.e. in each member's own candidate order — so the output
  // is the same whether the sweep ran serially or chunked across the pool.
  if (total > 0) {
    std::vector<uint64_t>& pairs = scratch.Pairs();
    pairs.clear();
    pairs.reserve(total);
    for (size_t g = 0; g < total; ++g) {
      pairs.push_back((uint64_t{survivors[g]} << 32) | g);
    }
    if (count > 1) std::sort(pairs.begin(), pairs.end());
    uint8_t* flags = scratch.Flags(total);
    const uint64_t* keys = pairs.data();
    const auto member_of = [offs, count](size_t g) -> size_t {
      return count == 1 ? 0
                        : static_cast<size_t>(
                              std::upper_bound(offs, offs + count + 1, g) -
                              offs - 1);
    };
    // Each chunk scores on its own thread's scratch; the context rides along
    // so the kernels' row-block polls see it, and is detached on every exit.
    // A stopped member's flags must not read as stale accepts; the other
    // members' pairs in the chunk keep running.
    std::atomic<size_t> chunks{0};
    const auto sweep = [&](size_t lo, size_t hi) {
      chunks.fetch_add(1, std::memory_order_relaxed);
      DpScratch& local = DpScratch::ThreadLocal();
      struct CtxGuard {
        DpScratch* s;
        ~CtxGuard() { s->SetQueryContext(nullptr); }
      } guard{&local};
      for (size_t k = lo; k < hi; ++k) {
        const size_t g = static_cast<size_t>(keys[k] & 0xffffffffu);
        const uint32_t pos = static_cast<uint32_t>(keys[k] >> 32);
        const MultiQuery& q = queries[member_of(g)];
        if (q.ctx != nullptr && q.ctx->stopped()) {
          flags[g] = 0;
          continue;
        }
        local.SetQueryContext(q.ctx);
        flags[g] = distance_->WithinThreshold(precomp[pos].soa.view(),
                                              q.query->soa.view(), q.tau,
                                              &local)
                       ? 1
                       : 0;
      }
    };
    // A one-reference capture fits std::function's inline buffer, so the
    // serial sweep allocates nothing.
    out.offloaded_seconds = ThreadPool::ParallelFor(
        pool, total, min_parallel,
        [&sweep](size_t lo, size_t hi) { sweep(lo, hi); });
    // ParallelFor runs inline as one chunk, or fans out as two or more.
    const size_t ran = chunks.load(std::memory_order_relaxed);
    out.pool_chunks = ran > 1 ? ran : 0;

    const uint32_t* surv = survivors.data();
    for (size_t m = 0; m < count; ++m) {
      MultiQuery& q = queries[m];
      const size_t before = q.accepted->size();
      for (size_t g = offs[m]; g < offs[m + 1]; ++g) {
        if (flags[g]) q.accepted->push_back(surv[g]);
      }
      const size_t got = q.accepted->size() - before;
      if (q.stats != nullptr) q.stats->accepted += got;
      out.accepted += got;
    }
  }

  if (count > 1) span.Arg("queries", count);
  span.Arg("pairs", total_pairs);
  span.Arg("survivors", total);
  span.Arg("accepted", out.accepted);
  return out;
}

}  // namespace dita
