#include "distance/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace dita {
namespace kernels {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One vectorizable pass: out[j] = dist((ax, ay), b[j]) for j in [lo, hi).
/// Separating the distance pass from the recurrence pass keeps the sqrt out
/// of the DP's loop-carried dependency chain.
inline void RowDistances(double ax, double ay, const TrajView& b, size_t lo,
                         size_t hi, double* out) {
  const double* bx = b.xs;
  const double* by = b.ys;
  for (size_t j = lo; j < hi; ++j) {
    const double dx = ax - bx[j];
    const double dy = ay - by[j];
    out[j] = std::sqrt(dx * dx + dy * dy);
  }
}

inline void RowDistancesSquared(double ax, double ay, const TrajView& b,
                                size_t lo, size_t hi, double* out) {
  const double* bx = b.xs;
  const double* by = b.ys;
  for (size_t j = lo; j < hi; ++j) {
    const double dx = ax - bx[j];
    const double dy = ay - by[j];
    out[j] = dx * dx + dy * dy;
  }
}

inline double Dist(const TrajView& a, size_t i, const TrajView& b, size_t j) {
  const double dx = a.xs[i] - b.xs[j];
  const double dy = a.ys[i] - b.ys[j];
  return std::sqrt(dx * dx + dy * dy);
}

inline double DistSquared(const TrajView& a, size_t i, const TrajView& b,
                          size_t j) {
  const double dx = a.xs[i] - b.xs[j];
  const double dy = a.ys[i] - b.ys[j];
  return dx * dx + dy * dy;
}

inline double Min3(double x, double y, double z) {
  const double m = x < y ? x : y;
  return z < m ? z : m;
}

}  // namespace

double DtwCompute(const TrajView& a, const TrajView& b, DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (m == 0 || n == 0) return m == n ? 0.0 : kInf;

  // Rolling single-row DP: row[j] = DTW(T^i, Q^j).
  double* row = s.RowA(n);
  double* dist = s.Dist(n);
  RowDistances(a.xs[0], a.ys[0], b, 0, n, dist);
  row[0] = dist[0];
  for (size_t j = 1; j < n; ++j) row[j] = row[j - 1] + dist[j];
  for (size_t i = 1; i < m; ++i) {
    RowDistances(a.xs[i], a.ys[i], b, 0, n, dist);
    double diag = row[0];  // DTW(T^{i-1}, Q^1)
    row[0] += dist[0];
    for (size_t j = 1; j < n; ++j) {
      const double up = row[j];  // DTW(T^{i-1}, Q^{j})
      row[j] = dist[j] + Min3(diag, up, row[j - 1]);
      diag = up;
    }
  }
  return row[n - 1];
}

// Threshold-aware single-pass DTW with column-window pruning. Call a cell
// (i, j) with forward value v "live" when it can still be part of a path of
// total cost <= tau: for the final cell that means v <= tau, for every other
// cell v + d_last <= tau, because any continuation must at least pay the
// last anchor distance d_last = dist(t_m, q_n) (Definition 2.2). Per row we
// only compute the columns reachable from the previous row's live window
// plus a horizontal extension, and only carry the live span forward.
//
// Exactness: DTW cell costs are non-negative, and IEEE addition of
// non-negative values is monotone (fl(x + y) >= x), so every descendant of a
// dead cell computes a value v' >= v, hence fl(v' + d_last) >= fl(v + d_last)
// > tau — dead stays dead, with the same floating-point expression the
// reference's row-min abandon test uses. Conversely a live cell can never
// take its DP minimum from a dead predecessor (the resulting value would be
// dead by the same argument), so live cells compute bit-identical values to
// the full DP and the final accept/reject decision is unchanged. In
// particular the final cell, when live, holds exactly DtwCompute's value,
// which is what the kernel returns; every rejection returns +inf.
double DtwBounded(const TrajView& a, const TrajView& b, double tau,
                  DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (tau == kInf) return DtwCompute(a, b, s);
  const auto within = [tau](double v) { return v <= tau ? v : kInf; };
  if (m == 0 || n == 0) return m == n ? within(0.0) : kInf;

  const double d00 = Dist(a, 0, b, 0);
  if (m == 1 && n == 1) return within(d00);
  const double d_last = Dist(a, m - 1, b, n - 1);
  // Double-direction anchor bound: every warping path includes both
  // endpoint alignments, so their sum already lower-bounds DTW.
  if (d00 + d_last > tau) return kInf;
  if (m == 1 || n == 1) return within(DtwCompute(a, b, s));

  double* row = s.RowA(n);
  double* dist = s.Dist(n);

  // Row 0 is a prefix sum, so it dies for good at the first dead column.
  RowDistances(a.xs[0], a.ys[0], b, 0, n, dist);
  row[0] = dist[0];
  size_t beg = 0;  // first live column of the previous row
  size_t end = 1;  // one past the last live column of the previous row
  for (size_t j = 1; j < n; ++j) {
    const double v = row[j - 1] + dist[j];
    if (v + d_last > tau) break;
    row[j] = v;
    end = j + 1;
  }
  if (end < n) row[end] = kInf;  // sentinel for the next row's up/diag reads

  for (size_t i = 1; i < m; ++i) {
    // Cooperative cancellation: a false accept is impossible here (stopped
    // queries drop this pair's verdict entirely), so bailing mid-DP is safe.
    if ((i & 31) == 0 && s.PollRows(32)) return kInf;
    const bool final_row = i + 1 == m;
    RowDistances(a.xs[i], a.ys[i], b, beg, std::min(end + 1, n), dist);
    size_t new_beg = n;
    size_t last_live = n;  // n = no live cell seen in this row yet
    double left = kInf;  // value at (i, j-1)
    double diag = kInf;  // previous row at j-1; row[beg-1] is dead/sentinel
    // Columns with an up or diagonal predecessor: [beg, end]. The sentinel
    // written after the previous row makes row[end] read as infinity.
    const size_t lim = std::min(end, n - 1);
    size_t j = beg;
    for (; j <= lim; ++j) {
      const double up = row[j];
      const double best = Min3(diag, up, left);
      diag = up;
      if (best == kInf) {  // no reachable predecessor
        row[j] = kInf;
        left = kInf;
        continue;
      }
      const double v = dist[j] + best;
      row[j] = v;
      left = v;
      const bool live =
          (final_row && j == n - 1) ? v <= tau : v + d_last <= tau;
      if (live) {
        if (new_beg == n) new_beg = j;
        last_live = j;
      }
    }
    // Horizontal extension past the previous row's window: only the left
    // predecessor exists there and the chain is non-decreasing, so it ends
    // at the first dead cell — and never starts from one.
    if (last_live == lim && lim + 1 < n) {
      for (j = lim + 1; j < n; ++j) {
        const double v = Dist(a, i, b, j) + left;
        const bool live =
            (final_row && j == n - 1) ? v <= tau : v + d_last <= tau;
        if (!live) break;
        row[j] = v;
        left = v;
        last_live = j;
      }
    }
    if (new_beg == n) return kInf;  // the whole frontier exceeds tau
    beg = new_beg;
    end = last_live + 1;
    if (beg > 0) row[beg - 1] = kInf;
    if (end < n) row[end] = kInf;
  }
  // The final cell is live iff its value is within tau.
  return end == n ? row[n - 1] : kInf;
}

bool DtwWithin(const TrajView& a, const TrajView& b, double tau, DpScratch& s) {
  return DtwBounded(a, b, tau, s) <= tau;
}

double DtwAmd(const TrajView& a, const TrajView& b) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (m == 0 || n == 0) return m == n ? 0.0 : kInf;
  if (m == 1 && n == 1) return Dist(a, 0, b, 0);
  double amd = Dist(a, 0, b, 0) + Dist(a, m - 1, b, n - 1);
  for (size_t i = 1; i + 1 < m; ++i) {
    // min over sqrt == sqrt of min: sqrt is monotone (also after rounding),
    // so one sqrt per row replaces n of them without changing the result.
    const double ax = a.xs[i];
    const double ay = a.ys[i];
    double min_sq = kInf;
    for (size_t j = 0; j < n; ++j) {
      const double dx = ax - b.xs[j];
      const double dy = ay - b.ys[j];
      const double dsq = dx * dx + dy * dy;
      min_sq = dsq < min_sq ? dsq : min_sq;
    }
    amd += std::sqrt(min_sq);
  }
  return amd;
}

// Frechet runs entirely in squared space: its DP only min/maxes values (no
// additions), min/max are order-based selections, and x -> sqrt(x) is
// non-decreasing even after rounding, so selecting among squared distances
// picks values whose roots are exactly the reference's selections. One sqrt
// at the very end (and inside threshold comparisons) suffices.
double FrechetCompute(const TrajView& a, const TrajView& b, DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (m == 0 || n == 0) return m == n ? 0.0 : kInf;

  double* row = s.RowA(n);
  double* dist = s.Dist(n);
  RowDistancesSquared(a.xs[0], a.ys[0], b, 0, n, dist);
  row[0] = dist[0];
  for (size_t j = 1; j < n; ++j) row[j] = std::max(row[j - 1], dist[j]);
  for (size_t i = 1; i < m; ++i) {
    RowDistancesSquared(a.xs[i], a.ys[i], b, 0, n, dist);
    double diag = row[0];
    row[0] = std::max(row[0], dist[0]);
    for (size_t j = 1; j < n; ++j) {
      const double up = row[j];
      row[j] = std::max(dist[j], Min3(diag, up, row[j - 1]));
      diag = up;
    }
  }
  return std::sqrt(row[n - 1]);
}

// Same column-window pruning as DtwWithin, with an even simpler liveness
// rule: a Frechet path's value is the max over its cells and can only grow,
// so a cell is dead as soon as its own value exceeds tau — no anchor term,
// no rounding concerns (min/max are exact). Squared space throughout;
// SqThreshold keeps every tau comparison bit-compatible.
bool FrechetWithin(const TrajView& a, const TrajView& b, double tau,
                   DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (m == 0 || n == 0) return m == n && 0.0 <= tau;
  if (tau < 0.0) return false;  // distances are >= 0

  const SqThreshold st = SqThreshold::For(tau);
  // Both endpoints are always aligned, so either exceeding tau disproves
  // similarity immediately.
  if (!st.Within(DistSquared(a, 0, b, 0))) return false;
  if (!st.Within(DistSquared(a, m - 1, b, n - 1))) return false;

  double* row = s.RowA(n);
  double* dist = s.Dist(n);
  RowDistancesSquared(a.xs[0], a.ys[0], b, 0, n, dist);
  row[0] = dist[0];
  size_t beg = 0;
  size_t end = 1;
  for (size_t j = 1; j < n; ++j) {
    const double v = std::max(row[j - 1], dist[j]);  // prefix maxima grow
    if (!st.Within(v)) break;
    row[j] = v;
    end = j + 1;
  }
  if (end < n) row[end] = kInf;

  for (size_t i = 1; i < m; ++i) {
    if ((i & 31) == 0 && s.PollRows(32)) return false;
    RowDistancesSquared(a.xs[i], a.ys[i], b, beg, std::min(end + 1, n), dist);
    size_t new_beg = n;
    size_t last_live = n;  // n = no live cell seen in this row yet
    double left = kInf;
    double diag = kInf;
    const size_t lim = std::min(end, n - 1);
    size_t j = beg;
    for (; j <= lim; ++j) {
      const double up = row[j];
      const double best = Min3(diag, up, left);
      diag = up;
      if (best == kInf) {
        row[j] = kInf;
        left = kInf;
        continue;
      }
      const double v = std::max(dist[j], best);
      row[j] = v;
      left = v;
      if (st.Within(v)) {
        if (new_beg == n) new_beg = j;
        last_live = j;
      }
    }
    if (last_live == lim && lim + 1 < n) {
      for (j = lim + 1; j < n; ++j) {
        const double v = std::max(DistSquared(a, i, b, j), left);
        if (!st.Within(v)) break;
        row[j] = v;
        left = v;
        last_live = j;
      }
    }
    if (new_beg == n) return false;
    beg = new_beg;
    end = last_live + 1;
    if (beg > 0) row[beg - 1] = kInf;
    if (end < n) row[end] = kInf;
  }
  return end == n;
}

double EdrCompute(const TrajView& a, const TrajView& b, double epsilon,
                  DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;
  if (m == 0) return static_cast<double>(n);
  if (n == 0) return static_cast<double>(m);

  const SqThreshold eps = SqThreshold::For(epsilon);
  // row[j] = EDR(prefix of T, first j points of Q).
  double* row = s.RowA(n + 1);
  double* dsq = s.Dist(n);
  for (size_t j = 0; j <= n; ++j) row[j] = static_cast<double>(j);
  for (size_t i = 1; i <= m; ++i) {
    RowDistancesSquared(a.xs[i - 1], a.ys[i - 1], b, 0, n, dsq);
    double diag = row[0];
    row[0] = static_cast<double>(i);
    for (size_t j = 1; j <= n; ++j) {
      const double up = row[j];
      const double subcost = eps.Within(dsq[j - 1]) ? 0.0 : 1.0;
      row[j] = Min3(diag + subcost, up + 1.0, row[j - 1] + 1.0);
      diag = up;
    }
  }
  return row[n];
}

bool EdrWithin(const TrajView& a, const TrajView& b, double epsilon,
               double tau, DpScratch& s) {
  const long m = static_cast<long>(a.len);
  const long n = static_cast<long>(b.len);
  if (std::abs(m - n) > tau) return false;  // length filter (Appendix A)
  if (m == 0 || n == 0) return true;        // |m - n| <= tau already

  const SqThreshold eps = SqThreshold::For(epsilon);
  // Banded DP: a cell (i, j) with |i - j| > band needs more than tau
  // insert/delete operations, so it cannot be on a path of cost <= tau.
  const long band = static_cast<long>(std::floor(tau));
  double* row = s.RowA(static_cast<size_t>(n) + 1);
  double* prev = s.RowB(static_cast<size_t>(n) + 1);
  double* dsq = s.Dist(static_cast<size_t>(n));
  for (long j = 0; j <= n; ++j) {
    row[j] = kInf;
    prev[j] = kInf;
  }
  for (long j = 0; j <= std::min(n, band); ++j) prev[j] = static_cast<double>(j);
  for (long i = 1; i <= m; ++i) {
    if ((i & 31) == 0 && s.PollRows(32)) return false;
    const long j_lo = std::max(1L, i - band);
    const long j_hi = std::min(n, i + band);
    // The rolling arrays hold values from two rows ago outside the band;
    // resetting the single slot on each side of the band reproduces the
    // reference's full-row infinity fill (the band shifts right by at most
    // one column per row, so no other stale slot is ever read).
    row[j_lo - 1] = kInf;
    if (j_hi < n) row[j_hi + 1] = kInf;
    double row_min = kInf;
    if (i <= band) {
      row[0] = static_cast<double>(i);
      row_min = row[0];
    }
    RowDistancesSquared(a.xs[i - 1], a.ys[i - 1], b,
                        static_cast<size_t>(j_lo - 1),
                        static_cast<size_t>(j_hi), dsq);
    for (long j = j_lo; j <= j_hi; ++j) {
      const double subcost = eps.Within(dsq[j - 1]) ? 0.0 : 1.0;
      row[j] = Min3(prev[j - 1] + subcost, prev[j] + 1.0, row[j - 1] + 1.0);
      row_min = std::min(row_min, row[j]);
    }
    if (row_min > tau) return false;
    std::swap(row, prev);
  }
  return prev[n] <= tau;
}

size_t LcssSimilarity(const TrajView& a, const TrajView& b, double epsilon,
                      long delta, DpScratch& s) {
  const long m = static_cast<long>(a.len);
  const long n = static_cast<long>(b.len);
  if (m == 0 || n == 0) return 0;

  const SqThreshold eps = SqThreshold::For(epsilon);
  // The index constraint |i - j| <= delta confines matches to a band, so
  // only band cells need point distances; outside the band the DP value is
  // constant along each row (no further matches are permitted there), which
  // we materialize so neighbouring rows can read any column directly.
  size_t* prev = s.IRowA(static_cast<size_t>(n) + 1);
  size_t* row = s.IRowB(static_cast<size_t>(n) + 1);
  for (long j = 0; j <= n; ++j) prev[j] = 0;
  double* dsq = s.Dist(static_cast<size_t>(n));
  for (long i = 1; i <= m; ++i) {
    // Clamp: when i - delta exceeds n the band is empty and row i simply
    // copies row i-1 (no new matches are permitted).
    const long lo = std::min(std::max(1L, i - delta), n + 1);
    const long hi = std::min(n, i + delta);
    // Columns before the band: row i cannot add matches there.
    for (long j = 0; j < lo; ++j) row[j] = prev[j];
    if (lo <= hi) {
      RowDistancesSquared(a.xs[i - 1], a.ys[i - 1], b,
                          static_cast<size_t>(lo - 1),
                          static_cast<size_t>(hi), dsq);
    }
    for (long j = lo; j <= hi; ++j) {
      if (eps.Within(dsq[j - 1])) {
        row[j] = prev[j - 1] + 1;
      } else {
        row[j] = std::max(prev[j], row[j - 1]);
      }
    }
    // Columns after the band: constant continuation of the last band cell.
    for (long j = hi + 1; j <= n; ++j) row[j] = std::max(row[hi], prev[j]);
    std::swap(row, prev);
  }
  return prev[n];
}

bool LcssWithin(const TrajView& a, const TrajView& b, double epsilon,
                long delta, double tau, DpScratch& s) {
  // Decided in distance space — min(m, n) - lcss against tau, the double
  // comparison Compute(t, q) <= tau makes — rather than as lcss >= min(m, n)
  // - tau, whose subtraction rounds at fractional or tiny tau. Cheap
  // pre-check: the distance never exceeds min(m, n).
  const size_t shorter = std::min(a.len, b.len);
  const auto within = [shorter, tau](size_t sim) {
    return static_cast<double>(shorter - std::min(shorter, sim)) <= tau;
  };
  if (within(0)) return true;

  const SqThreshold eps = SqThreshold::For(epsilon);
  // Banded DP with an upper-bound abandon: after row i the similarity can
  // grow by at most (m - i) more matches.
  const long m = static_cast<long>(a.len);
  const long n = static_cast<long>(b.len);
  size_t* prev = s.IRowA(static_cast<size_t>(n) + 1);
  size_t* row = s.IRowB(static_cast<size_t>(n) + 1);
  for (long j = 0; j <= n; ++j) prev[j] = 0;
  double* dsq = s.Dist(static_cast<size_t>(n));
  for (long i = 1; i <= m; ++i) {
    if ((i & 31) == 0 && s.PollRows(32)) return false;
    const long lo = std::min(std::max(1L, i - delta), n + 1);
    const long hi = std::min(n, i + delta);
    for (long j = 0; j < lo; ++j) row[j] = prev[j];
    size_t row_best = row[lo - 1];
    if (lo <= hi) {
      RowDistancesSquared(a.xs[i - 1], a.ys[i - 1], b,
                          static_cast<size_t>(lo - 1),
                          static_cast<size_t>(hi), dsq);
    }
    for (long j = lo; j <= hi; ++j) {
      if (eps.Within(dsq[j - 1])) {
        row[j] = prev[j - 1] + 1;
      } else {
        row[j] = std::max(prev[j], row[j - 1]);
      }
      row_best = std::max(row_best, row[j]);
    }
    for (long j = hi + 1; j <= n; ++j) {
      row[j] = std::max(row[hi], prev[j]);
      row_best = std::max(row_best, row[j]);
    }
    if (!within(row_best + static_cast<size_t>(m - i))) return false;
    std::swap(row, prev);
  }
  return within(prev[n]);
}

double ErpCompute(const TrajView& a, const TrajView& b, const Point& gap,
                  DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;

  double* prev = s.RowA(n + 1);
  double* row = s.RowB(n + 1);
  double* dist = s.Dist(n);
  double* gap_b = s.Gap(n);
  // dist(b[j], g) appears in every row of the DP; hoist it out entirely.
  RowDistances(gap.x, gap.y, b, 0, n, gap_b);
  prev[0] = 0.0;
  for (size_t j = 1; j <= n; ++j) prev[j] = prev[j - 1] + gap_b[j - 1];
  for (size_t i = 1; i <= m; ++i) {
    const double dgx = a.xs[i - 1] - gap.x;
    const double dgy = a.ys[i - 1] - gap.y;
    const double gap_a = std::sqrt(dgx * dgx + dgy * dgy);
    RowDistances(a.xs[i - 1], a.ys[i - 1], b, 0, n, dist);
    row[0] = prev[0] + gap_a;
    for (size_t j = 1; j <= n; ++j) {
      row[j] = Min3(prev[j - 1] + dist[j - 1], prev[j] + gap_a,
                    row[j - 1] + gap_b[j - 1]);
    }
    std::swap(prev, row);
  }
  return prev[n];
}

bool ErpWithin(const TrajView& a, const TrajView& b, const Point& gap,
               double tau, DpScratch& s) {
  const size_t m = a.len;
  const size_t n = b.len;

  double* prev = s.RowA(n + 1);
  double* row = s.RowB(n + 1);
  double* dist = s.Dist(n);
  double* gap_b = s.Gap(n);
  RowDistances(gap.x, gap.y, b, 0, n, gap_b);
  prev[0] = 0.0;
  for (size_t j = 1; j <= n; ++j) prev[j] = prev[j - 1] + gap_b[j - 1];
  for (size_t i = 1; i <= m; ++i) {
    if ((i & 31) == 0 && s.PollRows(32)) return false;
    const double dgx = a.xs[i - 1] - gap.x;
    const double dgy = a.ys[i - 1] - gap.y;
    const double gap_a = std::sqrt(dgx * dgx + dgy * dgy);
    RowDistances(a.xs[i - 1], a.ys[i - 1], b, 0, n, dist);
    row[0] = prev[0] + gap_a;
    double row_min = row[0];
    for (size_t j = 1; j <= n; ++j) {
      row[j] = Min3(prev[j - 1] + dist[j - 1], prev[j] + gap_a,
                    row[j - 1] + gap_b[j - 1]);
      row_min = std::min(row_min, row[j]);
    }
    // ERP costs are non-negative, so a frontier entirely above tau can never
    // come back below it.
    if (row_min > tau) return false;
    std::swap(prev, row);
  }
  return prev[n] <= tau;
}

}  // namespace kernels
}  // namespace dita
