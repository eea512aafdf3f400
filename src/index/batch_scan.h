#ifndef DITA_INDEX_BATCH_SCAN_H_
#define DITA_INDEX_BATCH_SCAN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#define DITA_BATCH_SCAN_AVX2 1
#include <immintrin.h>
#else
#define DITA_BATCH_SCAN_AVX2 0
#endif

namespace dita {

/// The suffix-scan primitive behind TrieIndex's pivot-level node tests,
/// factored out of SuffixMinDist so CollectCandidates can run it over SoA
/// query-point arrays with a vectorized kernel (DESIGN.md §5f).
///
/// Semantics (shared by every implementation here, and by the scalar loop
/// inside TrieIndex::SuffixMinDist):
///   - best_sq = min over j in [begin, end) of PlaneMinDistSq(rect, p_j);
///   - first_within = the smallest j whose distance passes the squared
///     pre-filter (dsq <= limit_sq_ub) AND the exact sqrt re-test
///     (sqrt(dsq) <= limit); `end` when no point qualifies;
///   - the scan may stop early once best_sq == 0 and first_within is set
///     (neither output can change after that point).
///
/// Bit-identity with the scalar loop is a hard contract — CollectCandidates
/// must emit exactly the reference traversal's candidate sets:
///   - each element's dsq is computed with the same operation sequence
///     (sub, max-with-zero, mul, add); the AVX2 body uses explicit
///     intrinsics, which the compiler may not contract into FMA, so the
///     rounding of every intermediate matches the scalar build;
///   - min over doubles (no NaNs here: inputs are finite coordinates) is
///     associative and commutative, so folding four lanes at the end gives
///     the same minimum as the scalar left-to-right fold;
///   - the sqrt re-test runs in scalar std::sqrt (correctly rounded) on the
///     candidate lanes in index order, so first_within resolves to the same
///     index the scalar loop finds.
struct SuffixScanResult {
  double best_sq;
  size_t first_within;
};

/// Scalar reference kernel; mirrors the loop body of
/// TrieIndex::SuffixMinDist op for op.
inline SuffixScanResult SuffixScanScalar(const double* xs, const double* ys,
                                         size_t begin, size_t end, double xlo,
                                         double ylo, double xhi, double yhi,
                                         double limit, double limit_sq_ub) {
  double best_sq = std::numeric_limits<double>::infinity();
  size_t first_within = end;
  for (size_t j = begin; j < end; ++j) {
    const double dx = std::max({xlo - xs[j], 0.0, xs[j] - xhi});
    const double dy = std::max({ylo - ys[j], 0.0, ys[j] - yhi});
    const double dsq = dx * dx + dy * dy;
    best_sq = std::min(best_sq, dsq);
    if (first_within == end && dsq <= limit_sq_ub && std::sqrt(dsq) <= limit) {
      first_within = j;
    }
    if (best_sq == 0.0 && first_within != end) break;
  }
  return {best_sq, first_within};
}

#if DITA_BATCH_SCAN_AVX2
/// Four points per iteration. Compiled with a per-function target attribute
/// so the translation unit keeps its baseline ISA; callers must gate on
/// __builtin_cpu_supports("avx2") (SuffixScan below does).
__attribute__((target("avx2"))) inline SuffixScanResult SuffixScanAvx2(
    const double* xs, const double* ys, size_t begin, size_t end, double xlo,
    double ylo, double xhi, double yhi, double limit, double limit_sq_ub) {
  double best_sq = std::numeric_limits<double>::infinity();
  size_t first_within = end;
  size_t j = begin;
  bool done = false;
  if (j + 4 <= end) {
    const __m256d vxlo = _mm256_set1_pd(xlo);
    const __m256d vylo = _mm256_set1_pd(ylo);
    const __m256d vxhi = _mm256_set1_pd(xhi);
    const __m256d vyhi = _mm256_set1_pd(yhi);
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vub = _mm256_set1_pd(limit_sq_ub);
    __m256d vbest = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    for (; j + 4 <= end; j += 4) {
      const __m256d px = _mm256_loadu_pd(xs + j);
      const __m256d py = _mm256_loadu_pd(ys + j);
      const __m256d dx = _mm256_max_pd(
          _mm256_max_pd(_mm256_sub_pd(vxlo, px), vzero), _mm256_sub_pd(px, vxhi));
      const __m256d dy = _mm256_max_pd(
          _mm256_max_pd(_mm256_sub_pd(vylo, py), vzero), _mm256_sub_pd(py, vyhi));
      const __m256d dsq =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      vbest = _mm256_min_pd(vbest, dsq);
      if (first_within == end) {
        const int within =
            _mm256_movemask_pd(_mm256_cmp_pd(dsq, vub, _CMP_LE_OQ));
        if (within != 0) {
          alignas(32) double lanes[4];
          _mm256_store_pd(lanes, dsq);
          for (int l = 0; l < 4; ++l) {
            if (((within >> l) & 1) != 0 && std::sqrt(lanes[l]) <= limit) {
              first_within = j + l;
              break;
            }
          }
        }
      }
      if (first_within != end &&
          _mm256_movemask_pd(_mm256_cmp_pd(dsq, vzero, _CMP_EQ_OQ)) != 0) {
        done = true;  // a zero joined the min; nothing left to learn
        break;
      }
    }
    alignas(32) double fold[4];
    _mm256_store_pd(fold, vbest);
    best_sq = std::min(std::min(fold[0], fold[1]), std::min(fold[2], fold[3]));
  }
  if (!done) {
    for (; j < end; ++j) {
      const double dx = std::max({xlo - xs[j], 0.0, xs[j] - xhi});
      const double dy = std::max({ylo - ys[j], 0.0, ys[j] - yhi});
      const double dsq = dx * dx + dy * dy;
      best_sq = std::min(best_sq, dsq);
      if (first_within == end && dsq <= limit_sq_ub &&
          std::sqrt(dsq) <= limit) {
        first_within = j;
      }
      if (best_sq == 0.0 && first_within != end) break;
    }
  }
  return {best_sq, first_within};
}
#endif  // DITA_BATCH_SCAN_AVX2

/// Sibling-sweep distance kernel: one test rectangle (a query's front/back
/// point or its current suffix MBR) against `cnt` consecutive trie children
/// whose planes live in the SoA arrays xlo/ylo/xhi/yhi (pass base pointers
/// offset to the first child). Writes
///   d_out[i] = sqrt(max(xlo[i]-ax, 0, bx-xhi[i])^2
///                 + max(ylo[i]-ay, 0, by-yhi[i])^2).
/// Point tests pass ax=bx=px (and ay=by=py); rect tests pass the rect's hi
/// corner as (ax,ay) and lo corner as (bx,by) — exactly the operand order
/// of the scalar max({lo-a, 0, b-hi}) forms in TrieIndex's node tests, so
/// with correctly-rounded _mm256_sqrt_pd every lane is bit-identical to the
/// scalar computation.
inline void ChildPlaneDistsScalar(const double* xlo, const double* ylo,
                                  const double* xhi, const double* yhi,
                                  size_t cnt, double ax, double ay, double bx,
                                  double by, double* d_out) {
  for (size_t i = 0; i < cnt; ++i) {
    const double dx = std::max({xlo[i] - ax, 0.0, bx - xhi[i]});
    const double dy = std::max({ylo[i] - ay, 0.0, by - yhi[i]});
    d_out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

#if DITA_BATCH_SCAN_AVX2
__attribute__((target("avx2"))) inline void ChildPlaneDistsAvx2(
    const double* xlo, const double* ylo, const double* xhi, const double* yhi,
    size_t cnt, double ax, double ay, double bx, double by, double* d_out) {
  const __m256d vax = _mm256_set1_pd(ax);
  const __m256d vay = _mm256_set1_pd(ay);
  const __m256d vbx = _mm256_set1_pd(bx);
  const __m256d vby = _mm256_set1_pd(by);
  const __m256d vzero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= cnt; i += 4) {
    const __m256d dx = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(xlo + i), vax), vzero),
        _mm256_sub_pd(vbx, _mm256_loadu_pd(xhi + i)));
    const __m256d dy = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(ylo + i), vay), vzero),
        _mm256_sub_pd(vby, _mm256_loadu_pd(yhi + i)));
    _mm256_storeu_pd(
        d_out + i,
        _mm256_sqrt_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy))));
  }
  for (; i < cnt; ++i) {
    const double dx = std::max({xlo[i] - ax, 0.0, bx - xhi[i]});
    const double dy = std::max({ylo[i] - ay, 0.0, by - yhi[i]});
    d_out[i] = std::sqrt(dx * dx + dy * dy);
  }
}
#endif  // DITA_BATCH_SCAN_AVX2

inline void ChildPlaneDists(const double* xlo, const double* ylo,
                            const double* xhi, const double* yhi, size_t cnt,
                            double ax, double ay, double bx, double by,
                            double* d_out) {
#if DITA_BATCH_SCAN_AVX2
  static const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;
  if (kHaveAvx2) {
    ChildPlaneDistsAvx2(xlo, ylo, xhi, yhi, cnt, ax, ay, bx, by, d_out);
    return;
  }
#endif
  ChildPlaneDistsScalar(xlo, ylo, xhi, yhi, cnt, ax, ay, bx, by, d_out);
}

/// Runtime-dispatched scan: AVX2 when the CPU has it, scalar otherwise.
inline SuffixScanResult SuffixScan(const double* xs, const double* ys,
                                   size_t begin, size_t end, double xlo,
                                   double ylo, double xhi, double yhi,
                                   double limit, double limit_sq_ub) {
#if DITA_BATCH_SCAN_AVX2
  static const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;
  if (kHaveAvx2) {
    return SuffixScanAvx2(xs, ys, begin, end, xlo, ylo, xhi, yhi, limit,
                          limit_sq_ub);
  }
#endif
  return SuffixScanScalar(xs, ys, begin, end, xlo, ylo, xhi, yhi, limit,
                          limit_sq_ub);
}

}  // namespace dita

#endif  // DITA_INDEX_BATCH_SCAN_H_
