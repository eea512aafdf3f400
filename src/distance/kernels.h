#ifndef DITA_DISTANCE_KERNELS_H_
#define DITA_DISTANCE_KERNELS_H_

#include <cmath>
#include <cstddef>

#include "distance/dp_scratch.h"
#include "geom/point.h"
#include "geom/soa.h"

namespace dita {
namespace kernels {

/// Classifies a squared point distance against a threshold eps while almost
/// never taking a square root. Squared comparison is conclusive outside a
/// narrow relative band around eps^2 (1e-12, thousands of double ulps wide —
/// far beyond the rounding error of one multiply plus one sqrt, so both
/// shortcuts are safe); inside the band we fall back to the exact sqrt
/// comparison, keeping Within() bit-compatible with
/// `std::sqrt(dist_sq) <= eps` everywhere, including exact boundaries.
struct SqThreshold {
  double eps = 0.0;
  double definitely_le = 0.0;  // dist_sq <= this  =>  sqrt(dist_sq) <= eps
  double definitely_gt = 0.0;  // dist_sq >= this  =>  sqrt(dist_sq) >  eps

  static SqThreshold For(double eps) {
    SqThreshold t;
    t.eps = eps;
    if (eps < 0.0) {
      // A negative threshold matches nothing (distances are >= 0).
      t.definitely_le = -1.0;
      t.definitely_gt = 0.0;
      return t;
    }
    const double eps_sq = eps * eps;
    t.definitely_le = eps_sq * (1.0 - 1e-12);
    t.definitely_gt = eps_sq * (1.0 + 1e-12);
    return t;
  }

  /// Exactly equivalent to std::sqrt(dist_sq) <= eps for dist_sq >= 0.
  bool Within(double dist_sq) const {
    if (dist_sq <= definitely_le) return true;
    if (dist_sq >= definitely_gt) return false;
    return std::sqrt(dist_sq) <= eps;
  }
};

/// The DP kernels behind the five TrajectoryDistance implementations. All of
/// them run over SoA views with rows and per-row distance lanes borrowed from
/// `s`; none allocate once the scratch has grown to the largest trajectory a
/// thread has seen. Each is bit-compatible with the pre-kernel reference
/// implementation (see DESIGN.md for the per-metric argument).
double DtwCompute(const TrajView& a, const TrajView& b, DpScratch& s);
/// Exact DTW when it is <= tau, else +inf (also on a cancelled DP). The
/// windowed threshold kernel; DtwWithin is `DtwBounded <= tau`.
double DtwBounded(const TrajView& a, const TrajView& b, double tau,
                  DpScratch& s);
bool DtwWithin(const TrajView& a, const TrajView& b, double tau, DpScratch& s);
/// AMD lower bound (Lemma 4.1): squared min per row, one sqrt per row.
double DtwAmd(const TrajView& a, const TrajView& b);

double FrechetCompute(const TrajView& a, const TrajView& b, DpScratch& s);
bool FrechetWithin(const TrajView& a, const TrajView& b, double tau,
                   DpScratch& s);

double EdrCompute(const TrajView& a, const TrajView& b, double epsilon,
                  DpScratch& s);
bool EdrWithin(const TrajView& a, const TrajView& b, double epsilon,
               double tau, DpScratch& s);

size_t LcssSimilarity(const TrajView& a, const TrajView& b, double epsilon,
                      long delta, DpScratch& s);
bool LcssWithin(const TrajView& a, const TrajView& b, double epsilon,
                long delta, double tau, DpScratch& s);

double ErpCompute(const TrajView& a, const TrajView& b, const Point& gap,
                  DpScratch& s);
bool ErpWithin(const TrajView& a, const TrajView& b, const Point& gap,
               double tau, DpScratch& s);

}  // namespace kernels
}  // namespace dita

#endif  // DITA_DISTANCE_KERNELS_H_
