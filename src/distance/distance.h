#ifndef DITA_DISTANCE_DISTANCE_H_
#define DITA_DISTANCE_DISTANCE_H_

#include <memory>
#include <string>

#include "distance/dp_scratch.h"
#include "geom/soa.h"
#include "geom/trajectory.h"
#include "util/status.h"

namespace dita {

/// Trajectory similarity functions supported by DITA (§2.3, Appendix A).
enum class DistanceType { kDTW, kFrechet, kEDR, kLCSS, kERP };

/// How the trie index accumulates per-level MinDist values for a distance
/// function (Appendix A):
///  - kAccumulate: subtract each level's MinDist from the remaining threshold
///    (DTW, ERP — sums of point distances).
///  - kMax: keep the threshold; prune when a level's MinDist exceeds it
///    (Frechet — a max over the warping path).
///  - kEditCount: a level whose MinDist exceeds the matching epsilon costs one
///    edit; prune when the edit budget goes negative (EDR, LCSS).
enum class PruneMode { kAccumulate, kMax, kEditCount };

/// Tuning knobs for the edit-based and gap-based distances.
struct DistanceParams {
  /// Matching threshold epsilon for EDR / LCSS.
  double epsilon = 0.0001;
  /// Index constraint delta for LCSS (|i - j| <= delta).
  int delta = 3;
  /// Gap (reference) point g for ERP.
  Point erp_gap{0.0, 0.0};
};

/// Interface implemented by every similarity function. Implementations are
/// immutable and thread-safe; one instance is shared across workers.
class TrajectoryDistance {
 public:
  virtual ~TrajectoryDistance() = default;

  virtual DistanceType type() const = 0;
  virtual std::string name() const = 0;

  /// True for metric distances (Frechet); VP-tree requires a metric.
  virtual bool is_metric() const = 0;

  virtual PruneMode prune_mode() const = 0;

  /// Matching epsilon used by kEditCount distances; 0 otherwise.
  virtual double matching_epsilon() const { return 0.0; }

  /// Exact distance via the full dynamic program. Extracts both
  /// trajectories into this thread's SoA scratch lanes and runs the view
  /// kernel; allocation-free once the scratch has warmed up.
  double Compute(const Trajectory& t, const Trajectory& q) const;

  /// Threshold-aware test: returns true iff Compute(t, q) <= tau, but may
  /// abandon the dynamic program early once the result provably exceeds tau.
  /// Implementations must be exact (never prune a true answer).
  bool WithinThreshold(const Trajectory& t, const Trajectory& q,
                       double tau) const;

  /// Bounded exact distance: Compute(t, q) when it is <= bound, +inf
  /// otherwise. Like WithinThreshold it may abandon the dynamic program once
  /// the result provably exceeds the bound, so a candidate far outside the
  /// bound costs little. A DP cut short by cancellation also reads as +inf.
  double ComputeBounded(const Trajectory& t, const Trajectory& q,
                        double bound) const;

  /// Kernel entry points over flat SoA coordinate views. Hot paths (batch
  /// verification, kNN scoring) hold precomputed SoaTrajectory views and
  /// call these directly; `scratch` supplies the DP rows and is typically
  /// DpScratch::ThreadLocal().
  virtual double Compute(const TrajView& t, const TrajView& q,
                         DpScratch* scratch) const = 0;
  virtual bool WithinThreshold(const TrajView& t, const TrajView& q,
                               double tau, DpScratch* scratch) const;
  /// Default: WithinThreshold(bound) ? Compute : +inf. DTW overrides it
  /// with its windowed threshold kernel, whose final cell is the exact
  /// distance whenever it lies within the bound.
  virtual double ComputeBounded(const TrajView& t, const TrajView& q,
                                double bound, DpScratch* scratch) const;
};

/// Creates a distance instance. Returns InvalidArgument for unknown types.
Result<std::shared_ptr<TrajectoryDistance>> MakeDistance(
    DistanceType type, const DistanceParams& params = DistanceParams());

/// Parses "dtw" / "frechet" / "edr" / "lcss" / "erp" (case-insensitive).
Result<DistanceType> ParseDistanceType(const std::string& name);

const char* DistanceTypeName(DistanceType type);

}  // namespace dita

#endif  // DITA_DISTANCE_DISTANCE_H_
