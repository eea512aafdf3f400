#ifndef DITA_DISTANCE_DTW_H_
#define DITA_DISTANCE_DTW_H_

#include "distance/distance.h"

namespace dita {

/// Dynamic Time Warping (Definition 2.2), the paper's default distance.
/// WithinThreshold runs a threshold-aware dynamic program (§5.3.3): the
/// double-direction anchor bound rejects cheaply, then a single forward pass
/// keeps only the per-row window of columns that can still lie on a path of
/// cost <= tau (every continuation must pay the last anchor distance).
/// That kernel's final cell is the exact distance, so ComputeBounded and
/// WithinThreshold are one kernel body.
class Dtw : public TrajectoryDistance {
 public:
  using TrajectoryDistance::Compute;
  using TrajectoryDistance::WithinThreshold;
  using TrajectoryDistance::ComputeBounded;

  DistanceType type() const override { return DistanceType::kDTW; }
  std::string name() const override { return "DTW"; }
  bool is_metric() const override { return false; }
  PruneMode prune_mode() const override { return PruneMode::kAccumulate; }

  double Compute(const TrajView& t, const TrajView& q,
                 DpScratch* scratch) const override;
  bool WithinThreshold(const TrajView& t, const TrajView& q, double tau,
                       DpScratch* scratch) const override;
  double ComputeBounded(const TrajView& t, const TrajView& q, double bound,
                        DpScratch* scratch) const override;

  /// Accumulated minimum distance AMD (Lemma 4.1): an O(mn) lower bound on
  /// DTW. Exposed for tests and ablations.
  static double AccumulatedMinDistance(const Trajectory& t, const Trajectory& q);
};

}  // namespace dita

#endif  // DITA_DISTANCE_DTW_H_
