#ifndef DITA_GEOM_SOA_H_
#define DITA_GEOM_SOA_H_

#include <cstddef>
#include <vector>

#include "geom/trajectory.h"

namespace dita {

/// Non-owning structure-of-arrays view of a trajectory's coordinates. The
/// distance kernels iterate xs/ys as contiguous lanes, so their row-distance
/// passes are unit-stride scans the compiler can vectorize instead of
/// strided gathers over Point structs.
struct TrajView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  size_t len = 0;

  bool empty() const { return len == 0; }
};

/// Owning SoA copy of a trajectory's coordinates. Extracted once per indexed
/// trajectory (into VerifyPrecomp, at index-build time) so verification never
/// re-walks the Point array; ad-hoc callers extract into DpScratch lanes
/// instead. Both lanes share one heap buffer — xs in its first half, ys in
/// its second — so an indexed trajectory costs one allocation, not two.
class SoaTrajectory {
 public:
  SoaTrajectory() = default;
  explicit SoaTrajectory(const Trajectory& t) { Assign(t); }

  void Assign(const Trajectory& t) {
    const auto& pts = t.points();
    const size_t n = pts.size();
    lanes_.resize(2 * n);
    for (size_t i = 0; i < n; ++i) {
      lanes_[i] = pts[i].x;
      lanes_[n + i] = pts[i].y;
    }
  }

  TrajView view() const {
    const size_t n = size();
    return TrajView{lanes_.data(), lanes_.data() + n, n};
  }
  size_t size() const { return lanes_.size() / 2; }
  bool empty() const { return lanes_.empty(); }

  /// Heap bytes held by the coordinate lanes; counted into
  /// IndexStats::local_index_bytes so index-size reporting stays honest.
  size_t ByteSize() const { return lanes_.capacity() * sizeof(double); }

 private:
  std::vector<double> lanes_;
};

}  // namespace dita

#endif  // DITA_GEOM_SOA_H_
