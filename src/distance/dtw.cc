#include "distance/dtw.h"

#include "distance/kernels.h"

namespace dita {

double Dtw::Compute(const TrajView& t, const TrajView& q,
                    DpScratch* scratch) const {
  return kernels::DtwCompute(t, q, *scratch);
}

bool Dtw::WithinThreshold(const TrajView& t, const TrajView& q, double tau,
                          DpScratch* scratch) const {
  return kernels::DtwWithin(t, q, tau, *scratch);
}

double Dtw::ComputeBounded(const TrajView& t, const TrajView& q, double bound,
                           DpScratch* scratch) const {
  return kernels::DtwBounded(t, q, bound, *scratch);
}

double Dtw::AccumulatedMinDistance(const Trajectory& t, const Trajectory& q) {
  DpScratch& scratch = DpScratch::ThreadLocal();
  const TrajView tv = scratch.ExtractA(t);
  const TrajView qv = scratch.ExtractB(q);
  return kernels::DtwAmd(tv, qv);
}

}  // namespace dita
