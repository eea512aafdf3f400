#include "distance/distance.h"

#include <limits>

#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/erp.h"
#include "distance/frechet.h"
#include "distance/lcss.h"
#include "util/string_util.h"

namespace dita {

double TrajectoryDistance::Compute(const Trajectory& t,
                                   const Trajectory& q) const {
  DpScratch& scratch = DpScratch::ThreadLocal();
  const TrajView tv = scratch.ExtractA(t);
  const TrajView qv = scratch.ExtractB(q);
  return Compute(tv, qv, &scratch);
}

bool TrajectoryDistance::WithinThreshold(const Trajectory& t,
                                         const Trajectory& q,
                                         double tau) const {
  DpScratch& scratch = DpScratch::ThreadLocal();
  const TrajView tv = scratch.ExtractA(t);
  const TrajView qv = scratch.ExtractB(q);
  return WithinThreshold(tv, qv, tau, &scratch);
}

double TrajectoryDistance::ComputeBounded(const Trajectory& t,
                                          const Trajectory& q,
                                          double bound) const {
  DpScratch& scratch = DpScratch::ThreadLocal();
  const TrajView tv = scratch.ExtractA(t);
  const TrajView qv = scratch.ExtractB(q);
  return ComputeBounded(tv, qv, bound, &scratch);
}

bool TrajectoryDistance::WithinThreshold(const TrajView& t, const TrajView& q,
                                         double tau,
                                         DpScratch* scratch) const {
  return Compute(t, q, scratch) <= tau;
}

double TrajectoryDistance::ComputeBounded(const TrajView& t, const TrajView& q,
                                          double bound,
                                          DpScratch* scratch) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // An unbounded call is the plain DP (and keeps tau = inf out of the
  // threshold kernels, whose band widths assume a finite tau).
  if (bound == kInf) return Compute(t, q, scratch);
  return WithinThreshold(t, q, bound, scratch) ? Compute(t, q, scratch) : kInf;
}

Result<std::shared_ptr<TrajectoryDistance>> MakeDistance(
    DistanceType type, const DistanceParams& params) {
  switch (type) {
    case DistanceType::kDTW:
      return std::shared_ptr<TrajectoryDistance>(std::make_shared<Dtw>());
    case DistanceType::kFrechet:
      return std::shared_ptr<TrajectoryDistance>(std::make_shared<Frechet>());
    case DistanceType::kEDR:
      if (params.epsilon < 0) {
        return Status::InvalidArgument("EDR epsilon must be non-negative");
      }
      return std::shared_ptr<TrajectoryDistance>(
          std::make_shared<Edr>(params.epsilon));
    case DistanceType::kLCSS:
      if (params.epsilon < 0 || params.delta < 0) {
        return Status::InvalidArgument(
            "LCSS epsilon and delta must be non-negative");
      }
      return std::shared_ptr<TrajectoryDistance>(
          std::make_shared<Lcss>(params.epsilon, params.delta));
    case DistanceType::kERP:
      return std::shared_ptr<TrajectoryDistance>(
          std::make_shared<Erp>(params.erp_gap));
  }
  return Status::InvalidArgument("unknown distance type");
}

Result<DistanceType> ParseDistanceType(const std::string& name) {
  const std::string upper = StrToUpper(name);
  if (upper == "DTW") return DistanceType::kDTW;
  if (upper == "FRECHET") return DistanceType::kFrechet;
  if (upper == "EDR") return DistanceType::kEDR;
  if (upper == "LCSS") return DistanceType::kLCSS;
  if (upper == "ERP") return DistanceType::kERP;
  return Status::InvalidArgument("unknown distance function: " + name);
}

const char* DistanceTypeName(DistanceType type) {
  switch (type) {
    case DistanceType::kDTW:
      return "DTW";
    case DistanceType::kFrechet:
      return "Frechet";
    case DistanceType::kEDR:
      return "EDR";
    case DistanceType::kLCSS:
      return "LCSS";
    case DistanceType::kERP:
      return "ERP";
  }
  return "Unknown";
}

}  // namespace dita
