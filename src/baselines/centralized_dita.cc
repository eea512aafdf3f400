#include "baselines/centralized_dita.h"

#include <algorithm>
#include <memory>

#include "distance/dp_scratch.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dita {

Status CentralizedDita::Build(const Dataset& data, const DitaConfig& config) {
  config_ = config;
  auto dist = MakeDistance(config.distance, config.distance_params);
  DITA_RETURN_IF_ERROR(dist.status());
  distance_ = *dist;
  verifier_ = std::make_unique<Verifier>(distance_, config_);

  WallTimer timer;
  // No cluster ledger here; the pool's only effect is wall-clock (and the
  // build is bit-identical to the serial one either way).
  std::unique_ptr<ThreadPool> pool;
  if (config.build.threads > 0) {
    pool = std::make_unique<ThreadPool>(config.build.threads);
  }
  DITA_RETURN_IF_ERROR(
      trie_.Build(data.trajectories(), config.build.trie, pool.get()));
  precomp_.clear();
  precomp_.resize(trie_.size());
  ThreadPool::ParallelFor(
      pool.get(), trie_.size(), /*min_parallel=*/64,
      [this](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          precomp_[i] = verifier_->Precompute(trie_.trajectories()[i]);
        }
      });
  build_seconds_ = timer.Seconds();
  return Status::OK();
}

Result<std::vector<TrajectoryId>> CentralizedDita::Search(
    const Trajectory& q, double tau, SearchStats* stats) const {
  if (verifier_ == nullptr) return Status::Internal("Search before Build");
  if (tau < 0) return Status::InvalidArgument("threshold must be non-negative");

  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.mode = distance_->prune_mode();
  spec.epsilon = distance_->matching_epsilon();
  if (config_.distance == DistanceType::kLCSS) {
    spec.lcss_delta = config_.distance_params.delta;
  }
  if (config_.distance == DistanceType::kERP) {
    spec.erp_gap = &config_.distance_params.erp_gap;
  }

  DpScratch& scratch = DpScratch::ThreadLocal();
  std::vector<uint32_t>& candidates = scratch.Candidates();
  candidates.clear();
  trie_.CollectCandidates(spec, &candidates);
  const VerifyPrecomp qp = verifier_->Precompute(q);

  SearchStats local;
  local.candidates = candidates.size();
  std::vector<uint32_t>& accepted = scratch.Accepted();
  accepted.clear();
  const Verifier::Batch batch{&precomp_, &candidates, &qp, tau};
  verifier_->VerifyBatch(batch, /*pool=*/nullptr, /*min_parallel=*/0,
                         &accepted, &local.verify);
  std::vector<TrajectoryId> out;
  out.reserve(accepted.size());
  for (uint32_t pos : accepted) out.push_back(trie_.trajectory(pos).id());
  if (stats != nullptr) *stats = local;
  std::sort(out.begin(), out.end());
  return out;
}

size_t CentralizedDita::ByteSize() const {
  size_t bytes = trie_.ByteSize();
  for (const VerifyPrecomp& vp : precomp_) bytes += vp.ByteSize();
  return bytes;
}

}  // namespace dita
