#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/global_index.h"
#include "core/partitioner.h"
#include "core/verifier.h"
#include "index/signature.h"
#include "index/trie_index.h"

namespace perfbench {

using dita::DistanceType;
using dita::Trajectory;
using dita::TrajectoryId;

namespace {

class LayerReplay {
 public:
  explicit LayerReplay(const dita::DitaConfig& config);

  void Build(const std::vector<Trajectory>& data, Tracer* tracer);

  /// Threshold search through the layers; returns the ids in ascending
  /// order and appends the trie survivors to `candidates`.
  std::vector<TrajectoryId> Search(
      const Trajectory& q, double tau, Tracer* tracer,
      std::vector<const Trajectory*>* candidates) const;

  const dita::TrajectoryDistance& distance() const { return *distance_; }

 private:
  struct Part {
    dita::TrieIndex trie;
    std::vector<dita::VerifyPrecomp> precomp;
    dita::TrajSignature agg;
  };

  bool SketchActive() const;

  dita::DitaConfig config_;
  std::shared_ptr<dita::TrajectoryDistance> distance_;
  std::unique_ptr<dita::Verifier> verifier_;
  dita::SigGrid grid_;
  std::vector<Part> parts_;
  dita::GlobalIndex global_;
};

LayerReplay::LayerReplay(const dita::DitaConfig& config) : config_(config) {
  auto d = dita::MakeDistance(config.distance, config.distance_params);
  if (!d.ok()) Die("replay: " + d.status().ToString());
  distance_ = *d;
  verifier_ = std::make_unique<dita::Verifier>(distance_, config_);
}

bool LayerReplay::SketchActive() const {
  return config_.verify.enable_sketch && grid_.valid() &&
         (config_.distance == DistanceType::kDTW ||
          config_.distance == DistanceType::kFrechet);
}

void LayerReplay::Build(const std::vector<Trajectory>& data, Tracer* tracer) {
  auto parts = [&] {
    Tracer::Scope s(tracer, "PartitionByFirstLast");
    return dita::PartitionByFirstLast(data, config_.build.ng);
  }();
  if (!parts.ok()) Die("replay partition: " + parts.status().ToString());

  dita::MBR data_mbr;
  for (const auto& part : *parts) {
    for (const Trajectory& t : part) {
      for (const dita::Point& p : t.points()) data_mbr.Expand(p);
    }
  }
  grid_ = data_mbr.empty() ? dita::SigGrid{} : dita::SigGrid::For(data_mbr);

  parts_.clear();
  parts_.resize(parts->size());
  std::vector<dita::GlobalIndex::PartitionSummary> summaries(parts->size());
  for (size_t p = 0; p < parts->size(); ++p) {
    for (const Trajectory& t : (*parts)[p]) {
      summaries[p].mbr_first.Expand(t.front());
      summaries[p].mbr_last.Expand(t.back());
    }
    Part& part = parts_[p];
    {
      Tracer::Scope s(tracer, "TrieIndex::Build");
      const dita::Status st =
          part.trie.Build(std::move((*parts)[p]), config_.build.trie);
      if (!st.ok()) Die("replay trie build: " + st.ToString());
    }
    Tracer::Scope s(tracer, "VerifyPrecomp::For");
    part.precomp.reserve(part.trie.size());
    for (const Trajectory& t : part.trie.trajectories()) {
      part.precomp.push_back(
          dita::VerifyPrecomp::For(t, config_.verify.cell_size, &grid_));
      dita::AggregateSignature(part.precomp.back().sig, &part.agg);
    }
  }
  Tracer::Scope s(tracer, "GlobalIndex::Build");
  global_.Build(std::move(summaries));
}

std::vector<TrajectoryId> LayerReplay::Search(
    const Trajectory& q, double tau, Tracer* tracer,
    std::vector<const Trajectory*>* candidates) const {
  const dita::Point* erp_gap = config_.distance == DistanceType::kERP
                                   ? &config_.distance_params.erp_gap
                                   : nullptr;
  std::vector<uint32_t> relevant;
  {
    Tracer::Scope s(tracer, "GlobalIndex::RelevantPartitions");
    relevant = global_.RelevantPartitions(q, tau, distance_->prune_mode(),
                                          distance_->matching_epsilon(),
                                          erp_gap);
  }
  const dita::VerifyPrecomp qp =
      dita::VerifyPrecomp::For(q, config_.verify.cell_size);
  const bool sketch = SketchActive();
  dita::SigBits dilated;
  if (sketch) {
    dilated = dita::Dilate(dita::BuildSignature(q, grid_).bits, grid_, tau);
    std::erase_if(relevant, [&](uint32_t pid) {
      const dita::SigBits& agg = parts_[pid].agg.bits;
      return !agg.Empty() && !agg.Intersects(dilated);
    });
  }

  dita::TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.mode = distance_->prune_mode();
  spec.epsilon = distance_->matching_epsilon();
  if (config_.distance == DistanceType::kLCSS) {
    spec.lcss_delta = config_.distance_params.delta;
  }
  spec.erp_gap = erp_gap;

  std::vector<TrajectoryId> ids;
  std::vector<uint32_t> cand;
  std::vector<uint32_t> accepted;
  for (const uint32_t pid : relevant) {
    const Part& part = parts_[pid];
    cand.clear();
    {
      Tracer::Scope s(tracer, "TrieIndex::CollectCandidates");
      part.trie.CollectCandidates(spec, &cand);
    }
    for (const uint32_t pos : cand) {
      candidates->push_back(&part.trie.trajectory(pos));
    }
    accepted.clear();
    const dita::Verifier::Batch batch{&part.precomp, &cand, &qp, tau,
                                      sketch ? &dilated : nullptr, nullptr};
    dita::VerifyStats vstats;
    {
      Tracer::Scope s(tracer, "Verifier::VerifyBatch");
      verifier_->VerifyBatch(batch, nullptr, config_.verify.parallel_min,
                             &accepted, &vstats);
    }
    for (const uint32_t pos : accepted) {
      ids.push_back(part.trie.trajectory(pos).id());
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Times the full DP (TrajectoryDistance::Compute) and the thresholded
/// test (WithinThreshold at `tau`) on `pairs` (candidate, query).
void TimeDistance(
    const dita::TrajectoryDistance& distance,
    const std::vector<std::pair<const Trajectory*, const Trajectory*>>& pairs,
    double tau, Tracer* tracer, std::map<std::string, double>* m) {
  if (pairs.empty()) return;
  double cells = 0.0;
  double sink = 0.0;
  double t0 = Now();
  {
    Tracer::Scope s(tracer, "TrajectoryDistance::Compute");
    for (const auto& [t, q] : pairs) {
      sink += distance.Compute(*t, *q);
      cells += static_cast<double>(t->size() * q->size());
    }
  }
  const double compute_s = Now() - t0;
  size_t within = 0;
  {
    Tracer::Scope s(tracer, "TrajectoryDistance::WithinThreshold");
    for (const auto& [t, q] : pairs) within += distance.WithinThreshold(*t, *q, tau);
  }
  // Using both results keeps the timed calls from being optimized away.
  if (!(sink >= 0.0) || within > pairs.size()) Die("distance sweep broke");
  (*m)["distance.dp_ns_per_cell"] = compute_s * 1e9 / cells;
  (*m)["distance.exact_ns_per_pair"] =
      compute_s * 1e9 / static_cast<double>(pairs.size());
}

}  // namespace

void ReplayMetrics(const dita::DitaConfig& config,
                   const std::vector<Trajectory>& data,
                   const std::vector<ReplayQuery>& queries,
                   size_t distance_queries, double distance_tau,
                   Tracer* tracer, std::map<std::string, double>* m) {
  LayerReplay replay(config);
  replay.Build(data, tracer);
  size_t mismatches = 0, candidates = 0;
  std::vector<std::pair<const Trajectory*, const Trajectory*>> pairs;
  for (size_t j = 0; j < queries.size(); ++j) {
    const ReplayQuery& rq = queries[j];
    std::vector<const Trajectory*> cands;
    if (replay.Search(*rq.query, rq.tau, tracer, &cands) != rq.expected) {
      ++mismatches;
    }
    candidates += cands.size();
    if (j >= distance_queries) continue;
    for (const Trajectory* c : cands) pairs.push_back({c, rq.query});
  }
  TimeDistance(replay.distance(), pairs, distance_tau, tracer, m);

  const double nq = static_cast<double>(queries.size());
  const auto total_us = [&](const char* span) {
    return tracer->Summarize(span).total_s * 1e6 / nq;
  };
  (*m)["harness.replay_queries"] = nq;
  (*m)["harness.replay_mismatches"] = static_cast<double>(mismatches);
  (*m)["index.partition_s"] = tracer->Summarize("PartitionByFirstLast").total_s;
  (*m)["index.trie_build_s"] = tracer->Summarize("TrieIndex::Build").total_s;
  (*m)["index.global_probe_us"] = total_us("GlobalIndex::RelevantPartitions");
  (*m)["index.trie_collect_us"] = total_us("TrieIndex::CollectCandidates");
  (*m)["index.trie_candidates_per_query"] =
      static_cast<double>(candidates) / nq;
  (*m)["core.verify_batch_us"] = total_us("Verifier::VerifyBatch");
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: layer replay disagrees with the engine on %zu "
                 "queries; per-layer numbers are invalid\n",
                 mismatches);
  }
}

}  // namespace perfbench
