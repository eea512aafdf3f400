// The traced run's layer replay: the engine's threshold search rebuilt from
// the public functions of each layer (partition -> global index -> trie ->
// verify), with a span around every layer call. Its answers must equal the
// engine's for every replayed query; otherwise the per-layer numbers it
// produces do not describe the engine and are reported as invalid.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "geom/trajectory.h"
#include "harness.h"

namespace perfbench {

/// One replayed threshold search and the engine's answer to it.
struct ReplayQuery {
  const dita::Trajectory* query = nullptr;
  double tau = 0.0;
  std::vector<dita::TrajectoryId> expected;  // ascending
};

/// Builds the layers on `data` as DitaEngine::BuildIndex does
/// (PartitionByFirstLast, TrieIndex::Build per partition, verification
/// summaries, the global index), answers every query through them and
/// compares the ids with the engine's. Then times the distance layer
/// (TrajectoryDistance::Compute and WithinThreshold at `distance_tau`) on
/// the trie survivors of the first `distance_queries` queries. Fills
/// index.*, core.verify_batch_us, distance.* and harness.replay_*.
void ReplayMetrics(const dita::DitaConfig& config,
                   const std::vector<dita::Trajectory>& data,
                   const std::vector<ReplayQuery>& queries,
                   size_t distance_queries, double distance_tau,
                   Tracer* tracer, std::map<std::string, double>* m);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
