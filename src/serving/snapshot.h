#ifndef DITA_SERVING_SNAPSHOT_H_
#define DITA_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "geom/trajectory.h"
#include "index/signature.h"

namespace dita {

/// One immutable, consistent view of a served trajectory table: a base
/// engine (the flat trie / R-tree indexes of some epoch) plus the delta that
/// has accumulated on top of it — trajectories inserted since the epoch's
/// rebuild and base ids deleted since then. Queries pin a snapshot (one
/// shared_ptr copy) for their whole lifetime, so concurrent ingest and epoch
/// merges never change what an in-flight query sees; writers publish a new
/// snapshot instead of mutating this one (copy-on-write — the base engine
/// and base-id set are shared across versions of an epoch, only the small
/// delta vectors are copied per write).
///
/// Invariants, maintained by DitaService's write path:
///  - `deleted` is a subset of `base_ids` (a deleted pending insert is
///    removed from `inserts` directly, it never reaches `deleted`);
///  - ids of `inserts` are disjoint from the live base ids
///    (`base_ids` minus `deleted`) and pairwise distinct;
///  - the live set is exactly (base_ids \ deleted) ∪ ids(inserts).
struct TableSnapshot {
  /// Base-index generation: bumped by every epoch merge (rebuild), never by
  /// plain ingest. ExplainLastQuery reports the epoch a query ran against.
  uint64_t epoch = 0;
  /// Publish counter: bumped by every ingest operation *and* every merge,
  /// so equal versions imply identical live sets.
  uint64_t version = 0;

  /// The epoch's immutable base index; null when the base is empty (fresh
  /// service started without data, or a merge deleted everything). The
  /// engine is built with admission disabled — DitaService's scheduler owns
  /// admission, and double-gating would deadlock composed queries. Its
  /// tries own the base trajectories: the next epoch merge rebuilds from
  /// (base's trajectories \ deleted) + inserts.
  std::shared_ptr<const DitaEngine> base;
  /// Ids of the trajectories `base` indexes, for O(1) liveness checks.
  std::shared_ptr<const std::unordered_set<TrajectoryId>> base_ids;

  /// Delta: inserted since the epoch's rebuild, in insertion order (queries
  /// scan these linearly; merges append them to the new base in this
  /// order), and base ids deleted since the rebuild.
  std::vector<Trajectory> inserts;
  std::unordered_set<TrajectoryId> deleted;
  /// Level-0 sketches of `inserts`, parallel by index, quantized in the
  /// epoch base engine's SigGrid frame at Insert time (all-zero when the
  /// base has no grid or the metric is non-geometric). The write path keeps
  /// this in lockstep with `inserts` — including the mid-merge replay,
  /// which re-quantizes against the *new* base's frame — so the delta scan
  /// runs the same sketch prune as the indexed path without re-quantizing
  /// per query.
  std::vector<TrajSignature> insert_sigs;

  size_t base_size() const { return base_ids == nullptr ? 0 : base_ids->size(); }

  /// Trajectories a query over this snapshot answers about.
  size_t live_size() const {
    return base_size() - deleted.size() + inserts.size();
  }

  /// Delta operations accumulated since the epoch's rebuild; once this
  /// crosses ServingOptions::merge_threshold the service schedules a merge.
  size_t delta_ops() const { return inserts.size() + deleted.size(); }

  bool InBase(TrajectoryId id) const {
    return base_ids != nullptr && base_ids->count(id) > 0;
  }

  bool IsLive(TrajectoryId id) const {
    if (InBase(id)) return deleted.count(id) == 0;
    for (const Trajectory& t : inserts) {
      if (t.id() == id) return true;
    }
    return false;
  }
};

}  // namespace dita

#endif  // DITA_SERVING_SNAPSHOT_H_
