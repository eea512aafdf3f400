#ifndef DITA_CORE_ENGINE_H_
#define DITA_CORE_ENGINE_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/admission.h"
#include "core/config.h"
#include "core/global_index.h"
#include "core/verifier.h"
#include "distance/distance.h"
#include "index/trie_index.h"
#include "obs/funnel.h"
#include "obs/lifecycle.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"

namespace dita {

class DitaEngine;
class DitaService;

/// Statistics captured while building the index (Table 5 rows).
struct IndexStats {
  double build_seconds = 0.0;
  size_t num_partitions = 0;
  size_t num_trajectories = 0;
  size_t global_index_bytes = 0;
  size_t local_index_bytes = 0;
  /// Bytes held by the level-0 sketch tier (per-trajectory signatures plus
  /// per-partition aggregates; DESIGN.md §5g).
  size_t sketch_bytes = 0;
  /// Bytes of Lemma 5.6 cell summaries, included in local_index_bytes; 0
  /// unless verify.enable_cell.
  size_t cell_bytes = 0;
};

/// Per-query observability (Figs. 7-8, 17).
struct QueryStats {
  double makespan_seconds = 0.0;
  size_t partitions_probed = 0;
  size_t candidates = 0;
  VerifyStats verify;
  size_t results = 0;
  /// Fault handling this query triggered (retries, recoveries, backups).
  FaultStats faults;
  /// Survivors at each pruning level, table -> global index -> trie
  /// levels -> MBR coverage -> cell bound -> threshold DP. Monotonically
  /// non-increasing; the last level equals `results`.
  obs::FilterFunnel funnel;
  /// How the query ended. OK means it ran to completion; kCancelled /
  /// kDeadlineExceeded / kResourceExhausted mean the returned results are
  /// a *partial* answer — a correct subset of the full one — produced by
  /// graceful degradation under a QueryContext stop.
  Status termination;
  /// Fraction of the query's relevant population that was fully searched
  /// before it stopped; 1.0 for complete queries. (For kNN: fraction of
  /// the requested k that was found.)
  double completeness = 1.0;
  /// Wall-clock seconds spent queued at the engine's admission gate (0 when
  /// the gate is off). Reported even when the query was shed or abandoned
  /// its queue slot — see AdmissionGate::Admit.
  double admission_wait_seconds = 0.0;
};

/// Per-join observability (Figs. 9-11, 16).
struct JoinStats {
  double makespan_seconds = 0.0;
  double load_ratio = 1.0;
  uint64_t bytes_shipped = 0;
  size_t graph_edges = 0;
  size_t divided_partitions = 0;
  size_t candidate_pairs = 0;
  size_t result_pairs = 0;
  /// Verification-pipeline counters in pair units (mirrors
  /// QueryStats::verify; pairs == candidate_pairs, accepted ==
  /// result_pairs).
  VerifyStats verify;
  /// Fault handling this join triggered (retries, recoveries, backups).
  FaultStats faults;
  /// Survivors at each pruning level, in trajectory-pair units: |T| x |Q|
  /// -> partition graph -> ship relevance -> trie candidates -> MBR ->
  /// cell -> accepted. Monotonically non-increasing; ends at
  /// `result_pairs`.
  obs::FilterFunnel funnel;
  /// How the join ended (see QueryStats::termination): non-OK means the
  /// returned pairs are a correct subset of the full join result.
  Status termination;
  /// Fraction of the join's partition-pair edges whose probe completed;
  /// 1.0 for complete joins.
  double completeness = 1.0;
};

/// The kind of query a QueryRequest carries.
enum class QueryKind { kSearch, kJoin, kKnnSearch };

/// One query, in the unified request format every layer speaks: the engine
/// executes it (Execute), DitaService schedules it across concurrent
/// requests and runs it against an epoch snapshot, and the SQL/DataFrame
/// layer translates statements into it. The legacy Search / Join /
/// KnnSearch signatures are thin wrappers that build one of these.
struct QueryRequest {
  QueryKind kind = QueryKind::kSearch;

  /// The query trajectory (kSearch / kKnnSearch). Owned, so asynchronous
  /// executors (DitaService::Submit) need no external lifetime contract.
  Trajectory query;

  /// Similarity threshold tau (kSearch / kJoin).
  double tau = 0.0;

  /// Neighbor count (kKnnSearch) and optional expansion seed radius
  /// (0 picks a data-derived default).
  size_t k = 0;
  double initial_tau = 0.0;

  /// kJoin: the right-side table. Exactly one may be set; both null means
  /// self-join. The service-level pointer lets DitaService join two live
  /// tables delta-consistently; the engine-level pointer joins two static
  /// indexes.
  const DitaEngine* join_right = nullptr;
  const DitaService* join_right_service = nullptr;

  /// Scheduling class for DitaService's fair-share scheduler: 0 is the
  /// highest priority; higher values yield smaller shares.
  int priority = 1;

  /// Estimated cost in admission units for the gate / scheduler; 0 lets
  /// the engine estimate it from global-index statistics
  /// (EstimateQueryCost).
  uint64_t cost_hint = 0;

  /// Optional cooperative cancellation / deadline / budget token; see
  /// DitaEngine::Search.
  QueryContext* ctx = nullptr;

  /// When false the engine skips per-query stat/funnel collection and the
  /// trie keeps its stats-free hot path (the legacy wrappers set this from
  /// whether the caller passed a stats out-param).
  bool collect_stats = true;
};

/// The one total order of kNN answers: ascending distance, ties broken by
/// ascending id. The engine's kNN search, its kNN join and the service's
/// base + delta merge all rank with it, so the ids returned at a tie never
/// depend on the order candidates were scored in.
inline bool KnnRankLess(double da, TrajectoryId ia, double db,
                        TrajectoryId ib) {
  if (da != db) return da < db;
  return ia < ib;
}
inline bool KnnRankLess(const std::pair<TrajectoryId, double>& a,
                        const std::pair<TrajectoryId, double>& b) {
  return KnnRankLess(a.second, a.first, b.second, b.first);
}

/// The unified response: exactly one of the payload vectors is populated
/// (matching `kind`), alongside the corresponding stats block.
struct QueryResult {
  QueryKind kind = QueryKind::kSearch;

  /// kSearch: matching trajectory ids, ascending.
  std::vector<TrajectoryId> ids;
  /// kJoin: (left_id, right_id) pairs, sorted.
  std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs;
  /// kKnnSearch: (id, distance) pairs in KnnRankLess order.
  std::vector<std::pair<TrajectoryId, double>> neighbors;

  QueryStats search_stats;  // kSearch / kKnnSearch
  JoinStats join_stats;     // kJoin

  /// Serving-layer accounting, zeroed when the query ran on a bare engine.
  struct ServingInfo {
    /// Base-index generation the query's pinned snapshot belonged to.
    uint64_t epoch = 0;
    /// Snapshot version (bumped by every ingest op and merge publish).
    uint64_t version = 0;
    /// Delta-buffer trajectories linearly scanned / accepted.
    size_t delta_scanned = 0;
    size_t delta_matches = 0;
    /// Base-index answers dropped because their id was deleted.
    size_t deleted_filtered = 0;
    /// Funnel over the delta scan: buffer -> MBR -> cell -> threshold DP
    /// (search only; monotone, ends at delta_matches).
    obs::FilterFunnel delta_funnel;
    /// Timestamped phase breakdown of the request's life inside
    /// DitaService (queue -> admission -> cache -> pin -> base -> delta ->
    /// finalize); phases telescope to lifecycle.total_seconds. Zeroed on a
    /// bare engine.
    obs::RequestRecord lifecycle;
  } serving;
};

/// The DITA engine: one indexed trajectory table living on a (simulated)
/// cluster. Mirrors the system of §3-§6: STR first/last partitioning, global
/// R-tree index on the driver, per-partition trie local indexes co-located
/// with the data, filter-verification search, and cost-model-driven
/// distributed join.
class DitaEngine {
 public:
  // Legacy nested aliases; the structs now live at namespace scope so the
  // unified QueryRequest / QueryResult can carry them.
  using IndexStats = dita::IndexStats;
  using QueryStats = dita::QueryStats;
  using JoinStats = dita::JoinStats;

  DitaEngine(std::shared_ptr<Cluster> cluster, const DitaConfig& config);

  /// Partitions `data`, builds the global index and each partition's local
  /// trie (charged to the owning workers), and precomputes verification
  /// summaries. Requires every trajectory to have at least 2 points.
  Status BuildIndex(const Dataset& data);

  bool indexed() const { return indexed_; }
  const IndexStats& index_stats() const { return index_stats_; }
  const DitaConfig& config() const { return config_; }
  const Cluster& cluster() const { return *cluster_; }

  /// The single query entry point: validates, admits (cost-aware when the
  /// gate has a cost budget), and dispatches on `req.kind`. A threshold
  /// search runs the one search body of ExecuteBatch on a one-member span.
  /// All public query methods below are
  /// exact aliases over this.
  Result<QueryResult> Execute(const QueryRequest& req) const;

  /// Executes a group of requests, running the valid threshold searches as
  /// one pass through the filter pipeline (DESIGN.md §5f): each relevant
  /// partition is probed once per batch with
  /// TrieIndex::CollectCandidatesBatch + Verifier::VerifyMulti instead of
  /// once per query. Results are positional (results[i] answers reqs[i])
  /// and per query bit-identical to Execute — including funnel, verify, and
  /// trie counters; only makespan-style timings reflect the shared stage.
  /// Joins and kNN run through Execute; a search that fails validation
  /// gets Execute's error. The searches are admitted as one ticket whose
  /// cost is the members' summed estimate. A member whose QueryContext
  /// stops mid-batch degrades alone, exactly as it would standalone; the
  /// other members' answers are unaffected.
  std::vector<Result<QueryResult>> ExecuteBatch(
      std::span<const QueryRequest> reqs) const;
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<QueryRequest>& reqs) const {
    return ExecuteBatch(std::span<const QueryRequest>(reqs));
  }

  /// Estimated cost of `req` in admission units (relevant-partition probes
  /// for searches, partition-pair upper bound for joins; always >= 1).
  /// Drives the admission gate's cost budget and DitaService's fair-share
  /// slot allocation when QueryRequest::cost_hint is 0.
  uint64_t EstimateQueryCost(const QueryRequest& req) const;

  /// Threshold similarity search (Definition 2.4, §5): all trajectory ids T
  /// with f(T, q) <= tau. Cost is charged to the shared cluster; per-query
  /// latency lands in `stats` if provided.
  ///
  /// With `ctx` non-null the query runs under that context's cancellation
  /// token, deadlines, and resource budgets. A query stopped mid-flight
  /// degrades gracefully: the call still returns OK with the subset of the
  /// answer produced by the partitions that completed, and tags
  /// `stats->termination` / `stats->completeness` accordingly. Errors
  /// unrelated to the stop (lost workers, invalid input) propagate as
  /// before.
  Result<std::vector<TrajectoryId>> Search(const Trajectory& q, double tau,
                                           QueryStats* stats = nullptr,
                                           QueryContext* ctx = nullptr) const;

  /// Threshold similarity join against `right` (Definition 2.5, §6):
  /// returns (left_id, right_id) pairs with f(T, Q) <= tau. `right` may be
  /// this engine itself (self-join). Both engines must share the cluster.
  /// `ctx` behaves as in Search: a stopped join returns the pairs from the
  /// edges that completed (a subset of the full join).
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> Join(
      const DitaEngine& right, double tau, JoinStats* stats = nullptr,
      QueryContext* ctx = nullptr) const;

  /// kNN similarity search (the paper's §8 future work): the k trajectories
  /// closest to `q` under the engine's distance, as (id, distance) pairs
  /// in KnnRankLess order. Implemented by iterative threshold expansion over
  /// the threshold search machinery: double tau until at least k verified
  /// answers exist; each round scores candidates with the distance bounded
  /// at that round's tau (ComputeBounded). Exact for
  /// kAccumulate/kMax distances; `initial_tau` seeds the expansion (0 picks
  /// a data-derived default). `ctx` behaves as in Search; a stopped kNN
  /// query returns the last fully-completed expansion round's answers
  /// (each one a true member of the kNN set), possibly fewer than k.
  Result<std::vector<std::pair<TrajectoryId, double>>> KnnSearch(
      const Trajectory& q, size_t k, double initial_tau = 0.0,
      QueryStats* stats = nullptr, QueryContext* ctx = nullptr) const;

  /// One kNN-join result row: a left trajectory and one of its k nearest
  /// right trajectories.
  struct KnnJoinRow {
    TrajectoryId left = -1;
    TrajectoryId right = -1;
    double distance = 0.0;

    friend bool operator==(const KnnJoinRow&, const KnnJoinRow&) = default;
  };

  /// kNN similarity join (§8 future work): for every trajectory of this
  /// table, its k nearest trajectories in `right`, via per-trajectory
  /// threshold expansion against the right table's index. Rows are grouped
  /// by left id (ascending), each group in KnnRankLess order.
  Result<std::vector<KnnJoinRow>> KnnJoin(const DitaEngine& right,
                                          size_t k) const;

 private:
  friend class JoinPlanner;
  friend class DitaService;

  /// One data partition: clustered trie index plus verification precomp.
  struct Partition {
    size_t home_worker = 0;
    TrieIndex trie;
    std::vector<VerifyPrecomp> precomp;  // parallel to trie.trajectories()
    size_t data_bytes = 0;
    /// Aggregate sketch over the members: OR of cell bits, component-wise
    /// minhash minima. A query whose dilated signature misses these bits
    /// cannot match anything in the partition (DESIGN.md §5g).
    TrajSignature sketch_agg;
  };

  /// One (partition, query) slot of a search stage. Each task writes only
  /// its own slots, so a query cut short can merge exactly the slots that
  /// ran to completion — partial results are a well-defined subset, not a
  /// torn merge.
  struct SearchLocalOut {
    std::vector<TrajectoryId> ids;
    size_t candidates = 0;
    VerifyStats vstats;
    TrieIndex::ProbeStats pstats;
    /// Set at the end of the task body; false when the task was cut short
    /// mid-filter (its partial output must be discarded).
    bool complete = false;
  };

  /// Merges one query's surviving per-partition slots (`slots` parallel to
  /// `relevant`; null entries were dropped or incomplete), folds the
  /// aggregated counters into the metrics registry, fills `stats`
  /// (termination, completeness, filter funnel) when requested, and returns
  /// the sorted result ids. `sketch_pruned_population` is the trajectory
  /// count of the relevant partitions the level-0 sketch pruned before
  /// probing; those partitions were proven empty of matches, so they count
  /// as merged for completeness and the funnel's "sketch partitions" level
  /// subtracts them.
  std::vector<TrajectoryId> MergeSearch(
      std::span<const uint32_t> relevant,
      std::span<const SearchLocalOut* const> slots, QueryStats* stats,
      QueryContext* ctx, const Cluster::CostSnapshot& snap,
      size_t* total_candidates_out,
      uint64_t sketch_pruned_population = 0) const;

  /// The one threshold-search body (DESIGN.md §5f), for one query or many:
  /// `members` indexes the validated kSearch requests of `reqs`, admitted
  /// here as one ticket; answers (or the shed status) land in the matching
  /// positions of `results`. Each relevant partition is probed by one task
  /// that runs TrieIndex::CollectCandidatesBatch + Verifier::VerifyMulti
  /// over the members probing it.
  void SearchBatchImpl(std::span<const QueryRequest> reqs,
                       std::span<const size_t> members,
                       Result<QueryResult>* results) const;
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> JoinImpl(
      const DitaEngine& right, double tau, JoinStats* stats,
      QueryContext* ctx) const;
  Result<std::vector<std::pair<TrajectoryId, double>>> KnnSearchImpl(
      const Trajectory& q, size_t k, double initial_tau, QueryStats* stats,
      QueryContext* ctx) const;

  TrieIndex::SearchSpec MakeSpec(const Trajectory& q, double tau) const;

  /// Stage options carrying the engine's configured deadline and the
  /// query's stop token (may be null).
  StageOptions StageOpts(std::string name, QueryContext* ctx = nullptr) const {
    return StageOptions{std::move(name),
                        config_.serving.stage_deadline_seconds, ctx};
  }

  /// True when a stage status should degrade into a partial OK result:
  /// the query's own context stopped and the stage failed for that reason
  /// (or not at all). Unrelated errors (lost workers, invalid input) never
  /// degrade.
  static bool ShouldDegrade(const QueryContext* ctx, const Status& stage);

  /// Acquires an admission ticket when the gate is enabled; on shed or
  /// queue-abandon the returned status is the caller's answer. `cost` is
  /// the query's estimated admission cost. Sheds are counted both globally
  /// and per query kind; `waited_seconds` (optional) receives the gate
  /// queue wait on every exit path, shed included.
  Status AdmitQuery(QueryKind kind, QueryContext* ctx, uint64_t cost,
                    AdmissionGate::Ticket* ticket,
                    double* waited_seconds = nullptr) const;

  /// EstimateQueryCost(req) when the gate is enabled, else 0: the estimate
  /// is a global-index probe, wasted without a gate to read it.
  uint64_t GateCost(const QueryRequest& req) const;

  /// The one request-validation point, shared by the engine and
  /// DitaService: a search or kNN query needs at least 2 points, all
  /// finite; tau (search, join) must be finite and non-negative, and
  /// initial_tau (kNN) finite. Table-state checks (indexed, k versus the
  /// cardinality) stay with the callers.
  static Status ValidateRequest(const QueryRequest& req);

  /// Rejects a trajectory DITA cannot index: fewer than 2 points, or a
  /// non-finite coordinate (BuildIndex and DitaService::Insert).
  static Status ValidateTrajectory(const Trajectory& t);

  /// Per-trajectory global relevance test against a partition summary —
  /// the "has candidates in Qj" check of §6.2's trans estimation.
  bool TrajectoryRelevantTo(const Trajectory& t,
                            const GlobalIndex::PartitionSummary& s,
                            double tau) const;

  /// The partitions of the global index a query at radius `tau` must
  /// probe, minus those the level-0 sketch proves empty of answers when
  /// `dilated` (the query's tau-dilated signature) is non-null; the pruned
  /// partitions' population is added to `*sketch_pruned_population` when
  /// that is non-null. Ascending partition ids.
  std::vector<uint32_t> ProbePartitions(const Trajectory& q, double tau,
                                        const SigBits* dilated,
                                        uint64_t* sketch_pruned_population) const;

  /// True when the level-0 sketch tier applies to this engine's queries:
  /// the toggle is on, the grid was built, and the metric is geometric
  /// (DTW / Frechet — edit distances bypass the sketch like the other
  /// geometric filters).
  bool SketchActive() const;

  /// Builds the query-side sketch for `q` at radius `tau`: the dilated bit
  /// set the per-candidate subset test and the partition-aggregate
  /// intersect test run against. Only called when SketchActive().
  SigBits DilatedQuerySig(const Trajectory& q, double tau) const;

  /// Folds one operation's aggregated filter/verify counters into the
  /// metrics registry (no-op when metrics are disabled). Cold path: called
  /// once per query/join, after the stage completes.
  void RecordFilterMetrics(size_t partitions_relevant,
                           const TrieIndex::ProbeStats& pstats,
                           const VerifyStats& vstats) const;

  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
  std::shared_ptr<TrajectoryDistance> distance_;
  std::unique_ptr<Verifier> verifier_;
  /// Engine-local pool for intra-task parallel verification (see
  /// DitaConfig::VerifyOptions::threads); null when verification is serial.
  std::unique_ptr<ThreadPool> verify_pool_;
  /// Engine-local pool for parallel index construction (see
  /// DitaConfig::BuildOptions::threads); null when builds are serial.
  /// Helper CPU is charged back to the owning cluster task / the driver
  /// ledger, so simulated makespans match a serial build.
  std::unique_ptr<ThreadPool> build_pool_;
  GlobalIndex global_;
  std::vector<Partition> partitions_;
  IndexStats index_stats_;
  bool indexed_ = false;
  /// Quantization frame of the level-0 sketch tier: fixed at BuildIndex
  /// time over the table's data MBR. Invalid (all-zero) until then, and
  /// whenever the data region is degenerate.
  SigGrid sig_grid_;
  /// Admission gate (null when ServingOptions::max_inflight_queries == 0).
  /// Mutable: taking a ticket is bookkeeping, not an engine mutation.
  mutable std::unique_ptr<AdmissionGate> gate_;

 public:
  /// Gate counters for tests / dashboards; null when the gate is disabled.
  const AdmissionGate* admission_gate() const { return gate_.get(); }

  /// The sketch tier's quantization frame (invalid before BuildIndex).
  const SigGrid& sig_grid() const { return sig_grid_; }

  /// Releases the grow-once trie/verify scratch arenas of the engine's own
  /// pool threads and the calling thread. Idempotent; called by the
  /// destructor so engine teardown returns scratch memory instead of
  /// leaving it parked on pool threads.
  void ReleaseThreadScratch();

  ~DitaEngine();

 private:

  /// Owned by the cluster (shared across engines on it); null when the
  /// corresponding DitaConfig toggle is off and nobody else enabled it.
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Cached null-safe handles: disabled metrics cost one branch per update.
  obs::CounterHandle m_partitions_relevant_;
  obs::CounterHandle m_sketch_partitions_pruned_;
  obs::CounterHandle m_sketch_candidates_pruned_;
  obs::CounterHandle m_trie_nodes_visited_;
  obs::CounterHandle m_trie_nodes_pruned_;
  obs::CounterHandle m_trie_candidates_;
  obs::CounterHandle m_verify_pairs_;
  obs::CounterHandle m_verify_pruned_mbr_;
  obs::CounterHandle m_verify_pruned_cell_;
  obs::CounterHandle m_verify_dp_computed_;
  obs::CounterHandle m_verify_dp_cells_;
  obs::CounterHandle m_verify_accepted_;
  obs::HistogramHandle h_query_candidates_;
  obs::HistogramHandle h_batch_survivors_;
  obs::CounterHandle m_query_admitted_;
  obs::CounterHandle m_query_shed_;
  /// Per-kind shed breakdown (query.shed.{search,join,knn}); the global
  /// query.shed counter stays the sum.
  obs::CounterHandle m_query_shed_search_;
  obs::CounterHandle m_query_shed_join_;
  obs::CounterHandle m_query_shed_knn_;
  obs::CounterHandle m_query_degraded_;
  obs::HistogramHandle h_admission_wait_;
};

}  // namespace dita

#endif  // DITA_CORE_ENGINE_H_
