#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/join_planner.h"
#include "distance/dp_scratch.h"
#include "core/partitioner.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {

DitaEngine::DitaEngine(std::shared_ptr<Cluster> cluster, const DitaConfig& config)
    : cluster_(std::move(cluster)), config_(config) {
  DITA_CHECK(cluster_ != nullptr);
  auto dist = MakeDistance(config_.distance, config_.distance_params);
  DITA_CHECK(dist.ok());
  distance_ = *dist;
  verifier_ = std::make_unique<Verifier>(distance_, config_);
  // Observability attaches to the cluster so engines sharing it share one
  // tracer / registry; when the toggles are off we still pick up a tracer
  // another engine already enabled.
  tracer_ =
      config_.enable_tracing ? cluster_->EnableTracing() : cluster_->tracer();
  metrics_ =
      config_.enable_metrics ? cluster_->EnableMetrics() : cluster_->metrics();
  m_partitions_relevant_ = {metrics_, "filter.global.partitions_relevant"};
  m_sketch_partitions_pruned_ = {metrics_, "filter.sketch.partitions_pruned"};
  m_sketch_candidates_pruned_ = {metrics_, "filter.sketch.candidates_pruned"};
  m_trie_nodes_visited_ = {metrics_, "filter.trie.nodes_visited"};
  m_trie_nodes_pruned_ = {metrics_, "filter.trie.nodes_pruned"};
  m_trie_candidates_ = {metrics_, "filter.trie.candidates"};
  m_verify_pairs_ = {metrics_, "verify.pairs"};
  m_verify_pruned_mbr_ = {metrics_, "verify.pruned_mbr"};
  m_verify_pruned_cell_ = {metrics_, "verify.pruned_cell"};
  m_verify_dp_computed_ = {metrics_, "verify.dp.computed"};
  m_verify_dp_cells_ = {metrics_, "verify.dp.cells"};
  m_verify_accepted_ = {metrics_, "verify.accepted"};
  h_query_candidates_ = {metrics_, "query.candidates", obs::CountOptions()};
  h_batch_survivors_ = {metrics_, "verify.batch.survivors",
                        obs::CountOptions()};
  m_query_admitted_ = {metrics_, "query.admitted"};
  m_query_shed_ = {metrics_, "query.shed"};
  m_query_shed_search_ = {metrics_, "query.shed.search"};
  m_query_shed_join_ = {metrics_, "query.shed.join"};
  m_query_shed_knn_ = {metrics_, "query.shed.knn"};
  m_query_degraded_ = {metrics_, "query.degraded"};
  h_admission_wait_ = {metrics_, "query.admission_wait_seconds",
                       obs::LatencyOptions()};
  if (config_.verify.threads > 0) {
    verify_pool_ = std::make_unique<ThreadPool>(config_.verify.threads);
  }
  if (config_.build.threads > 0) {
    build_pool_ = std::make_unique<ThreadPool>(config_.build.threads);
  }
  if (config_.serving.max_inflight_queries > 0) {
    gate_ = std::make_unique<AdmissionGate>(AdmissionGate::Options{
        config_.serving.max_inflight_queries, config_.serving.max_queued_queries,
        config_.serving.max_inflight_cost, config_.serving.max_bypass});
  }
}

DitaEngine::~DitaEngine() { ReleaseThreadScratch(); }

void DitaEngine::ReleaseThreadScratch() {
  // Broadcast one release task per pool thread. Each task parks on a busy
  // barrier until all of them are running — the pool is FIFO with exactly
  // num_threads() workers, so this guarantees every task landed on a
  // distinct thread — then frees that thread's grow-once arenas.
  const auto broadcast = [](ThreadPool* pool) {
    if (pool == nullptr || pool->num_threads() == 0) return;
    const size_t n = pool->num_threads();
    std::atomic<size_t> arrived{0};
    for (size_t i = 0; i < n; ++i) {
      pool->Submit([&arrived, n] {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < n) {
          std::this_thread::yield();
        }
        TrieIndex::Scratch::ThreadLocal().Release();
      });
    }
    pool->Wait();
  };
  broadcast(build_pool_.get());
  broadcast(verify_pool_.get());
  TrieIndex::Scratch::ThreadLocal().Release();
}

bool DitaEngine::SketchActive() const {
  if (!config_.verify.enable_sketch || !sig_grid_.valid()) return false;
  return config_.distance == DistanceType::kDTW ||
         config_.distance == DistanceType::kFrechet;
}

SigBits DitaEngine::DilatedQuerySig(const Trajectory& q, double tau) const {
  return Dilate(BuildSignature(q, sig_grid_).bits, sig_grid_, tau);
}

bool DitaEngine::ShouldDegrade(const QueryContext* ctx, const Status& stage) {
  if (ctx == nullptr || !ctx->stopped()) return false;
  switch (stage.code()) {
    case Status::Code::kOk:
    case Status::Code::kCancelled:
    case Status::Code::kDeadlineExceeded:
    case Status::Code::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

Status DitaEngine::AdmitQuery(QueryKind kind, QueryContext* ctx, uint64_t cost,
                              AdmissionGate::Ticket* ticket,
                              double* waited_seconds) const {
  if (waited_seconds != nullptr) *waited_seconds = 0.0;
  if (gate_ == nullptr) return Status::OK();
  double waited = 0.0;
  const Status s = gate_->Admit(ctx, cost, ticket, &waited);
  if (waited_seconds != nullptr) *waited_seconds = waited;
  h_admission_wait_.Observe(waited);
  if (s.ok()) {
    m_query_admitted_.Increment();
  } else {
    m_query_shed_.Increment();
    switch (kind) {
      case QueryKind::kSearch:
        m_query_shed_search_.Increment();
        break;
      case QueryKind::kJoin:
        m_query_shed_join_.Increment();
        break;
      case QueryKind::kKnnSearch:
        m_query_shed_knn_.Increment();
        break;
    }
    if (tracer_ != nullptr) tracer_->Instant("query.shed");
  }
  return s;
}

uint64_t DitaEngine::GateCost(const QueryRequest& req) const {
  return gate_ != nullptr ? EstimateQueryCost(req) : 0;
}

uint64_t DitaEngine::EstimateQueryCost(const QueryRequest& req) const {
  if (req.cost_hint > 0) return req.cost_hint;
  if (!indexed_) return 1;
  switch (req.kind) {
    case QueryKind::kSearch:
    case QueryKind::kKnnSearch: {
      if (req.query.size() < 2) return 1;
      // Relevant-partition count is the unit the cluster actually pays per
      // probe stage; +1 covers the driver work every query does. A kNN
      // pass's radius is known only once its seeds are scored, so it is
      // charged the partitions a zero-radius search would probe: those
      // that can hold an exact match, which the pass visits first. That
      // under-counts the partitions it may visit, but charging all of them
      // would hold half the scheduler's slots per kNN and queue point
      // searches behind it.
      const double tau = req.kind == QueryKind::kSearch ? req.tau : 0.0;
      const Point* erp_gap = config_.distance == DistanceType::kERP
                                 ? &config_.distance_params.erp_gap
                                 : nullptr;
      const std::vector<uint32_t> relevant = global_.RelevantPartitions(
          req.query, tau, distance_->prune_mode(),
          distance_->matching_epsilon(), erp_gap);
      return static_cast<uint64_t>(relevant.size()) + 1;
    }
    case QueryKind::kJoin: {
      // Upper bound of partition-pair probes, clamped so one estimate cannot
      // dwarf every budget into meaninglessness.
      const DitaEngine* right =
          req.join_right != nullptr ? req.join_right : this;
      const uint64_t left_parts = std::max<uint64_t>(1, partitions_.size());
      const uint64_t right_parts = std::max<uint64_t>(
          1, right->indexed_ ? right->partitions_.size() : 1);
      return std::min<uint64_t>(left_parts * right_parts, uint64_t{1} << 20);
    }
  }
  return 1;
}

namespace {

bool AllFinite(const Trajectory& t) {
  for (const Point& p : t.points()) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

}  // namespace

Status DitaEngine::ValidateTrajectory(const Trajectory& t) {
  if (t.size() < 2) {
    return Status::InvalidArgument(
        "DITA requires trajectories with at least 2 points");
  }
  if (!AllFinite(t)) {
    return Status::InvalidArgument("trajectory coordinates must be finite");
  }
  return Status::OK();
}

Status DitaEngine::ValidateRequest(const QueryRequest& req) {
  if (req.kind != QueryKind::kJoin) {
    if (req.query.size() < 2) {
      return Status::InvalidArgument("query needs at least 2 points");
    }
    if (!AllFinite(req.query)) {
      return Status::InvalidArgument("query coordinates must be finite");
    }
  }
  if (req.kind == QueryKind::kKnnSearch) {
    if (!std::isfinite(req.initial_tau)) {
      return Status::InvalidArgument("initial_tau must be finite");
    }
    return Status::OK();
  }
  if (!std::isfinite(req.tau)) {
    return Status::InvalidArgument("threshold must be finite");
  }
  if (req.tau < 0) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  return Status::OK();
}

Result<QueryResult> DitaEngine::Execute(const QueryRequest& req) const {
  QueryResult res;
  res.kind = req.kind;
  QueryStats* qstats = req.collect_stats ? &res.search_stats : nullptr;
  switch (req.kind) {
    case QueryKind::kSearch: {
      // A single search is a batch of one.
      if (!indexed_) return Status::Internal("Search before BuildIndex");
      DITA_RETURN_IF_ERROR(ValidateRequest(req));
      Result<QueryResult> out = std::move(res);
      const size_t only = 0;
      SearchBatchImpl({&req, 1}, {&only, 1}, &out);
      return out;
    }
    case QueryKind::kKnnSearch: {
      if (!indexed_) return Status::Internal("KnnSearch before BuildIndex");
      DITA_RETURN_IF_ERROR(ValidateRequest(req));
      if (req.k == 0) return res;
      if (req.k > index_stats_.num_trajectories) {
        return Status::InvalidArgument("k exceeds the table cardinality");
      }
      AdmissionGate::Ticket ticket;
      double admission_wait = 0.0;
      DITA_RETURN_IF_ERROR(AdmitQuery(req.kind, req.ctx, GateCost(req), &ticket,
                                      &admission_wait));
      auto r = KnnSearchImpl(req.query, req.k, qstats, req.ctx);
      DITA_RETURN_IF_ERROR(r.status());
      if (qstats != nullptr) qstats->admission_wait_seconds = admission_wait;
      res.neighbors = std::move(*r);
      return res;
    }
    case QueryKind::kJoin: {
      if (req.join_right_service != nullptr) {
        return Status::InvalidArgument(
            "service-level join targets require DitaService::Execute");
      }
      const DitaEngine& right =
          req.join_right != nullptr ? *req.join_right : *this;
      if (!indexed_ || !right.indexed_) {
        return Status::Internal("Join before BuildIndex");
      }
      if (cluster_.get() != right.cluster_.get()) {
        return Status::InvalidArgument("joined tables must share a cluster");
      }
      DITA_RETURN_IF_ERROR(ValidateRequest(req));
      AdmissionGate::Ticket ticket;
      DITA_RETURN_IF_ERROR(
          AdmitQuery(req.kind, req.ctx, GateCost(req), &ticket));
      auto r = JoinImpl(right, req.tau,
                        req.collect_stats ? &res.join_stats : nullptr, req.ctx);
      DITA_RETURN_IF_ERROR(r.status());
      res.pairs = std::move(*r);
      return res;
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

Result<std::vector<TrajectoryId>> DitaEngine::Search(const Trajectory& q,
                                                     double tau,
                                                     QueryStats* stats,
                                                     QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = q;
  req.tau = tau;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->search_stats);
  return std::move(r->ids);
}

Result<std::vector<std::pair<TrajectoryId, double>>> DitaEngine::KnnSearch(
    const Trajectory& q, size_t k, double initial_tau, QueryStats* stats,
    QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = q;
  req.k = k;
  req.initial_tau = initial_tau;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->search_stats);
  return std::move(r->neighbors);
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> DitaEngine::Join(
    const DitaEngine& right, double tau, JoinStats* stats,
    QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.join_right = &right;
  req.tau = tau;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->join_stats);
  return std::move(r->pairs);
}

Status DitaEngine::BuildIndex(const Dataset& data) {
  if (config_.build.ng == 0) {
    return Status::InvalidArgument("ng must be positive");
  }
  if (config_.build.trie.align_fanout < 2 ||
      config_.build.trie.pivot_fanout < 2) {
    return Status::InvalidArgument("trie fanouts must be at least 2");
  }
  if (config_.build.trie.leaf_capacity < 1) {
    return Status::InvalidArgument("trie leaf capacity must be at least 1");
  }
  for (const Trajectory& t : data.trajectories()) {
    DITA_RETURN_IF_ERROR(ValidateTrajectory(t));
  }
  WallTimer build_timer;
  obs::SpanGuard build_span(tracer_, "index.build");

  // Partitioning runs on the driver; its CPU — including STR sort chunks
  // offloaded to the build pool — lands in the driver ledger.
  CpuTimer partition_timer;
  double partition_offloaded = 0.0;
  auto parts = config_.build.random_partitioning
                   ? PartitionRandomly(data.trajectories(),
                                       config_.build.ng * config_.build.ng)
                   : PartitionByFirstLast(data.trajectories(), config_.build.ng,
                                          build_pool_.get(),
                                          &partition_offloaded);
  DITA_RETURN_IF_ERROR(parts.status());

  // Level-0 sketch frame (DESIGN.md §5g): one fixed grid over the whole
  // table's data MBR, shared by every partition so signatures stay
  // comparable across them (and across delta inserts later).
  MBR data_mbr;
  for (const auto& part : *parts) {
    for (const Trajectory& t : part) {
      for (const Point& pt : t.points()) data_mbr.Expand(pt);
    }
  }
  sig_grid_ = data_mbr.empty() ? SigGrid{} : SigGrid::For(data_mbr);
  cluster_->RecordDriverCompute(partition_timer.Seconds() + partition_offloaded);

  partitions_.clear();
  partitions_.resize(parts->size());
  std::vector<GlobalIndex::PartitionSummary> summaries(parts->size());

  // Build local indexes as one cluster stage: each partition's trie is
  // constructed on its home worker.
  std::vector<Cluster::Task> tasks;
  for (size_t p = 0; p < parts->size(); ++p) {
    Partition& partition = partitions_[p];
    partition.home_worker = cluster_->WorkerOf(p);
    std::vector<Trajectory>* source = &(*parts)[p];
    GlobalIndex::PartitionSummary* summary = &summaries[p];
    // Build-stage tasks carry no recovery bytes: the source data is
    // driver-resident, so a lost build recomputes from lineage for free
    // (only the recomputation CPU is charged).
    tasks.push_back(
        {partition.home_worker, [this, &partition, source, summary] {
           for (const Trajectory& t : *source) {
             summary->mbr_first.Expand(t.front());
             summary->mbr_last.Expand(t.back());
             partition.data_bytes += t.ByteSize();
           }
           // Inputs were validated above, so Build cannot fail here.
           double offloaded = 0.0;
           DITA_CHECK(partition.trie
                          .Build(std::move(*source), config_.build.trie,
                                 build_pool_.get(), &offloaded)
                          .ok());
           // Verification summaries are independent per trajectory:
           // slot-indexed writes, so the parallel result is identical to
           // the serial loop.
           partition.precomp.resize(partition.trie.size());
           offloaded += ThreadPool::ParallelFor(
               build_pool_.get(), partition.trie.size(), /*min_parallel=*/64,
               [this, &partition](size_t lo, size_t hi) {
                 for (size_t i = lo; i < hi; ++i) {
                   partition.precomp[i] = verifier_->Precompute(
                       partition.trie.trajectories()[i], &sig_grid_);
                 }
               });
           // Aggregate sketch over the members (OR of bits, component-wise
           // minhash minima) — the partition-level prune the search paths
           // test before probing the trie.
           for (const VerifyPrecomp& vp : partition.precomp) {
             AggregateSignature(vp.sig, &partition.sketch_agg);
           }
           // Pool-thread CPU is charged to this cluster task so the
           // virtual-time ledger matches a serial build.
           if (offloaded > 0.0) Cluster::ChargeCurrentTask(offloaded);
           return Status::OK();
         }});
  }
  DITA_RETURN_IF_ERROR(cluster_->RunStage(std::move(tasks), StageOpts("build")));

  // Driver builds the global index over the partition summaries.
  CpuTimer driver_timer;
  global_.Build(std::move(summaries));
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  index_stats_ = IndexStats{};
  index_stats_.build_seconds = build_timer.Seconds();
  index_stats_.num_partitions = partitions_.size();
  index_stats_.num_trajectories = data.size();
  index_stats_.global_index_bytes = global_.ByteSize();
  for (const Partition& p : partitions_) {
    index_stats_.local_index_bytes += p.trie.ByteSize();
    for (const VerifyPrecomp& vp : p.precomp) {
      index_stats_.local_index_bytes += vp.ByteSize();
      index_stats_.cell_bytes +=
          vp.cells.cells.size() * sizeof(CellSummary::Cell);
    }
    // Signatures are inline (fixed-width) — one per trajectory plus the
    // partition aggregate.
    index_stats_.sketch_bytes += (p.precomp.size() + 1) * sizeof(TrajSignature);
  }
  build_span.Arg("partitions", partitions_.size());
  build_span.Arg("trajectories", data.size());
  indexed_ = true;
  return Status::OK();
}

void DitaEngine::RecordFilterMetrics(size_t partitions_relevant,
                                     const TrieIndex::ProbeStats& pstats,
                                     const VerifyStats& vstats) const {
  if (metrics_ == nullptr) return;
  m_partitions_relevant_.Add(partitions_relevant);
  m_sketch_candidates_pruned_.Add(vstats.pruned_by_sketch);
  m_trie_nodes_visited_.Add(pstats.nodes_visited);
  m_trie_nodes_pruned_.Add(pstats.nodes_pruned);
  m_trie_candidates_.Add(vstats.pairs);
  m_verify_pairs_.Add(vstats.pairs);
  m_verify_pruned_mbr_.Add(vstats.pruned_by_mbr);
  m_verify_pruned_cell_.Add(vstats.pruned_by_cell);
  m_verify_dp_computed_.Add(vstats.dp_computed);
  m_verify_dp_cells_.Add(vstats.dp_cells);
  m_verify_accepted_.Add(vstats.accepted);
}

TrieIndex::SearchSpec DitaEngine::MakeSpec(const Trajectory& q, double tau) const {
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
  return spec;
}

bool DitaEngine::TrajectoryRelevantTo(const Trajectory& t,
                                      const GlobalIndex::PartitionSummary& s,
                                      double tau) const {
  const double df = s.mbr_first.MinDist(t.front());
  const double dl = s.mbr_last.MinDist(t.back());
  switch (distance_->prune_mode()) {
    case PruneMode::kAccumulate:
      if (config_.distance == DistanceType::kERP) return true;  // gap matching
      return df + dl <= tau;
    case PruneMode::kMax:
      return df <= tau && dl <= tau;
    case PruneMode::kEditCount: {
      double edits = 0.0;
      const double eps = distance_->matching_epsilon();
      // Only rectangle-level information is available here; a first/last MBR
      // farther than epsilon from *every* point of t forces an edit.
      double best_f = s.mbr_first.MinDist(t.front());
      double best_l = s.mbr_last.MinDist(t.back());
      for (const Point& p : t.points()) {
        best_f = std::min(best_f, s.mbr_first.MinDist(p));
        best_l = std::min(best_l, s.mbr_last.MinDist(p));
      }
      if (best_f > eps) edits += 1.0;
      if (best_l > eps) edits += 1.0;
      return edits <= std::floor(tau);
    }
  }
  return true;
}

std::vector<uint32_t> DitaEngine::ProbePartitions(
    const Trajectory& q, double tau, const SigBits* dilated,
    uint64_t* sketch_pruned_population) const {
  const Point* erp_gap = config_.distance == DistanceType::kERP
                             ? &config_.distance_params.erp_gap
                             : nullptr;
  std::vector<uint32_t> relevant;
  {
    obs::SpanGuard probe_span(tracer_, "probe.global");
    relevant = global_.RelevantPartitions(q, tau, distance_->prune_mode(),
                                          distance_->matching_epsilon(),
                                          erp_gap);
    probe_span.Arg("relevant", relevant.size());
  }
  if (dilated == nullptr) return relevant;
  // Level-0 sketch tier (DESIGN.md §5g): a partition whose aggregate bits
  // miss the query's tau-dilated set holds no member that can pass the
  // per-candidate subset test, let alone match.
  const size_t pruned = std::erase_if(relevant, [&](uint32_t pid) {
    const Partition& part = partitions_[pid];
    if (part.sketch_agg.bits.Empty() ||
        part.sketch_agg.bits.Intersects(*dilated)) {
      return false;
    }
    if (sketch_pruned_population != nullptr) {
      *sketch_pruned_population += part.trie.size();
    }
    return true;
  });
  if (pruned > 0) m_sketch_partitions_pruned_.Add(pruned);
  return relevant;
}

std::vector<TrajectoryId> DitaEngine::MergeSearch(
    std::span<const uint32_t> relevant,
    std::span<const SearchLocalOut* const> slots, QueryStats* stats,
    QueryContext* ctx, const Cluster::CostSnapshot& snap,
    size_t* total_candidates_out, uint64_t sketch_pruned_population) const {
  const bool want_probe_stats = stats != nullptr || metrics_ != nullptr;
  const size_t trie_levels = config_.build.trie.num_pivots + 2;
  std::vector<TrajectoryId> results;
  size_t total_candidates = 0;
  // Sketch-pruned partitions were proven to hold no answers, so they count
  // as merged (fully searched) for completeness and enter the funnel at the
  // "global index" level before the "sketch partitions" level removes them.
  uint64_t relevant_population = sketch_pruned_population;
  uint64_t merged_population = sketch_pruned_population;
  VerifyStats vstats;
  TrieIndex::ProbeStats pstats;
  pstats.Reset(trie_levels);
  for (size_t idx = 0; idx < relevant.size(); ++idx) {
    const uint64_t population = partitions_[relevant[idx]].trie.size();
    relevant_population += population;
    const SearchLocalOut* out = slots[idx];
    if (out == nullptr) continue;
    merged_population += population;
    results.insert(results.end(), out->ids.begin(), out->ids.end());
    total_candidates += out->candidates;
    vstats.Merge(out->vstats);
    if (want_probe_stats) pstats.Merge(out->pstats);
  }
  const double completeness =
      relevant_population == 0
          ? 1.0
          : static_cast<double>(merged_population) /
                static_cast<double>(relevant_population);

  RecordFilterMetrics(relevant.size(), pstats, vstats);
  h_query_candidates_.Observe(static_cast<double>(total_candidates));

  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->partitions_probed = relevant.size();
    stats->candidates = total_candidates;
    stats->verify = vstats;
    stats->results = results.size();
    stats->faults = cluster_->FaultsSince(snap);
    stats->termination = ctx != nullptr ? ctx->ToStatus() : Status::OK();
    stats->completeness = completeness;

    // Filter funnel: survivors after each pruning level. Within the trie,
    // survivors after level l are the relevant population minus everything
    // pruned at levels <= l; the remainder after the last level is exactly
    // the candidate set, and the verify counters carry the funnel to the
    // accepted results. Under degradation every level counts only the
    // merged (completed) partitions, so the funnel still balances: it stays
    // monotone and ends at the returned result count.
    obs::FilterFunnel funnel;
    funnel.AddLevel("table", index_stats_.num_trajectories);
    funnel.AddLevel("global index", merged_population);
    uint64_t remaining = merged_population - sketch_pruned_population;
    funnel.AddLevel("sketch partitions", remaining);
    for (size_t l = 0; l < trie_levels; ++l) {
      remaining -= pstats.pruned_members[l];
      const std::string label =
          l == 0 ? "trie: first"
                 : (l == 1 ? "trie: last"
                           : "trie: pivot " + std::to_string(l - 1));
      funnel.AddLevel(label, remaining);
    }
    funnel.AddLevel("candidates", total_candidates);
    funnel.AddLevel("sketch signature",
                    vstats.pairs - vstats.pruned_by_sketch);
    funnel.AddLevel("mbr coverage", vstats.pairs - vstats.pruned_by_sketch -
                                        vstats.pruned_by_mbr);
    funnel.AddLevel("cell bound", vstats.dp_computed);
    funnel.AddLevel("threshold dp", vstats.accepted);
    stats->funnel = std::move(funnel);
  }
  std::sort(results.begin(), results.end());
  if (total_candidates_out != nullptr) *total_candidates_out = total_candidates;
  return results;
}

std::vector<Result<QueryResult>> DitaEngine::ExecuteBatch(
    std::span<const QueryRequest> reqs) const {
  // Valid threshold searches run together through the one search body;
  // joins and kNN take their standalone paths, and an invalid search gets
  // its validation error.
  std::vector<Result<QueryResult>> out;
  out.reserve(reqs.size());
  std::vector<size_t> members;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const QueryRequest& req = reqs[i];
    if (req.kind != QueryKind::kSearch) {
      out.push_back(Execute(req));
      continue;
    }
    const Status valid = indexed_
                             ? ValidateRequest(req)
                             : Status::Internal("Search before BuildIndex");
    out.push_back(valid.ok() ? Status::Internal("batch slot not filled")
                             : valid);
    if (valid.ok()) members.push_back(i);
  }
  if (!members.empty()) SearchBatchImpl(reqs, members, out.data());
  return out;
}

void DitaEngine::SearchBatchImpl(std::span<const QueryRequest> reqs,
                                 std::span<const size_t> members,
                                 Result<QueryResult>* results) const {
  const size_t n = members.size();
  // One admission ticket covers the whole batch at the members' summed
  // cost, so the gate's inflight-cost budget sees the same load as
  // standalone calls would. A lone search queues under its own context.
  uint64_t cost = 0;
  for (const size_t i : members) cost += GateCost(reqs[i]);
  AdmissionGate::Ticket ticket;
  double admission_wait = 0.0;
  const Status admitted =
      AdmitQuery(QueryKind::kSearch, n == 1 ? reqs[members[0]].ctx : nullptr,
                 cost, &ticket, &admission_wait);
  if (!admitted.ok()) {
    for (const size_t i : members) results[i] = admitted;
    return;
  }
  const Cluster::CostSnapshot snap = cluster_->Snapshot();
  // A lone search keeps the standalone shape: its own "query" span, and a
  // "search" stage carrying its context, so a stop cancels the stage and
  // the query degrades exactly as it always has. A batch's stage carries
  // no member context: one member's stop must not abort the shared
  // traversal for the rest (the traversal drops the stopped member from
  // its alive sets instead).
  QueryContext* const stage_ctx = n == 1 ? reqs[members[0]].ctx : nullptr;
  obs::SpanGuard query_span(tracer_, n == 1 ? "query" : "query.batch");
  const size_t trie_levels = config_.build.trie.num_pivots + 2;

  // Driver: per member, the partitions worth probing and the verification
  // precomp. The dilated sketches live in the driver thread's grow-once
  // scratch arena — the tasks only read them.
  CpuTimer driver_timer;
  struct Member {
    std::vector<uint32_t> relevant;  // ascending partition ids
    VerifyPrecomp qp;
    uint64_t sketch_pruned = 0;      // population of sketch-pruned partitions
    size_t first_slot = 0;           // offset of this member's merge slots
    bool dropped = false;            // some slot did not run to completion
  };
  std::vector<Member> ms(n);
  const bool sketch = SketchActive();
  std::vector<SigBits>& dsigs = TrieIndex::Scratch::ThreadLocal().DilatedSigs();
  if (sketch && dsigs.size() < n) dsigs.resize(n);
  size_t num_slots = 0;
  for (size_t m = 0; m < n; ++m) {
    const QueryRequest& req = reqs[members[m]];
    if (sketch) dsigs[m] = DilatedQuerySig(req.query, req.tau);
    ms[m].relevant = ProbePartitions(req.query, req.tau,
                                     sketch ? &dsigs[m] : nullptr,
                                     &ms[m].sketch_pruned);
    ms[m].qp = verifier_->Precompute(req.query);
    ms[m].first_slot = num_slots;
    num_slots += ms[m].relevant.size();
  }
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  // Group the (partition, member) probes by partition with one sorted key
  // array, pid << 32 | member: each run of equal pids is ONE task running
  // the members' trie probes and the multi-query verify pass over them.
  // This is where a batch saves work over standalone stages. Slot k
  // (outputs, traversal and verify members) belongs to keys[k].
  std::vector<uint64_t> keys;
  keys.reserve(num_slots);
  for (size_t m = 0; m < n; ++m) {
    for (const uint32_t pid : ms[m].relevant) {
      keys.push_back((uint64_t{pid} << 32) | m);
    }
  }
  std::sort(keys.begin(), keys.end());
  const auto pid_of = [&keys](size_t k) {
    return static_cast<uint32_t>(keys[k] >> 32);
  };
  const auto member_of = [&keys](size_t k) {
    return static_cast<uint32_t>(keys[k]);
  };
  std::vector<SearchLocalOut> outs(num_slots);
  std::vector<TrieIndex::BatchQuery> bqs(num_slots);
  std::vector<Verifier::MultiQuery> mqs(num_slots);
  std::vector<Cluster::Task> tasks;
  for (size_t lo = 0; lo < num_slots;) {
    size_t hi = lo + 1;
    while (hi < num_slots && pid_of(hi) == pid_of(lo)) ++hi;
    const Partition* part = &partitions_[pid_of(lo)];
    tasks.push_back(
        {part->home_worker,
         [&, part, lo, hi] {
           const size_t cnt = hi - lo;
           DpScratch& scratch = DpScratch::ThreadLocal();
           std::vector<uint32_t>* cand = scratch.CandidateLists(cnt);
           std::vector<uint32_t>* acc = scratch.AcceptedLists(cnt);
           for (size_t j = 0; j < cnt; ++j) {
             const size_t k = lo + j;
             const QueryRequest& req = reqs[members[member_of(k)]];
             cand[j].clear();
             acc[j].clear();
             bqs[k].spec = MakeSpec(req.query, req.tau);
             bqs[k].spec.ctx = req.ctx;
             bqs[k].out = &cand[j];
             if (req.collect_stats || metrics_ != nullptr) {
               outs[k].pstats.Reset(trie_levels);
               bqs[k].stats = &outs[k].pstats;
             }
           }
           {
             obs::SpanGuard collect_span(tracer_, "trie.collect");
             part->trie.CollectCandidatesBatch(&bqs[lo], cnt);
             size_t total = 0;
             for (size_t j = 0; j < cnt; ++j) total += cand[j].size();
             if (cnt > 1) collect_span.Arg("queries", cnt);
             collect_span.Arg("candidates", total);
           }
           for (size_t j = 0; j < cnt; ++j) {
             const size_t k = lo + j;
             const uint32_t m = member_of(k);
             const QueryRequest& req = reqs[members[m]];
             mqs[k] = Verifier::MultiQuery{
                 &cand[j], &ms[m].qp, req.tau, sketch ? &dsigs[m] : nullptr,
                 req.ctx,  &acc[j],   &outs[k].vstats};
           }
           const Verifier::BatchResult r = verifier_->VerifyMulti(
               part->precomp, &mqs[lo], cnt, verify_pool_.get(),
               config_.verify.parallel_min, tracer_);
           // DP chunks ran on pool threads; charge their CPU to this cluster
           // task so the virtual-time ledger matches a serial verification.
           if (r.offloaded_seconds > 0.0) {
             Cluster::ChargeCurrentTask(r.offloaded_seconds);
           }
           for (size_t j = 0; j < cnt; ++j) {
             const size_t k = lo + j;
             const QueryRequest& req = reqs[members[member_of(k)]];
             SearchLocalOut& slot = outs[k];
             slot.candidates = cand[j].size();
             for (const uint32_t pos : acc[j]) {
               slot.ids.push_back(part->trie.trajectory(pos).id());
             }
             h_batch_survivors_.Observe(
                 static_cast<double>(slot.vstats.dp_computed));
             // Complete iff the member's stop (if any) had not fired by the
             // time this task finished; conservative under real
             // concurrency, exact under serial execution.
             slot.complete = req.ctx == nullptr || !req.ctx->stopped();
           }
           return Status::OK();
         },
         part->data_bytes});
    lo = hi;
  }

  // Infrastructure failures fail the stage — and with it every member,
  // exactly as each standalone call would have failed. A lone search's
  // own stop degrades instead.
  std::vector<uint8_t> kept;
  const Status stage = cluster_->RunStage(
      std::move(tasks), StageOpts(n == 1 ? "search" : "search.batch", stage_ctx),
      &kept);
  for (size_t m = 0; m < n; ++m) {
    QueryContext* const ctx = reqs[members[m]].ctx;
    if (ctx != nullptr) {
      ctx->ObserveVirtualSeconds(cluster_->MakespanSince(snap));
    }
  }
  const bool stage_degraded = !stage.ok() && ShouldDegrade(stage_ctx, stage);
  if (!stage.ok() && !stage_degraded) {
    for (const size_t i : members) results[i] = stage;
    return;
  }

  // Each member merges its slots that ran to completion, in its relevant
  // (ascending pid) order — the order its keys appear in the sorted array.
  // A complete query merges everything, so a member cut short returns a
  // well-defined subset.
  std::vector<const SearchLocalOut*> slots(num_slots, nullptr);
  {
    size_t task = 0;
    for (size_t k = 0; k < num_slots; ++k) {
      if (k > 0 && pid_of(k) != pid_of(k - 1)) ++task;
      Member& mb = ms[member_of(k)];
      const bool merged = (kept.empty() || kept[task]) && outs[k].complete;
      slots[mb.first_slot++] = merged ? &outs[k] : nullptr;
      mb.dropped = mb.dropped || !merged;
    }
  }
  size_t total_candidates = 0;
  size_t total_results = 0;
  for (size_t m = 0; m < n; ++m) {
    const QueryRequest& req = reqs[members[m]];
    if (stage_degraded || ms[m].dropped) {
      m_query_degraded_.Increment();
      if (tracer_ != nullptr) tracer_->Instant("query.degraded");
    }
    const size_t count = ms[m].relevant.size();
    const size_t first = ms[m].first_slot - count;
    QueryResult res;
    res.kind = QueryKind::kSearch;
    QueryStats* qstats = req.collect_stats ? &res.search_stats : nullptr;
    size_t candidates = 0;
    res.ids = MergeSearch(ms[m].relevant,
                          std::span<const SearchLocalOut* const>(
                              slots.data() + first, count),
                          qstats, req.ctx, snap, &candidates,
                          ms[m].sketch_pruned);
    if (qstats != nullptr) qstats->admission_wait_seconds = admission_wait;
    total_candidates += candidates;
    total_results += res.ids.size();
    results[members[m]] = std::move(res);
  }
  if (n > 1) query_span.Arg("queries", n);
  query_span.Arg("partitions_probed", num_slots);
  query_span.Arg("candidates", total_candidates);
  query_span.Arg("results", total_results);
}

Result<std::vector<std::pair<TrajectoryId, double>>> DitaEngine::KnnSearchImpl(
    const Trajectory& q, size_t k, QueryStats* stats, QueryContext* ctx,
    const std::unordered_set<TrajectoryId>* excluded,
    size_t* excluded_seen) const {
  using Neighbor = std::pair<TrajectoryId, double>;
  const auto rank_less = [](const Neighbor& a, const Neighbor& b) {
    return KnnRankLess(a, b);
  };
  const auto is_excluded = [excluded](TrajectoryId id) {
    return excluded != nullptr && excluded->count(id) > 0;
  };
  const Cluster::CostSnapshot snap = cluster_->Snapshot();
  obs::SpanGuard knn_span(tracer_, "knn.query");
  knn_span.Arg("k", k);
  CpuTimer driver_timer;

  // Every partition's lower bound on its members' distances to q, from the
  // global index's endpoint MBRs. A DTW warping path matches first points
  // to first and last to last in two distinct cells, so the two MBR
  // distances add up; under Frechet each is a term of the max. Edit
  // distances and ERP may edit or gap-match an endpoint away: their bound
  // is 0, and the endpoint sum only orders the visit.
  struct Ranked {
    double lb;
    double order;
    uint32_t pid;
  };
  std::vector<Ranked> ranked(partitions_.size());
  for (uint32_t pid = 0; pid < partitions_.size(); ++pid) {
    const GlobalIndex::PartitionSummary& s = global_.summary(pid);
    const double df = s.mbr_first.MinDist(q.front());
    const double dl = s.mbr_last.MinDist(q.back());
    double lb = 0.0;
    if (config_.distance == DistanceType::kDTW) lb = df + dl;
    if (config_.distance == DistanceType::kFrechet) lb = std::max(df, dl);
    ranked[pid] = Ranked{lb, df + dl, pid};
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return std::tie(a.lb, a.order, a.pid) < std::tie(b.lb, b.order, b.pid);
  });

  // Seed bound U: the exact distances of the k members whose first and
  // last points lie nearest the query's, from the best-ranked partitions.
  // Any k real distances bound the k-th nearest from above, under every
  // metric. The seeds fill the heap (a max-heap under KnnRankLess), so it
  // is full from the start and its top is the running bound.
  std::vector<Neighbor> heap;
  std::mutex heap_mu;  // guards `heap` while the stage's tasks run
  heap.reserve(k);
  {
    DpScratch& scratch = DpScratch::ThreadLocal();
    const TrajView qv = scratch.ExtractB(q);
    std::vector<std::pair<double, uint32_t>> nearest;  // (endpoint sum, pos)
    for (const Ranked& r : ranked) {
      if (heap.size() == k) break;
      const Partition& part = partitions_[r.pid];
      nearest.clear();
      for (uint32_t pos = 0; pos < part.trie.size(); ++pos) {
        const Trajectory& t = part.trie.trajectory(pos);
        if (is_excluded(t.id())) continue;
        nearest.emplace_back(PointDistance(t.front(), q.front()) +
                                 PointDistance(t.back(), q.back()),
                             pos);
      }
      const size_t take = std::min(nearest.size(), k - heap.size());
      std::partial_sort(nearest.begin(), nearest.begin() + take,
                        nearest.end());
      for (size_t i = 0; i < take; ++i) {
        const uint32_t pos = nearest[i].second;
        heap.emplace_back(
            part.trie.trajectory(pos).id(),
            distance_->Compute(part.precomp[pos].soa.view(), qv, &scratch));
      }
    }
  }
  DITA_CHECK(heap.size() == k);
  std::make_heap(heap.begin(), heap.end(), rank_less);
  const double seed_bound = heap.front().second;

  // One probe at U: no member of an irrelevant (or sketch-pruned) partition
  // lies within U. The sketch is dilated once, at U, which covers every
  // tighter bound the pass reaches.
  const bool sketch = SketchActive();
  SigBits dilated;
  if (sketch) dilated = DilatedQuerySig(q, seed_bound);
  std::vector<uint8_t> relevant(partitions_.size(), 0);
  for (const uint32_t pid :
       ProbePartitions(q, seed_bound, sketch ? &dilated : nullptr, nullptr)) {
    relevant[pid] = 1;
  }
  std::erase_if(ranked, [&](const Ranked& r) { return !relevant[r.pid]; });
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  // One stage visits the relevant partitions in ascending lower-bound
  // order. The tasks share the heap; the bound (its top distance) only
  // shrinks, so each later partition collects and scores at a tighter one.
  std::atomic<double> bound{seed_bound};
  const auto offer = [&](TrajectoryId id, double d) {
    std::lock_guard<std::mutex> lock(heap_mu);
    if (!KnnRankLess(d, id, heap.front().second, heap.front().first)) return;
    for (const Neighbor& e : heap) {
      if (e.first == id) return;  // a seed, met again in its partition
    }
    std::pop_heap(heap.begin(), heap.end(), rank_less);
    heap.back() = Neighbor{id, d};
    std::push_heap(heap.begin(), heap.end(), rank_less);
    bound.store(heap.front().second);
  };
  struct PartOut {
    size_t candidates = 0;
    size_t excluded = 0;
    /// Every member that could rank was offered: false when a stop cut the
    /// task short.
    bool finished = false;
  };
  std::vector<PartOut> outs(ranked.size());
  std::vector<Cluster::Task> tasks;
  tasks.reserve(ranked.size());
  for (size_t idx = 0; idx < ranked.size(); ++idx) {
    const Partition* part = &partitions_[ranked[idx].pid];
    const double lb = ranked[idx].lb;
    PartOut* out = &outs[idx];
    tasks.push_back({part->home_worker,
                     [&, part, lb, out] {
      // The heap is full: no member of a partition whose lower bound
      // exceeds its top can rank.
      double tau = bound.load();
      if (lb > tau) {
        out->finished = true;
        return Status::OK();
      }
      TrieIndex::SearchSpec spec = MakeSpec(q, tau);
      spec.ctx = ctx;
      DpScratch& scratch = DpScratch::ThreadLocal();
      std::vector<uint32_t>& candidates = scratch.Candidates();
      candidates.clear();
      part->trie.CollectCandidates(spec, &candidates);
      const TrajView qv = scratch.ExtractB(q);
      for (const uint32_t pos : candidates) {
        if (ctx != nullptr && ctx->stopped()) break;
        const TrajectoryId id = part->trie.trajectory(pos).id();
        if (is_excluded(id)) {
          ++out->excluded;
          continue;
        }
        // A candidate outside the U-dilated sketch lies farther than U.
        if (sketch && !part->precomp[pos].sig.bits.Empty() &&
            !part->precomp[pos].sig.bits.SubsetOf(dilated)) {
          continue;
        }
        // d <= bound keeps a tie with the top: it still competes on id.
        tau = bound.load();
        const double d = distance_->ComputeBounded(
            part->precomp[pos].soa.view(), qv, tau, &scratch);
        if (d <= tau) offer(id, d);
      }
      out->candidates = candidates.size();
      out->finished = ctx == nullptr || !ctx->stopped();
      return Status::OK();
                     },
                     part->data_bytes});
  }
  std::vector<uint8_t> kept;
  const Status stage = cluster_->RunStage(std::move(tasks),
                                          StageOpts("knn-search", ctx), &kept);
  if (ctx != nullptr) {
    ctx->ObserveVirtualSeconds(cluster_->MakespanSince(snap));
  }
  if (!stage.ok() && !ShouldDegrade(ctx, stage)) return stage;

  // A partition the pass did not finish may still hold members down to its
  // lower bound, so only heap entries strictly below the smallest such
  // bound are proven: they form a prefix of the kNN answer. A complete pass
  // finished everything and keeps the whole heap.
  double cutoff = std::numeric_limits<double>::infinity();
  size_t total_candidates = 0;
  size_t seen = 0;
  for (size_t idx = 0; idx < ranked.size(); ++idx) {
    if ((!kept.empty() && !kept[idx]) || !outs[idx].finished) {
      cutoff = std::min(cutoff, ranked[idx].lb);
      continue;
    }
    total_candidates += outs[idx].candidates;
    seen += outs[idx].excluded;
  }
  std::vector<Neighbor> result;
  result.reserve(k);
  for (const Neighbor& e : heap) {
    if (e.second < cutoff) result.push_back(e);
  }
  std::sort(result.begin(), result.end(), rank_less);
  if (ctx != nullptr && ctx->stopped()) {
    m_query_degraded_.Increment();
    if (tracer_ != nullptr) tracer_->Instant("query.degraded");
  }
  if (excluded_seen != nullptr) *excluded_seen = seen;
  knn_span.Arg("partitions_probed", ranked.size());
  knn_span.Arg("candidates", total_candidates);
  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->partitions_probed = ranked.size();
    stats->candidates = total_candidates;
    stats->results = result.size();
    stats->faults = cluster_->FaultsSince(snap);
    stats->termination = ctx != nullptr ? ctx->ToStatus() : Status::OK();
    stats->completeness =
        static_cast<double>(result.size()) / static_cast<double>(k);
  }
  return result;
}

Result<std::vector<DitaEngine::KnnJoinRow>> DitaEngine::KnnJoin(
    const DitaEngine& right, size_t k) const {
  if (!indexed_ || !right.indexed_) {
    return Status::Internal("KnnJoin before BuildIndex");
  }
  if (cluster_.get() != right.cluster_.get()) {
    return Status::InvalidArgument("joined tables must share a cluster");
  }
  if (k == 0) return std::vector<KnnJoinRow>{};
  if (k > right.index_stats_.num_trajectories) {
    return Status::InvalidArgument("k exceeds the right table cardinality");
  }

  // One kNN pass per left trajectory against the right index.
  std::vector<KnnJoinRow> rows;
  for (const Partition& part : partitions_) {
    for (const Trajectory& t : part.trie.trajectories()) {
      auto knn = right.KnnSearch(t, k);
      DITA_RETURN_IF_ERROR(knn.status());
      for (const auto& [id, d] : *knn) {
        rows.push_back(KnnJoinRow{t.id(), id, d});
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const KnnJoinRow& a, const KnnJoinRow& b) {
    if (a.left != b.left) return a.left < b.left;
    return KnnRankLess(a.distance, a.right, b.distance, b.right);
  });
  return rows;
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> DitaEngine::JoinImpl(
    const DitaEngine& right, double tau, JoinStats* stats,
    QueryContext* ctx) const {
  JoinPlanner planner(*this, right, tau, ctx);
  return planner.Run(stats);
}

}  // namespace dita
