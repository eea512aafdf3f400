#include "serving/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <cstring>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/export.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {

// ----------------------------------------------------------- answer cache --

namespace {

// splitmix64 fold step; seeds the two key lanes differently so the 128-bit
// digest has no cheap collisions across lanes.
uint64_t MixFold(uint64_t h, uint64_t v) {
  h += 0x9e3779b97f4a7c15ull + v;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Approximate resident bytes of a snapshot's unmerged delta: insert points
// plus the deleted-id set. Feeds the serving.delta.bytes gauge.
uint64_t DeltaBytes(const TableSnapshot& snap) {
  uint64_t bytes = 0;
  for (const Trajectory& t : snap.inserts) bytes += t.size() * sizeof(Point);
  bytes += snap.deleted.size() * sizeof(TrajectoryId);
  return bytes;
}

const char* KindName(uint8_t kind) {
  switch (static_cast<QueryKind>(kind)) {
    case QueryKind::kSearch:
      return "search";
    case QueryKind::kJoin:
      return "join";
    case QueryKind::kKnnSearch:
      return "knn";
  }
  return "unknown";
}

}  // namespace

AnswerCache::Key AnswerCache::KeyFor(const QueryRequest& req) {
  Key k{0x2545f4914f6cdd1dull, 0x6a09e667f3bcc909ull};
  const auto fold = [&k](uint64_t v) {
    k.h1 = MixFold(k.h1, v);
    k.h2 = MixFold(k.h2, k.h1 ^ v);
  };
  fold(static_cast<uint64_t>(req.kind));
  fold(DoubleBits(req.tau));
  fold(req.k);
  fold(req.collect_stats ? 1 : 0);
  fold(req.query.size());
  for (const Point& p : req.query.points()) {
    fold(DoubleBits(p.x));
    fold(DoubleBits(p.y));
  }
  return k;
}

void AnswerCache::Configure(size_t capacity, obs::MetricsRegistry* metrics) {
  capacity_ = capacity;
  if (capacity_ == 0) return;
  m_hits_ = {metrics, "serving.cache.hits"};
  m_misses_ = {metrics, "serving.cache.misses"};
  m_evictions_ = {metrics, "serving.cache.evictions"};
  m_invalidations_ = {metrics, "serving.cache.invalidations"};
}

bool AnswerCache::Lookup(const Key& key, uint64_t version, QueryResult* out) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1);
    m_misses_.Increment();
    return false;
  }
  if (it->second->version != version) {
    // A Store that raced a publish: provably dead (versions only grow), so
    // reclaim the slot now rather than waiting for LRU pressure.
    lru_.erase(it->second);
    index_.erase(it);
    misses_.fetch_add(1);
    m_misses_.Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->result;
  hits_.fetch_add(1);
  m_hits_.Increment();
  return true;
}

void AnswerCache::Store(const Key& key, uint64_t version,
                        const QueryResult& res) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->version = version;
    it->second->result = res;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, version, res});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1);
    m_evictions_.Increment();
  }
}

void AnswerCache::InvalidateAll() {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  invalidations_.fetch_add(1);
  m_invalidations_.Increment();
}

DitaService::DitaService(std::shared_ptr<Cluster> cluster,
                         const DitaConfig& config)
    : cluster_(std::move(cluster)),
      config_(config),
      base_config_(config),
      flight_recorder_(config.serving.flight_recorder_entries) {
  DITA_CHECK(cluster_ != nullptr);
  base_config_.serving.max_inflight_queries = 0;
  auto dist = MakeDistance(config_.distance, config_.distance_params);
  DITA_CHECK(dist.ok());
  distance_ = *dist;
  verifier_ = std::make_unique<Verifier>(distance_, config_);

  QueryScheduler::Options sopts;
  sopts.slots = config_.serving.scheduler_slots > 0
                    ? config_.serving.scheduler_slots
                    : cluster_->num_workers();
  sopts.max_inflight = config_.serving.max_inflight_queries;
  if (config_.serving.max_queued_queries > 0) {
    sopts.max_queued = config_.serving.max_queued_queries;
  }
  sopts.max_bypass = config_.serving.max_bypass;
  scheduler_ = std::make_unique<QueryScheduler>(sopts);

  tracer_ =
      config_.enable_tracing ? cluster_->EnableTracing() : cluster_->tracer();
  metrics_ =
      config_.enable_metrics ? cluster_->EnableMetrics() : cluster_->metrics();
  m_inserts_ = {metrics_, "serving.inserts"};
  m_deletes_ = {metrics_, "serving.deletes"};
  m_merges_ = {metrics_, "serving.merges"};
  m_queries_ = {metrics_, "serving.queries"};
  m_delta_scanned_ = {metrics_, "serving.delta.scanned"};
  m_coalesced_queries_ = {metrics_, "serving.batch.coalesced"};
  h_batch_size_ = {metrics_, "serving.batch.size", obs::CountOptions()};
  h_latency_search_ = {metrics_, "serving.latency.search_seconds",
                       obs::LatencyOptions()};
  h_latency_join_ = {metrics_, "serving.latency.join_seconds",
                     obs::LatencyOptions()};
  h_latency_knn_ = {metrics_, "serving.latency.knn_seconds",
                    obs::LatencyOptions()};
  h_queue_wait_ = {metrics_, "serving.queue_wait_seconds",
                   obs::LatencyOptions()};
  g_inflight_cost_ = {metrics_, "serving.inflight_cost"};
  g_queue_depth_ = {metrics_, "serving.queue.depth"};
  g_pinned_snapshots_ = {metrics_, "serving.pinned_snapshots"};
  g_delta_bytes_ = {metrics_, "serving.delta.bytes"};
  g_merge_backlog_ = {metrics_, "serving.merge.backlog"};
  answer_cache_.Configure(config_.serving.answer_cache_entries, metrics_);
}

DitaService::~DitaService() { Stop(); }

Status DitaService::Start(const Dataset& initial) {
  if (started_) return Status::Internal("DitaService::Start called twice");

  auto snap = std::make_shared<TableSnapshot>();
  auto ids = std::make_shared<std::unordered_set<TrajectoryId>>();
  // BuildIndex validates the trajectories themselves.
  for (const Trajectory& t : initial.trajectories()) {
    if (!ids->insert(t.id()).second) {
      return Status::InvalidArgument("duplicate trajectory id in initial data");
    }
  }
  if (!initial.empty()) {
    auto base = std::make_shared<DitaEngine>(cluster_, base_config_);
    DITA_RETURN_IF_ERROR(base->BuildIndex(initial));
    snap->base = std::move(base);
  }
  snap->base_ids = std::move(ids);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_ = std::move(snap);
  }
  started_ = true;

  if (!config_.serving.synchronous_merge) {
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
  const size_t nexec = std::max<size_t>(1, config_.serving.scheduler_threads);
  executors_.reserve(nexec);
  for (size_t i = 0; i < nexec; ++i) {
    executors_.emplace_back([this, i] { ExecutorLoop(i); });
  }
  return Status::OK();
}

void DitaService::Stop() {
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    if (stop_.load()) return;
    stop_.store(true);
  }
  merge_cv_.notify_all();
  {
    // Taken and dropped so a worker between its predicate check and its
    // block still sees the notify.
    std::lock_guard<std::mutex> lock(jobs_mu_);
  }
  jobs_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  // Fail whatever Submit jobs were still queued.
  std::deque<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    orphans.swap(jobs_);
  }
  for (Job& j : orphans) {
    j.promise.set_value(Status::Unavailable("service stopped"));
  }
}

std::shared_ptr<const TableSnapshot> DitaService::Pin() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snap_;
}

uint64_t DitaService::merges() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return merges_;
}

// ---------------------------------------------------------------- ingest --

Status DitaService::Insert(const Trajectory& t) {
  if (!started_) return Status::Internal("DitaService used before Start");
  DITA_RETURN_IF_ERROR(DitaEngine::ValidateTrajectory(t));
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    if (cur->IsLive(t.id())) {
      return Status::InvalidArgument("trajectory id is already live");
    }
    auto next = std::make_shared<TableSnapshot>(*cur);
    next->version = cur->version + 1;
    next->inserts.push_back(t);
    // Quantize the delta sketch once, here, in the epoch base's frame; the
    // delta scan of every future query reuses it (all-zero when the base
    // has no sketch tier, which also disables the scan-side test).
    next->insert_sigs.emplace_back();
    if (cur->base != nullptr && cur->base->SketchActive()) {
      next->insert_sigs.back() = BuildSignature(t, cur->base->sig_grid());
    }
    if (merging_) op_log_.push_back(Op{true, t, -1});
    {
      std::lock_guard<std::mutex> slock(snap_mu_);
      snap_ = std::move(next);
    }
  }
  answer_cache_.InvalidateAll();
  m_inserts_.Increment();
  inserts_count_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::shared_ptr<const TableSnapshot> now_snap = Pin();
    g_delta_bytes_.Set(static_cast<int64_t>(DeltaBytes(*now_snap)));
    g_merge_backlog_.Set(static_cast<int64_t>(now_snap->delta_ops()));
  }
  MaybeScheduleMerge();
  return Status::OK();
}

Status DitaService::Delete(TrajectoryId id) {
  if (!started_) return Status::Internal("DitaService used before Start");
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    auto next = std::make_shared<TableSnapshot>(*cur);
    next->version = cur->version + 1;
    const auto it = std::find_if(
        next->inserts.begin(), next->inserts.end(),
        [id](const Trajectory& t) { return t.id() == id; });
    if (it != next->inserts.end()) {
      // A pending insert dies in the buffer; it never reaches `deleted`.
      next->insert_sigs.erase(next->insert_sigs.begin() +
                              (it - next->inserts.begin()));
      next->inserts.erase(it);
    } else if (cur->InBase(id) && cur->deleted.count(id) == 0) {
      next->deleted.insert(id);
    } else {
      return Status::NotFound("trajectory id is not live");
    }
    if (merging_) op_log_.push_back(Op{false, Trajectory(), id});
    {
      std::lock_guard<std::mutex> slock(snap_mu_);
      snap_ = std::move(next);
    }
  }
  answer_cache_.InvalidateAll();
  m_deletes_.Increment();
  deletes_count_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::shared_ptr<const TableSnapshot> now_snap = Pin();
    g_delta_bytes_.Set(static_cast<int64_t>(DeltaBytes(*now_snap)));
    g_merge_backlog_.Set(static_cast<int64_t>(now_snap->delta_ops()));
  }
  MaybeScheduleMerge();
  return Status::OK();
}

void DitaService::MaybeScheduleMerge() {
  bool need = false;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    need = !merging_ &&
           Pin()->delta_ops() >= config_.serving.merge_threshold &&
           config_.serving.merge_threshold > 0;
  }
  if (!need) return;
  if (config_.serving.synchronous_merge) {
    // Inline merge: deterministic for tests and single-threaded harnesses.
    // Failure leaves the delta intact (queries stay exact, just slower), so
    // dropping the status here loses nothing but the retry.
    const Status merged = MergeOnce();
    (void)merged;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    merge_requested_ = true;
  }
  merge_cv_.notify_one();
}

Status DitaService::ForceMerge() {
  if (!started_) return Status::Internal("DitaService used before Start");
  return MergeOnce();
}

Status DitaService::MergeOnce() {
  std::shared_ptr<const TableSnapshot> src;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (merging_) return Status::OK();  // another merge is already running
    src = Pin();
    if (src->delta_ops() == 0) return Status::OK();
    merging_ = true;
    op_log_.clear();
  }
  // Merge-busy window: queries bracket MergeBusyAt() readings around their
  // run to compute merge_overlap_seconds.
  const double merge_start = NowSeconds();
  merge_started_bits_.store(std::bit_cast<uint64_t>(merge_start),
                            std::memory_order_release);
  const auto close_busy_window = [&] {
    const double busy = std::bit_cast<double>(
        merge_busy_bits_.load(std::memory_order_relaxed));
    merge_busy_bits_.store(
        std::bit_cast<uint64_t>(busy + (NowSeconds() - merge_start)),
        std::memory_order_relaxed);
    merge_started_bits_.store(kMergeIdleBits, std::memory_order_release);
  };
  // The merge body runs on its own trace lane regardless of which thread
  // drives it (background loop, ForceMerge caller, or a synchronous write).
  obs::Tracer::ScopedLane merge_lane(obs::kMergeLane);
  obs::SpanGuard merge_span(tracer_, "serving.merge");

  // Rebuild outside the write lock: queries keep answering from the old
  // snapshot, and concurrent writes keep landing in the *current* snapshot
  // (visible immediately) while also being recorded in op_log_ for replay.
  // The base engine's tries own every base trajectory, so the merge input
  // is read from its partitions: (base \ deleted) + inserts.
  std::vector<Trajectory> new_data;
  new_data.reserve(src->base_size() - src->deleted.size() +
                   src->inserts.size());
  if (src->base != nullptr) {
    for (const DitaEngine::Partition& part : src->base->partitions_) {
      for (const Trajectory& t : part.trie.trajectories()) {
        if (src->deleted.count(t.id()) == 0) new_data.push_back(t);
      }
    }
  }
  for (const Trajectory& t : src->inserts) new_data.push_back(t);

  std::shared_ptr<DitaEngine> base;
  if (!new_data.empty()) {
    base = std::make_shared<DitaEngine>(cluster_, base_config_);
    const Status built = base->BuildIndex(Dataset(new_data));
    if (!built.ok()) {
      std::lock_guard<std::mutex> lock(write_mu_);
      merging_ = false;
      op_log_.clear();
      close_busy_window();
      return built;
    }
  }

  auto ids = std::make_shared<std::unordered_set<TrajectoryId>>();
  ids->reserve(new_data.size());
  for (const Trajectory& t : new_data) ids->insert(t.id());

  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    auto next = std::make_shared<TableSnapshot>();
    next->epoch = src->epoch + 1;
    next->version = cur->version + 1;
    next->base = std::move(base);
    next->base_ids = std::move(ids);
    // Replay writes that raced the rebuild: they are already visible in
    // `cur`'s delta, but against the *old* base; re-expressing them against
    // the new base keeps the live set identical across the publish.
    for (Op& op : op_log_) {
      if (op.is_insert) {
        // The replayed insert belongs to the *new* epoch's delta, so its
        // sketch must be quantized in the new base's frame.
        next->insert_sigs.emplace_back();
        if (next->base != nullptr && next->base->SketchActive()) {
          next->insert_sigs.back() =
              BuildSignature(op.insert, next->base->sig_grid());
        }
        next->inserts.push_back(std::move(op.insert));
        continue;
      }
      const auto it = std::find_if(
          next->inserts.begin(), next->inserts.end(),
          [&op](const Trajectory& t) { return t.id() == op.erase; });
      if (it != next->inserts.end()) {
        next->insert_sigs.erase(next->insert_sigs.begin() +
                                (it - next->inserts.begin()));
        next->inserts.erase(it);
      } else if (next->base_ids->count(op.erase) > 0) {
        next->deleted.insert(op.erase);
      }
    }
    op_log_.clear();
    merging_ = false;
    ++merges_;
    {
      std::lock_guard<std::mutex> slock(snap_mu_);
      snap_ = std::move(next);
    }
  }
  close_busy_window();
  answer_cache_.InvalidateAll();
  m_merges_.Increment();
  if (tracer_ != nullptr) tracer_->Instant("serving.epoch.published");
  {
    const std::shared_ptr<const TableSnapshot> now_snap = Pin();
    g_delta_bytes_.Set(static_cast<int64_t>(DeltaBytes(*now_snap)));
    g_merge_backlog_.Set(static_cast<int64_t>(now_snap->delta_ops()));
  }
  // Writes that raced the rebuild may already exceed the threshold again.
  MaybeScheduleMerge();
  return Status::OK();
}

void DitaService::MergeLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(merge_mu_);
      merge_cv_.wait(lock,
                     [this] { return merge_requested_ || stop_.load(); });
      if (stop_.load()) return;
      merge_requested_ = false;
    }
    // Background merge failures (e.g. a fault-injected build) are retried
    // on the next threshold crossing; the delta keeps queries exact
    // meanwhile.
    const Status merged = MergeOnce();
    (void)merged;
  }
}

double DitaService::MergeBusyAt(double now) const {
  const double busy =
      std::bit_cast<double>(merge_busy_bits_.load(std::memory_order_relaxed));
  const uint64_t started = merge_started_bits_.load(std::memory_order_acquire);
  if (started == kMergeIdleBits) return busy;
  const double since = now - std::bit_cast<double>(started);
  return busy + (since > 0.0 ? since : 0.0);
}

void DitaService::FinishRequest(obs::RequestRecord* rec, double end_seconds,
                                Result<QueryResult>* res) const {
  rec->total_seconds = end_seconds - rec->arrival_seconds;
  // finalize is defined as the remainder, so the telescoping invariant
  // (PhaseSum == total up to one rounding step) holds on every path —
  // including sheds and errors, where later phases never ran.
  const double accounted = rec->queue_seconds + rec->admission_seconds +
                           rec->cache_seconds + rec->pin_seconds +
                           rec->base_seconds + rec->delta_seconds;
  rec->finalize_seconds = rec->total_seconds - accounted;
  // On entry merge_overlap_seconds holds MergeBusyAt(arrival); the second
  // reading turns the stash into the overlap with background merge work.
  double overlap = MergeBusyAt(end_seconds) - rec->merge_overlap_seconds;
  rec->merge_overlap_seconds =
      std::clamp(overlap, 0.0, rec->total_seconds);

  const Status& st = res->status();
  rec->status_code = static_cast<uint8_t>(st.code());
  if (res->ok()) {
    const QueryResult& qr = **res;
    rec->epoch = qr.serving.epoch;
    rec->version = qr.serving.version;
    const size_t produced = qr.kind == QueryKind::kSearch
                                ? qr.ids.size()
                                : (qr.kind == QueryKind::kJoin
                                       ? qr.pairs.size()
                                       : qr.neighbors.size());
    rec->results = static_cast<uint32_t>(
        std::min<size_t>(produced, std::numeric_limits<uint32_t>::max()));
    const Status& term = qr.kind == QueryKind::kJoin
                             ? qr.join_stats.termination
                             : qr.search_stats.termination;
    const double completeness = qr.kind == QueryKind::kJoin
                                    ? qr.join_stats.completeness
                                    : qr.search_stats.completeness;
    if (!term.ok() || completeness < 1.0) {
      rec->flags |= obs::RequestRecord::kDegraded;
      degraded_count_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (st.code() == Status::Code::kUnavailable ||
             st.code() == Status::Code::kResourceExhausted) {
    rec->flags |= obs::RequestRecord::kShed;
    shed_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Always-on rollup (feeds Stats() / the SLO report even with
  // enable_metrics off) plus the registry mirrors. Latency histograms cover
  // every terminal outcome, sheds included — their wait-then-reject time is
  // part of what callers experienced.
  queue_wait_hist_.Observe(rec->queue_seconds);
  admission_wait_hist_.Observe(rec->admission_seconds);
  h_queue_wait_.Observe(rec->queue_seconds);
  switch (static_cast<QueryKind>(rec->kind)) {
    case QueryKind::kSearch:
      lat_search_.Observe(rec->total_seconds);
      h_latency_search_.Observe(rec->total_seconds);
      break;
    case QueryKind::kJoin:
      lat_join_.Observe(rec->total_seconds);
      h_latency_join_.Observe(rec->total_seconds);
      break;
    case QueryKind::kKnnSearch:
      lat_knn_.Observe(rec->total_seconds);
      h_latency_knn_.Observe(rec->total_seconds);
      break;
  }
  flight_recorder_.Record(*rec);
  if (res->ok()) (*res)->serving.lifecycle = *rec;
}

// --------------------------------------------------------------- queries --

uint64_t DitaService::EstimateCost(const TableSnapshot& snap,
                                   const QueryRequest& req) const {
  if (req.cost_hint > 0) return req.cost_hint;
  if (snap.base == nullptr) return 1;
  if (req.kind == QueryKind::kJoin) {
    QueryRequest probe = req;
    probe.join_right_service = nullptr;
    probe.join_right = nullptr;
    if (req.join_right_service != nullptr &&
        req.join_right_service != this) {
      const std::shared_ptr<const TableSnapshot> rs =
          req.join_right_service->Pin();
      if (rs->base != nullptr) probe.join_right = rs->base.get();
    } else if (req.join_right != nullptr) {
      probe.join_right = req.join_right;
    }
    // A null probe.join_right means self-join against our own base.
    return snap.base->EstimateQueryCost(probe);
  }
  return snap.base->EstimateQueryCost(req);
}

Result<QueryResult> DitaService::Execute(const QueryRequest& req) const {
  const double arrival = NowSeconds();
  Result<QueryResult> out = Status::Internal("request not served");
  Serve({&req, 1}, &arrival, 0, &out);
  return out;
}

void DitaService::Serve(std::span<const QueryRequest> reqs,
                        const double* arrivals, uint8_t extra_flags,
                        Result<QueryResult>* out) const {
  if (!started_) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      out[i] = Status::Internal("DitaService used before Start");
    }
    return;
  }
  const double t_pickup = NowSeconds();
  std::vector<obs::RequestRecord> recs(reqs.size());
  std::vector<size_t> live;
  live.reserve(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    DITA_CHECK(reqs.size() == 1 || Coalescible(reqs[i]));
    obs::RequestRecord& rec = recs[i];
    rec.request_id = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    rec.kind = static_cast<uint8_t>(reqs[i].kind);
    rec.flags = extra_flags;
    rec.arrival_seconds = arrivals != nullptr ? arrivals[i] : t_pickup;
    // Stash MergeBusyAt(arrival); FinishRequest turns it into the overlap.
    rec.merge_overlap_seconds = MergeBusyAt(rec.arrival_seconds);
    rec.queue_seconds = t_pickup - rec.arrival_seconds;
    const Status valid = DitaEngine::ValidateRequest(reqs[i]);
    if (!valid.ok()) {
      out[i] = valid;
      FinishRequest(&rec, NowSeconds(), &out[i]);
      continue;
    }
    live.push_back(i);
  }

  // Answer cache (DESIGN.md §5g): a hit returns the stored result without
  // an admission grant — the point of the tier is that repeated reads skip
  // the scheduler and the engine entirely. Joins are never cached (their
  // answer depends on a second table's state), nor are context-carrying
  // requests (a deadline/budget can degrade the answer). Each hit is
  // consistent with the version it was stored against.
  const auto cacheable = [&](size_t i) {
    const QueryRequest& req = reqs[i];
    return answer_cache_.enabled() && req.ctx == nullptr &&
           req.kind != QueryKind::kJoin && req.join_right == nullptr &&
           req.join_right_service == nullptr;
  };
  if (answer_cache_.enabled()) {
    const uint64_t version = Pin()->version;
    std::erase_if(live, [&](size_t i) {
      if (!cacheable(i)) return false;
      QueryResult hit;
      const bool got =
          answer_cache_.Lookup(AnswerCache::KeyFor(reqs[i]), version, &hit);
      if (tracer_ != nullptr) {
        tracer_->Instant(got ? "serving.cache.hit" : "serving.cache.miss",
                         obs::kCacheLane);
      }
      if (!got) return false;
      obs::RequestRecord& rec = recs[i];
      rec.flags |= obs::RequestRecord::kCacheHit;
      rec.cache_seconds = NowSeconds() - t_pickup;
      m_queries_.Increment();
      if (reqs[i].collect_stats) RecordExplain(hit);
      out[i] = std::move(hit);
      FinishRequest(&rec, NowSeconds(), &out[i]);
      return true;
    });
  }
  if (live.empty()) return;
  const size_t n = live.size();
  const double t_cache = NowSeconds();

  // One fair-share grant covers the group: the members' summed cost at the
  // most urgent member's priority, so the scheduler sees the same load the
  // standalone calls would have presented. A lone request waits under its
  // own context. Cost is estimated against the snapshot current at
  // arrival; the body runs on the snapshot pinned *after* the grant, so it
  // sees every write that completed before it was scheduled.
  uint64_t cost = 0;
  int priority = reqs[live[0]].priority;
  {
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    for (const size_t i : live) {
      cost += EstimateCost(*cur, reqs[i]);
      priority = std::min(priority, reqs[i].priority);
    }
  }
  QueryScheduler::Grant grant;
  const Status admitted = scheduler_->Acquire(
      priority, cost, n == 1 ? reqs[live[0]].ctx : nullptr, &grant);
  const double t_admit = NowSeconds();
  g_inflight_cost_.Set(static_cast<int64_t>(scheduler_->slots_in_use()));
  for (const size_t i : live) {
    recs[i].cache_seconds = t_cache - t_pickup;
    recs[i].admission_seconds = t_admit - t_cache;
    if (n > 1) recs[i].flags |= obs::RequestRecord::kCoalesced;
  }
  const auto finish = [&](size_t i) {
    if (reqs[i].ctx != nullptr) {
      recs[i].stop_cause = static_cast<uint8_t>(reqs[i].ctx->stop_cause());
    }
    FinishRequest(&recs[i], NowSeconds(), &out[i]);
  };
  if (!admitted.ok()) {
    for (const size_t i : live) {
      out[i] = admitted;
      finish(i);
    }
    return;
  }
  const std::shared_ptr<const TableSnapshot> snap = Pin();
  g_pinned_snapshots_.Set(
      pinned_queries_.fetch_add(1, std::memory_order_relaxed) + 1);
  obs::SpanGuard span(tracer_, n == 1 ? "serving.query" : "serving.query.batch");
  span.Arg("epoch", snap->epoch);
  if (n > 1) span.Arg("queries", n);
  m_queries_.Add(n);
  const double t_pin = NowSeconds();

  // Searches share one snapshot body; kNN and joins run alone.
  PhaseSplit split;
  const QueryRequest& first = reqs[live[0]];
  if (first.kind == QueryKind::kSearch) {
    SearchSnapshot(*snap, reqs, live, out, &split);
  } else if (first.kind == QueryKind::kKnnSearch) {
    out[live[0]] = KnnSnapshot(*snap, first, &split);
  } else {
    out[live[0]] = JoinTargets(*snap, first, &split);
  }
  g_pinned_snapshots_.Set(
      pinned_queries_.fetch_sub(1, std::memory_order_relaxed) - 1);
  // Attribute the body: the split stamps separate base-index work from the
  // delta scan; an unstamped boundary (error exits) folds into base.
  const double body_end = NowSeconds();
  const double base_done =
      split.base_done_seconds > 0.0 ? split.base_done_seconds : body_end;
  const double delta_done =
      split.delta_done_seconds > 0.0 ? split.delta_done_seconds : body_end;
  for (const size_t i : live) {
    recs[i].pin_seconds = t_pin - t_admit;
    recs[i].base_seconds = base_done - t_pin;
    recs[i].delta_seconds = delta_done - base_done;
    if (out[i].ok()) {
      QueryResult& res = *out[i];
      res.serving.epoch = snap->epoch;
      res.serving.version = snap->version;
      m_delta_scanned_.Add(res.serving.delta_scanned);
      if (reqs[i].collect_stats) RecordExplain(res);
      // Only complete answers are cacheable; a hit is indistinguishable
      // from a recompute only when the stored result is the full one. The
      // version tag makes a Store racing a publish harmless (Lookup
      // rejects it).
      if (cacheable(i) && res.search_stats.termination.ok() &&
          res.search_stats.completeness >= 1.0) {
        answer_cache_.Store(AnswerCache::KeyFor(reqs[i]), snap->version, res);
      }
    }
    finish(i);
  }
}

Result<QueryResult> DitaService::JoinTargets(const TableSnapshot& snap,
                                             const QueryRequest& req,
                                             PhaseSplit* split) const {
  if (req.join_right_service != nullptr && req.join_right != nullptr) {
    return Status::InvalidArgument(
        "set at most one of join_right / join_right_service");
  }
  if (req.join_right_service != nullptr && req.join_right_service != this) {
    if (req.join_right_service->cluster_.get() != cluster_.get()) {
      return Status::InvalidArgument("joined tables must share a cluster");
    }
    const std::shared_ptr<const TableSnapshot> rsnap =
        req.join_right_service->Pin();
    return JoinSnapshots(snap, *rsnap, req, split);
  }
  if (req.join_right != nullptr) {
    // Bare-engine right side: wrap it as a deltaless snapshot.
    TableSnapshot rsnap;
    rsnap.base = std::shared_ptr<const DitaEngine>(
        std::shared_ptr<const DitaEngine>(), req.join_right);
    return JoinSnapshots(snap, rsnap, req, split);
  }
  return JoinSnapshots(snap, snap, req, split);
}

std::future<Result<QueryResult>> DitaService::Submit(QueryRequest req) const {
  Job job;
  job.req = std::move(req);
  job.enqueue_seconds = NowSeconds();
  std::future<Result<QueryResult>> fut = job.promise.get_future();
  if (stop_.load() || !started_) {
    job.promise.set_value(Status::Unavailable("service stopped"));
    return fut;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(job));
    g_queue_depth_.Set(static_cast<int64_t>(jobs_.size()));
  }
  jobs_cv_.notify_one();
  return fut;
}

void DitaService::ExecutorLoop(size_t executor_index) {
  // Every span / instant this thread emits lands on its own serving lane
  // ("serving.exec N" in the exported trace).
  obs::Tracer::ScopedLane lane(obs::ServingExecutorLane(executor_index));
  const size_t max_batch = std::max<size_t>(1, config_.serving.max_batch_size);
  while (true) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock,
                    [this] { return !jobs_.empty() || stop_.load(); });
      if (jobs_.empty()) return;  // stop_ with an empty queue
      batch.push_back(std::move(jobs_.front()));
      jobs_.pop_front();
      if (max_batch > 1 && Coalescible(batch.front().req)) {
        // Coalesce the FIFO *prefix* of compatible queued requests —
        // stopping at the first incompatible one preserves submission
        // order across the batch boundary.
        while (batch.size() < max_batch && !jobs_.empty() &&
               Coalescible(jobs_.front().req)) {
          batch.push_back(std::move(jobs_.front()));
          jobs_.pop_front();
        }
        if (batch.size() < max_batch && jobs_.empty() && !stop_.load() &&
            config_.serving.batch_window_seconds > 0.0) {
          // Linger briefly for more compatible work; an incompatible
          // arrival or the window expiring closes the batch.
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      config_.serving.batch_window_seconds));
          while (batch.size() < max_batch && !stop_.load()) {
            const bool woke = jobs_cv_.wait_until(
                lock, deadline,
                [this] { return !jobs_.empty() || stop_.load(); });
            if (!woke || stop_.load()) break;  // window expired or stopping
            if (jobs_.empty() || !Coalescible(jobs_.front().req)) break;
            batch.push_back(std::move(jobs_.front()));
            jobs_.pop_front();
          }
        }
      }
      g_queue_depth_.Set(static_cast<int64_t>(jobs_.size()));
    }
    if (batch.size() > 1) {
      coalesced_batches_.fetch_add(1);
      coalesced_queries_.fetch_add(batch.size());
      m_coalesced_queries_.Add(batch.size());
      h_batch_size_.Observe(static_cast<double>(batch.size()));
    }
    std::vector<QueryRequest> reqs;
    std::vector<double> arrivals;
    reqs.reserve(batch.size());
    arrivals.reserve(batch.size());
    for (Job& j : batch) {
      reqs.push_back(std::move(j.req));
      arrivals.push_back(j.enqueue_seconds);
    }
    std::vector<Result<QueryResult>> results(
        batch.size(), Status::Internal("request not served"));
    Serve(reqs, arrivals.data(), obs::RequestRecord::kAsync, results.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results[i]));
    }
  }
}

std::vector<Result<QueryResult>> DitaService::ExecuteBatch(
    const std::vector<QueryRequest>& reqs) const {
  std::vector<Result<QueryResult>> out(reqs.size(),
                                       Status::Internal("request not served"));
  // The searches form one group; every other request is a group of one.
  std::vector<QueryRequest> searches;
  std::vector<size_t> at;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (Coalescible(reqs[i])) {
      at.push_back(i);
    } else {
      Serve({&reqs[i], 1}, nullptr, 0, &out[i]);
    }
  }
  if (at.size() == reqs.size()) {
    Serve(reqs, nullptr, 0, out.data());
    return out;
  }
  searches.reserve(at.size());
  for (const size_t i : at) searches.push_back(reqs[i]);
  std::vector<Result<QueryResult>> found(at.size(),
                                         Status::Internal("request not served"));
  Serve(searches, nullptr, 0, found.data());
  for (size_t j = 0; j < at.size(); ++j) out[at[j]] = std::move(found[j]);
  return out;
}

void DitaService::SearchSnapshot(const TableSnapshot& snap,
                                 std::span<const QueryRequest> reqs,
                                 std::span<const size_t> members,
                                 Result<QueryResult>* out,
                                 PhaseSplit* split) const {
  // Base index: one pass of the engine's search body over every member
  // (the requests were validated on arrival), minus answers whose id was
  // deleted.
  if (snap.base != nullptr) {
    snap.base->SearchBatchImpl(reqs, members, out);
  } else {
    for (const size_t i : members) out[i] = QueryResult{};
  }
  for (const size_t i : members) {
    if (!out[i].ok()) continue;
    QueryResult& res = *out[i];
    std::erase_if(res.ids, [&](TrajectoryId id) {
      if (snap.deleted.count(id) == 0) return false;
      ++res.serving.deleted_filtered;
      return true;
    });
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();

  // Delta scan: exact, because Verifier::Verify is the same accept
  // predicate the indexed path ends in (sound filters + thresholded DP).
  // Each insert's VerifyPrecomp is computed once and scored against every
  // member; per member the scan order, counters and funnel are those of a
  // lone search. The level-0 sketch test reuses the signatures Insert
  // quantized in the base's frame against each member's dilated set in
  // that same frame.
  if (!snap.inserts.empty()) {
    const size_t n = members.size();
    const bool sketch = snap.base != nullptr && snap.base->SketchActive();
    std::vector<VerifyPrecomp> qps(n);
    std::vector<SigBits> dsig(sketch ? n : 0);
    std::vector<VerifyStats> dstats(n);
    for (size_t m = 0; m < n; ++m) {
      const QueryRequest& req = reqs[members[m]];
      if (!out[members[m]].ok()) continue;
      qps[m] = verifier_->Precompute(req.query);
      if (sketch) dsig[m] = snap.base->DilatedQuerySig(req.query, req.tau);
    }
    for (size_t d = 0; d < snap.inserts.size(); ++d) {
      const Trajectory& t = snap.inserts[d];
      VerifyPrecomp tp = verifier_->Precompute(t);
      if (sketch) tp.sig = snap.insert_sigs[d];
      for (size_t m = 0; m < n; ++m) {
        if (!out[members[m]].ok()) continue;
        const QueryRequest& req = reqs[members[m]];
        QueryResult& res = *out[members[m]];
        ++res.serving.delta_scanned;
        if (verifier_->Verify(t, tp, req.query, qps[m], req.tau, &dstats[m],
                              sketch ? &dsig[m] : nullptr)) {
          res.ids.push_back(t.id());
          ++res.serving.delta_matches;
        }
      }
    }
    for (size_t m = 0; m < n; ++m) {
      if (!out[members[m]].ok() || !reqs[members[m]].collect_stats) continue;
      const VerifyStats& ds = dstats[m];
      obs::FilterFunnel& funnel = out[members[m]]->serving.delta_funnel;
      funnel.AddLevel("delta buffer", snap.inserts.size());
      funnel.AddLevel("sketch signature", ds.pairs - ds.pruned_by_sketch);
      funnel.AddLevel("mbr coverage",
                      ds.pairs - ds.pruned_by_sketch - ds.pruned_by_mbr);
      funnel.AddLevel("cell bound", ds.dp_computed);
      funnel.AddLevel("threshold dp", ds.accepted);
    }
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();
  for (const size_t i : members) {
    if (!out[i].ok()) continue;
    QueryResult& res = *out[i];
    std::sort(res.ids.begin(), res.ids.end());
    if (reqs[i].collect_stats) res.search_stats.results = res.ids.size();
  }
}

Result<QueryResult> DitaService::KnnSnapshot(const TableSnapshot& snap,
                                             const QueryRequest& req,
                                             PhaseSplit* split) const {
  QueryResult res;
  res.kind = QueryKind::kKnnSearch;
  if (req.k == 0) return res;
  if (req.k > snap.live_size()) {
    return Status::InvalidArgument("k exceeds the table cardinality");
  }
  std::vector<std::pair<TrajectoryId, double>> scored;
  // The base pass skips deleted ids outright, so it returns the top live
  // base answers (all of them when fewer than k are live), whatever the
  // delete backlog; deleted_filtered counts the deleted ids it met.
  const size_t kbase =
      std::min(req.k, snap.base_size() - snap.deleted.size());
  if (snap.base != nullptr && kbase > 0) {
    auto r = snap.base->KnnSearchImpl(
        req.query, kbase, req.collect_stats ? &res.search_stats : nullptr,
        req.ctx, &snap.deleted, &res.serving.deleted_filtered);
    DITA_RETURN_IF_ERROR(r.status());
    scored = std::move(*r);
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();
  // Delta trajectories are scored with the same bounded DP kernel the
  // engine uses, so merged distances are bit-comparable with the base's.
  // Once k live base answers exist, an insert farther than the k-th of them
  // cannot rank, so the k-th live base distance bounds the scan (`scored`
  // is still the engine's KnnRankLess order here); an insert at exactly
  // that distance keeps its exact value and competes on id.
  const double bound = scored.size() >= req.k
                           ? scored[req.k - 1].second
                           : std::numeric_limits<double>::infinity();
  DpScratch& scratch = DpScratch::ThreadLocal();
  const TrajView qv = scratch.ExtractB(req.query);
  for (const Trajectory& t : snap.inserts) {
    ++res.serving.delta_scanned;
    const double d =
        distance_->ComputeBounded(scratch.ExtractA(t), qv, bound, &scratch);
    if (d <= bound) scored.emplace_back(t.id(), d);
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return KnnRankLess(a, b); });
  if (scored.size() > req.k) scored.resize(req.k);
  for (const auto& [id, d] : scored) {
    (void)d;
    if (snap.base_ids == nullptr || snap.base_ids->count(id) == 0) {
      ++res.serving.delta_matches;
    }
  }
  res.neighbors = std::move(scored);
  if (req.collect_stats) res.search_stats.results = res.neighbors.size();
  return res;
}

namespace {

/// One threshold-search probe per delta trajectory, for a join's delta
/// terms: the join's tau and context, no per-probe stats.
std::vector<QueryRequest> DeltaProbes(const std::vector<Trajectory>& delta,
                                      const QueryRequest& join) {
  std::vector<QueryRequest> probes(delta.size());
  for (size_t d = 0; d < delta.size(); ++d) {
    probes[d].kind = QueryKind::kSearch;
    probes[d].query = delta[d];
    probes[d].tau = join.tau;
    probes[d].ctx = join.ctx;
    probes[d].collect_stats = false;
  }
  return probes;
}

}  // namespace

Result<QueryResult> DitaService::JoinSnapshots(const TableSnapshot& left,
                                               const TableSnapshot& right,
                                               const QueryRequest& req,
                                               PhaseSplit* split) const {
  QueryResult res;
  res.kind = QueryKind::kJoin;
  std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs;

  // Term 1: base x base through the distributed join, minus pairs whose
  // endpoint died. (The three terms partition live x live: term 1 covers
  // live-base x live-base, term 2 the left delta against everything live on
  // the right, term 3 the live left base against the right delta — disjoint
  // by construction, so no dedup pass is needed.)
  if (left.base != nullptr && right.base != nullptr) {
    QueryRequest base_req = req;
    base_req.join_right = right.base.get();
    base_req.join_right_service = nullptr;
    auto r = left.base->Execute(base_req);
    DITA_RETURN_IF_ERROR(r.status());
    res.join_stats = std::move(r->join_stats);
    for (const auto& [l, rr] : r->pairs) {
      if (left.deleted.count(l) > 0 || right.deleted.count(rr) > 0) {
        ++res.serving.deleted_filtered;
      } else {
        pairs.emplace_back(l, rr);
      }
    }
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();

  // Term 2: left delta x live right — the left inserts as one batch of
  // searches against the right snapshot, its base and its delta.
  if (!left.inserts.empty()) {
    const std::vector<QueryRequest> probes = DeltaProbes(left.inserts, req);
    std::vector<size_t> all(probes.size());
    for (size_t d = 0; d < all.size(); ++d) all[d] = d;
    std::vector<Result<QueryResult>> found(probes.size(), QueryResult{});
    SearchSnapshot(right, probes, all, found.data(), nullptr);
    for (size_t d = 0; d < probes.size(); ++d) {
      DITA_RETURN_IF_ERROR(found[d].status());
      const QueryResult& f = *found[d];
      res.serving.delta_scanned += 1 + f.serving.delta_scanned;
      res.serving.delta_matches += f.serving.delta_matches + f.ids.size();
      res.serving.deleted_filtered += f.serving.deleted_filtered;
      for (const TrajectoryId rid : f.ids) {
        pairs.emplace_back(left.inserts[d].id(), rid);
      }
    }
  }

  // Term 3: live left base x right delta, one batch of the right inserts
  // against the left base. Distance kernels are symmetric under argument
  // swap (the batch join already relies on this: edge orientation decides
  // which side ships), so searching the left base with a right-delta
  // trajectory tests exactly f(left, right) <= tau.
  if (left.base != nullptr && !right.inserts.empty()) {
    const std::vector<Result<QueryResult>> found =
        left.base->ExecuteBatch(DeltaProbes(right.inserts, req));
    for (size_t d = 0; d < found.size(); ++d) {
      DITA_RETURN_IF_ERROR(found[d].status());
      ++res.serving.delta_scanned;
      for (const TrajectoryId lid : found[d]->ids) {
        if (left.deleted.count(lid) > 0) {
          ++res.serving.deleted_filtered;
          continue;
        }
        pairs.emplace_back(lid, right.inserts[d].id());
        ++res.serving.delta_matches;
      }
    }
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();
  // A stop that fired in a delta term leaves a subset of the full join,
  // even when the base join itself completed.
  if (req.ctx != nullptr && res.join_stats.termination.ok()) {
    res.join_stats.termination = req.ctx->ToStatus();
  }

  std::sort(pairs.begin(), pairs.end());
  res.pairs = std::move(pairs);
  if (req.collect_stats) res.join_stats.result_pairs = res.pairs.size();
  return res;
}

// ---------------------------------------------------------------- explain --

void DitaService::RecordExplain(const QueryResult& res) const {
  // Copy-assignment reuses the funnels' level storage, so steady-state
  // recording allocates nothing; the text is built on demand.
  std::lock_guard<std::mutex> lock(explain_mu_);
  ExplainInputs& e = last_explain_;
  e.recorded = true;
  e.kind = res.kind;
  e.epoch = res.serving.epoch;
  e.version = res.serving.version;
  e.base_funnel = res.kind == QueryKind::kJoin ? res.join_stats.funnel
                                               : res.search_stats.funnel;
  e.delta_scanned = res.serving.delta_scanned;
  e.delta_matches = res.serving.delta_matches;
  e.deleted_filtered = res.serving.deleted_filtered;
  e.delta_funnel = res.serving.delta_funnel;
  e.results = res.kind == QueryKind::kSearch
                  ? res.ids.size()
                  : (res.kind == QueryKind::kJoin ? res.pairs.size()
                                                  : res.neighbors.size());
}

std::string DitaService::ExplainLastQuery() const {
  ExplainInputs e;
  {
    std::lock_guard<std::mutex> lock(explain_mu_);
    e = last_explain_;
  }
  if (!e.recorded) return "";
  const char* kind = e.kind == QueryKind::kSearch
                         ? "similarity search"
                         : (e.kind == QueryKind::kJoin ? "trajectory join"
                                                       : "knn search");
  std::ostringstream out;
  out << "== Serving query (" << kind << ") ==\n"
      << "epoch: " << e.epoch << ", version: " << e.version << "\n";
  if (!e.base_funnel.empty()) out << e.base_funnel.ToTable();
  out << "delta: scanned " << e.delta_scanned << ", matched "
      << e.delta_matches << ", deleted filtered " << e.deleted_filtered
      << "\n";
  if (!e.delta_funnel.empty()) out << e.delta_funnel.ToTable();
  out << "results: " << e.results << "\n";
  return out.str();
}

// ---------------------------------------------------------- observability --

DitaService::ServiceStats DitaService::Stats() const {
  ServiceStats s;
  s.uptime_seconds = NowSeconds();
  s.latency_search = lat_search_.Snap();
  s.latency_join = lat_join_.Snap();
  s.latency_knn = lat_knn_.Snap();
  s.queue_wait = queue_wait_hist_.Snap();
  s.admission_wait = admission_wait_hist_.Snap();
  s.queries_search = s.latency_search.count;
  s.queries_join = s.latency_join.count;
  s.queries_knn = s.latency_knn.count;
  s.queries = s.queries_search + s.queries_join + s.queries_knn;
  s.shed = shed_count_.load(std::memory_order_relaxed);
  s.degraded = degraded_count_.load(std::memory_order_relaxed);
  s.errors = errors_count_.load(std::memory_order_relaxed);
  s.cache_hits = answer_cache_.hits();
  s.cache_misses = answer_cache_.misses();
  s.inserts = inserts_count_.load(std::memory_order_relaxed);
  s.deletes = deletes_count_.load(std::memory_order_relaxed);
  s.merges = merges();
  s.merge_busy_seconds = MergeBusyAt(NowSeconds());
  s.coalesced_batches = coalesced_batches_.load();
  s.coalesced_queries = coalesced_queries_.load();
  s.recorded = flight_recorder_.total_recorded();
  return s;
}

std::string DitaService::ExplainService() const {
  const ServiceStats s = Stats();
  std::ostringstream out;
  out << "== DitaService ==\n"
      << "uptime: " << s.uptime_seconds << " s, queries: " << s.queries
      << " (search " << s.queries_search << ", join " << s.queries_join
      << ", knn " << s.queries_knn << ")\n"
      << "shed: " << s.shed << ", degraded: " << s.degraded
      << ", errors: " << s.errors << "\n"
      << "cache: " << s.cache_hits << " hits / " << s.cache_misses
      << " misses\n"
      << "ingest: " << s.inserts << " inserts, " << s.deletes << " deletes, "
      << s.merges << " merges (" << s.merge_busy_seconds << " s busy)\n"
      << "coalescing: " << s.coalesced_queries << " queries in "
      << s.coalesced_batches << " batches\n"
      << "flight recorder: " << s.recorded << " recorded, capacity "
      << flight_recorder_.capacity() << "\n";
  const auto row = [&out](const char* name,
                          const obs::Histogram::Snapshot& h) {
    out << name << ": n=" << h.count;
    if (h.count > 0) {
      out << " p50<=" << h.QuantileUpperBound(0.5) << " p95<="
          << h.QuantileUpperBound(0.95) << " p99<="
          << h.QuantileUpperBound(0.99) << " p999<="
          << h.QuantileUpperBound(0.999) << " (s)";
    }
    out << "\n";
  };
  row("latency.search", s.latency_search);
  row("latency.join", s.latency_join);
  row("latency.knn", s.latency_knn);
  row("queue_wait", s.queue_wait);
  row("admission_wait", s.admission_wait);
  return out.str();
}

std::string DitaService::DumpFlightRecorder() const {
  const ServiceStats s = Stats();
  const std::vector<obs::RequestRecord> records = flight_recorder_.Snapshot();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("service");
  w.BeginObject();
  w.Key("uptime_seconds");
  w.Double(s.uptime_seconds);
  w.Key("queries");
  w.UInt(s.queries);
  w.Key("queries_search");
  w.UInt(s.queries_search);
  w.Key("queries_join");
  w.UInt(s.queries_join);
  w.Key("queries_knn");
  w.UInt(s.queries_knn);
  w.Key("shed");
  w.UInt(s.shed);
  w.Key("degraded");
  w.UInt(s.degraded);
  w.Key("errors");
  w.UInt(s.errors);
  w.Key("cache_hits");
  w.UInt(s.cache_hits);
  w.Key("cache_misses");
  w.UInt(s.cache_misses);
  w.Key("inserts");
  w.UInt(s.inserts);
  w.Key("deletes");
  w.UInt(s.deletes);
  w.Key("merges");
  w.UInt(s.merges);
  w.Key("merge_busy_seconds");
  w.Double(s.merge_busy_seconds);
  w.Key("coalesced_batches");
  w.UInt(s.coalesced_batches);
  w.Key("coalesced_queries");
  w.UInt(s.coalesced_queries);
  w.Key("recorded");
  w.UInt(s.recorded);
  w.Key("capacity");
  w.UInt(flight_recorder_.capacity());
  w.Key("latency");
  w.BeginObject();
  const auto hist = [&w](const char* name,
                         const obs::Histogram::Snapshot& h) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.UInt(h.count);
    w.Key("p50");
    w.Double(h.QuantileUpperBound(0.5));
    w.Key("p95");
    w.Double(h.QuantileUpperBound(0.95));
    w.Key("p99");
    w.Double(h.QuantileUpperBound(0.99));
    w.Key("p999");
    w.Double(h.QuantileUpperBound(0.999));
    w.EndObject();
  };
  hist("search", s.latency_search);
  hist("join", s.latency_join);
  hist("knn", s.latency_knn);
  hist("queue_wait", s.queue_wait);
  hist("admission_wait", s.admission_wait);
  w.EndObject();
  w.EndObject();
  w.Key("requests");
  w.BeginArray();
  for (const obs::RequestRecord& r : records) {
    w.BeginObject();
    w.Key("id");
    w.UInt(r.request_id);
    w.Key("kind");
    w.String(KindName(r.kind));
    w.Key("status_code");
    w.UInt(r.status_code);
    w.Key("stop_cause");
    w.String(QueryContext::StopCauseName(
        static_cast<QueryContext::StopCause>(r.stop_cause)));
    w.Key("cache_hit");
    w.Raw(r.cache_hit() ? "true" : "false");
    w.Key("coalesced");
    w.Raw(r.coalesced() ? "true" : "false");
    w.Key("degraded");
    w.Raw(r.degraded() ? "true" : "false");
    w.Key("shed");
    w.Raw(r.shed() ? "true" : "false");
    w.Key("async");
    w.Raw((r.flags & obs::RequestRecord::kAsync) != 0 ? "true" : "false");
    w.Key("results");
    w.UInt(r.results);
    w.Key("epoch");
    w.UInt(r.epoch);
    w.Key("version");
    w.UInt(r.version);
    w.Key("arrival_seconds");
    w.Double(r.arrival_seconds);
    w.Key("queue_seconds");
    w.Double(r.queue_seconds);
    w.Key("admission_seconds");
    w.Double(r.admission_seconds);
    w.Key("cache_seconds");
    w.Double(r.cache_seconds);
    w.Key("pin_seconds");
    w.Double(r.pin_seconds);
    w.Key("base_seconds");
    w.Double(r.base_seconds);
    w.Key("delta_seconds");
    w.Double(r.delta_seconds);
    w.Key("finalize_seconds");
    w.Double(r.finalize_seconds);
    w.Key("total_seconds");
    w.Double(r.total_seconds);
    w.Key("merge_overlap_seconds");
    w.Double(r.merge_overlap_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace dita
