// The serving runtime: the unified Execute() API and its legacy aliases,
// the fair-share QueryScheduler on the cost-aware admission gate, and
// DitaService's streaming ingest with epoch-snapshotted incremental
// indexes. The load-bearing invariant throughout: for ANY interleaving of
// inserts, deletes, queries, and epoch merges, the service answers exactly
// what a fresh batch DitaEngine built on the equivalent live set would
// answer — the delta scan uses the same verification predicate as the
// indexed path, so serving never trades exactness for freshness.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/engine.h"
#include "serving/scheduler.h"
#include "serving/service.h"
#include "util/query_context.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset CityDataset(size_t n, uint64_t seed,
                    const MBR& region = MBR(Point{0, 0}, Point{1, 1})) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = region;
  cfg.step = 0.01;
  cfg.avg_len = 16;
  cfg.min_len = 4;
  cfg.max_len = 50;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

DitaConfig SmallConfig() {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.align_fanout = 8;
  config.build.trie.pivot_fanout = 4;
  config.build.trie.leaf_capacity = 4;
  config.distance_params.epsilon = 0.01;
  config.verify.cell_size = 0.02;
  return config;
}

std::shared_ptr<Cluster> MakeCluster(size_t workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return std::make_shared<Cluster>(cfg);
}

/// Re-ids a trajectory so insert pools never collide with base ids.
Trajectory WithId(const Trajectory& t, TrajectoryId id) {
  return Trajectory(id, t.points());
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------------------
// Satellite 1: the legacy wrappers are exact aliases of Execute().
// ------------------------------------------------------------------------

class ExecuteAliasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(200, 77);
    cluster_ = MakeCluster();
    engine_ = std::make_unique<DitaEngine>(cluster_, SmallConfig());
    ASSERT_TRUE(engine_->BuildIndex(ds_).ok());
  }

  Dataset ds_;
  std::shared_ptr<Cluster> cluster_;
  std::unique_ptr<DitaEngine> engine_;
};

TEST_F(ExecuteAliasTest, SearchWrapperMatchesExecute) {
  for (size_t i = 0; i < 5; ++i) {
    const Trajectory& q = ds_[i * 17];
    DitaEngine::QueryStats stats;
    auto via_wrapper = engine_->Search(q, 0.05, &stats);
    ASSERT_TRUE(via_wrapper.ok());

    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = q;
    req.tau = 0.05;
    auto via_execute = engine_->Execute(req);
    ASSERT_TRUE(via_execute.ok());
    EXPECT_EQ(*via_wrapper, via_execute->ids);
    EXPECT_EQ(stats.results, via_execute->search_stats.results);
    EXPECT_EQ(stats.candidates, via_execute->search_stats.candidates);
  }
}

TEST_F(ExecuteAliasTest, KnnWrapperMatchesExecute) {
  const Trajectory& q = ds_[42];
  auto via_wrapper = engine_->KnnSearch(q, 7);
  ASSERT_TRUE(via_wrapper.ok());

  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = q;
  req.k = 7;
  auto via_execute = engine_->Execute(req);
  ASSERT_TRUE(via_execute.ok());
  EXPECT_EQ(*via_wrapper, via_execute->neighbors);
  EXPECT_EQ(via_execute->neighbors.size(), 7u);
}

TEST_F(ExecuteAliasTest, JoinWrapperMatchesExecute) {
  auto via_wrapper = engine_->Join(*engine_, 0.02);
  ASSERT_TRUE(via_wrapper.ok());

  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.tau = 0.02;
  req.join_right = engine_.get();
  auto via_execute = engine_->Execute(req);
  ASSERT_TRUE(via_execute.ok());
  EXPECT_EQ(Sorted(*via_wrapper), Sorted(via_execute->pairs));
  // Self-join: every trajectory matches itself, so the result is nonempty.
  EXPECT_GE(via_execute->pairs.size(), ds_.size());
}

TEST_F(ExecuteAliasTest, ExecuteValidatesPerKind) {
  // Unbuilt engine keeps the legacy error text.
  DitaEngine fresh(cluster_, SmallConfig());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[0];
  req.tau = 0.05;
  const auto unbuilt = fresh.Execute(req);
  EXPECT_FALSE(unbuilt.ok());

  // k == 0 is an empty answer, not an error; k > n is an error.
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[0];
  knn.k = 0;
  auto empty = engine_->Execute(knn);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->neighbors.empty());
  knn.k = ds_.size() + 1;
  EXPECT_FALSE(engine_->Execute(knn).ok());

  // Service-level join targets are rejected by the bare engine.
  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  join.join_right_service = reinterpret_cast<const DitaService*>(engine_.get());
  EXPECT_FALSE(engine_->Execute(join).ok());

  // Non-finite inputs are InvalidArgument for every kind, alone and inside
  // a batch: NaN slips past a `tau < 0` test, and a NaN coordinate would
  // reach the Morton quantization.
  const auto expect_invalid = [&](const QueryRequest& bad) {
    EXPECT_EQ(engine_->Execute(bad).status().code(),
              Status::Code::kInvalidArgument);
    const auto batched = engine_->ExecuteBatch({bad, bad});
    for (const auto& r : batched) {
      EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
    }
  };
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    QueryRequest search;
    search.kind = QueryKind::kSearch;
    search.query = ds_[0];
    search.tau = bad;
    expect_invalid(search);
    search.tau = 0.05;
    search.query = Trajectory(0, {{0.1, 0.1}, {bad, 0.2}, {0.3, 0.3}});
    expect_invalid(search);

    QueryRequest bad_knn;
    bad_knn.kind = QueryKind::kKnnSearch;
    bad_knn.query = ds_[0];
    bad_knn.k = 3;
    bad_knn.initial_tau = bad;
    expect_invalid(bad_knn);
    bad_knn.initial_tau = 0.0;
    bad_knn.query = Trajectory(0, {{0.1, bad}, {0.2, 0.2}});
    expect_invalid(bad_knn);

    QueryRequest bad_join;
    bad_join.kind = QueryKind::kJoin;
    bad_join.join_right = engine_.get();
    bad_join.tau = bad;
    expect_invalid(bad_join);
  }
}

TEST_F(ExecuteAliasTest, EstimateQueryCostIsPositive) {
  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[0];
  search.tau = 0.05;
  EXPECT_GE(engine_->EstimateQueryCost(search), 1u);

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[0];
  knn.k = 5;
  EXPECT_GE(engine_->EstimateQueryCost(knn), 1u);

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.05;
  join.join_right = engine_.get();
  // A join touches partition pairs; it must cost at least as much as the
  // broadest single probe.
  EXPECT_GE(engine_->EstimateQueryCost(join),
            engine_->EstimateQueryCost(search));
}

// ------------------------------------------------------------------------
// QueryScheduler: fair-share slot math and gate delegation.
// ------------------------------------------------------------------------

TEST(QuerySchedulerTest, SlotShareHalvesPerPriorityLevel) {
  QueryScheduler::Options opts;
  opts.slots = 16;
  QueryScheduler sched(opts);
  // Cost above the share clamps to the share; priority halves the share.
  EXPECT_EQ(sched.SlotsFor(0, 1000), 16u);
  EXPECT_EQ(sched.SlotsFor(1, 1000), 8u);
  EXPECT_EQ(sched.SlotsFor(2, 1000), 4u);
  EXPECT_EQ(sched.SlotsFor(4, 1000), 1u);
  // Deep priorities and negative inputs stay sane: at least one slot.
  EXPECT_EQ(sched.SlotsFor(30, 1000), 1u);
  EXPECT_EQ(sched.SlotsFor(-3, 1000), 16u);
  // Cost below the share is taken as-is (small queries stay small).
  EXPECT_EQ(sched.SlotsFor(0, 3), 3u);
  EXPECT_EQ(sched.SlotsFor(1, 1), 1u);
  EXPECT_EQ(sched.SlotsFor(0, 0), 1u);
}

TEST(QuerySchedulerTest, AcquireHoldsSlotsUntilReleased) {
  QueryScheduler::Options opts;
  opts.slots = 8;
  QueryScheduler sched(opts);
  QueryScheduler::Grant g;
  ASSERT_TRUE(sched.Acquire(1, 3, nullptr, &g).ok());
  EXPECT_TRUE(g.held());
  EXPECT_EQ(g.slots(), 3u);
  EXPECT_EQ(sched.slots_in_use(), 3u);
  EXPECT_EQ(sched.active(), 1u);
  g.Release();
  EXPECT_EQ(sched.slots_in_use(), 0u);
  EXPECT_EQ(sched.admitted(), 1u);
}

TEST(QuerySchedulerTest, ShedsWhenQueueIsFull) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 0;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());
  QueryScheduler::Grant g;
  const Status s = sched.Acquire(0, 1, nullptr, &g);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_FALSE(g.held());
  EXPECT_EQ(sched.shed(), 1u);
}

TEST(QuerySchedulerTest, CancelledContextAbandonsQueue) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 4;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());
  QueryContext ctx;
  ctx.Cancel();
  QueryScheduler::Grant g;
  const Status s = sched.Acquire(0, 1, &ctx, &g);
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_FALSE(g.held());
}

// ------------------------------------------------------------------------
// Satellite 3: cost accounting in the admission gate. A giant join cannot
// starve point searches (they bypass it while it waits for budget), and
// the bypass bound keeps the giant from starving in return.
// ------------------------------------------------------------------------

TEST(AdmissionGateCostTest, SmallQueriesBypassGiantUntilBypassBound) {
  AdmissionGate::Options opts;
  opts.max_inflight = 8;
  opts.max_queued = 8;
  opts.max_inflight_cost = 8;
  opts.max_bypass = 3;
  AdmissionGate gate(opts);

  // A medium query holds 6 of the 8 cost units.
  AdmissionGate::Ticket medium;
  ASSERT_TRUE(gate.Admit(nullptr, 6, &medium).ok());

  // The giant join (cost 8) cannot fit and queues.
  std::atomic<bool> giant_admitted{false};
  std::thread giant([&] {
    AdmissionGate::Ticket t;
    EXPECT_TRUE(gate.Admit(nullptr, 8, &t).ok());
    giant_admitted = true;
  });
  while (gate.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Point searches (cost 1) fit the remaining budget and flow past the
  // queued giant — exactly max_bypass times.
  for (int i = 0; i < 3; ++i) {
    AdmissionGate::Ticket t;
    ASSERT_TRUE(gate.Admit(nullptr, 1, &t).ok()) << "bypass " << i;
    EXPECT_FALSE(giant_admitted.load());
  }
  EXPECT_EQ(gate.bypasses(), 3u);

  // The bypass allowance is spent: the next point search must wait its
  // turn behind the giant even though its cost would fit.
  std::atomic<bool> small_admitted{false};
  std::thread small([&] {
    AdmissionGate::Ticket t;
    EXPECT_TRUE(gate.Admit(nullptr, 1, &t).ok());
    small_admitted = true;
  });
  while (gate.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(small_admitted.load());

  // Freeing the medium query lets the giant (queue head) in first; the
  // small query follows once the giant releases.
  medium.Release();
  giant.join();
  EXPECT_TRUE(giant_admitted.load());
  small.join();
  EXPECT_TRUE(small_admitted.load());
  EXPECT_EQ(gate.inflight(), 0u);
  // The cost budget held throughout: never more than 8 units in flight.
  EXPECT_LE(gate.cost_high_water(), 8u);
}

TEST(AdmissionGateCostTest, OversizedQueryRunsAloneInsteadOfHanging) {
  AdmissionGate::Options opts;
  opts.max_inflight = 4;
  opts.max_queued = 4;
  opts.max_inflight_cost = 8;
  AdmissionGate gate(opts);
  // Cost 100 > budget 8, but nothing is in flight: admitted, serially.
  AdmissionGate::Ticket t;
  ASSERT_TRUE(gate.Admit(nullptr, 100, &t).ok());
  EXPECT_EQ(gate.inflight(), 1u);
  t.Release();
  EXPECT_EQ(gate.inflight_cost(), 0u);
}

/// Mixed workload through a live service: a bulk self-join riding with a
/// stream of point searches. The regression this pins down: before cost
/// accounting, the join's admission was indistinguishable from a search's,
/// so a burst of joins could occupy every slot and point searches timed
/// out behind them; now the scheduler charges the join its estimated cost
/// and the searches keep flowing (bypasses observable on the gate).
TEST(AdmissionGateCostTest, ServiceMixedWorkloadKeepsPointSearchesFlowing) {
  const Dataset ds = CityDataset(150, 31);
  auto cluster = MakeCluster(4);
  DitaConfig config = SmallConfig();
  config.serving.scheduler_slots = 4;
  config.serving.synchronous_merge = true;
  DitaService service(cluster, config);
  ASSERT_TRUE(service.Start(ds).ok());

  // Only searches that finish while a join is in flight count: on a loaded
  // host one join can end before the searcher threads get to run, so the
  // join repeats (a bounded number of times) until three searches finished
  // alongside one.
  constexpr size_t kWantedSearches = 3;
  constexpr int kMaxJoins = 50;
  std::atomic<bool> join_in_flight{false};
  std::atomic<size_t> searches_during_join{0};
  std::atomic<bool> stop_searches{false};
  std::vector<std::thread> searchers;
  for (int i = 0; i < 3; ++i) {
    searchers.emplace_back([&, i] {
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = ds[size_t(i) * 11];
      req.tau = 0.05;
      req.priority = 0;  // latency-sensitive
      while (!stop_searches.load()) {
        const auto r = service.Execute(req);
        EXPECT_TRUE(r.ok());
        if (join_in_flight.load()) ++searches_during_join;
      }
    });
  }
  int joins = 0;
  while (searches_during_join.load() < kWantedSearches && joins < kMaxJoins) {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.tau = 0.02;
    req.priority = 2;  // bulk analytics: smaller share
    join_in_flight = true;
    const auto r = service.Execute(req);
    join_in_flight = false;
    EXPECT_TRUE(r.ok());
    ++joins;
  }
  stop_searches = true;
  for (auto& t : searchers) t.join();

  EXPECT_GE(searches_during_join.load(), kWantedSearches)
      << "after " << joins << " joins";
  EXPECT_LE(service.scheduler().slots_in_use(), 0u);
  // The join was charged real cost: the pool's high water reflects shared
  // occupancy, and it never exceeded the slot budget (one oversized query
  // running alone is the only sanctioned excursion).
  EXPECT_GE(service.scheduler().slots_high_water(), 2u);
  EXPECT_EQ(service.scheduler().active(), 0u);
}

// ------------------------------------------------------------------------
// DitaService: ingest, epochs, snapshots.
// ------------------------------------------------------------------------

class DitaServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(160, 7);
    pool_ = CityDataset(60, 8);  // insert pool, re-idded on use
    cluster_ = MakeCluster();
    config_ = SmallConfig();
    config_.serving.synchronous_merge = true;
    config_.serving.merge_threshold = 1000;  // no merges unless forced
  }

  Trajectory PoolAt(size_t i) const {
    return WithId(pool_[i % pool_.size()], TrajectoryId(10000 + i));
  }

  Dataset ds_, pool_;
  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
};

TEST_F(DitaServiceTest, UnmutatedServiceMatchesBatchEngine) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(ds_).ok());

  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[3];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(ds_[3], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  EXPECT_EQ(served->serving.epoch, 0u);
  EXPECT_EQ(served->serving.delta_scanned, 0u);
  EXPECT_NE(service.ExplainLastQuery().find("epoch: 0"), std::string::npos);
}

/// ExplainLastQuery's full text, pinned for a search and a kNN over a
/// service with a non-empty delta (inserts and a delete), so any change to
/// how the explain inputs are recorded or formatted shows up byte for byte.
TEST_F(DitaServiceTest, ExplainLastQueryPinsFullText) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  EXPECT_EQ(service.ExplainLastQuery(), "");
  ASSERT_TRUE(service.Insert(WithId(ds_[3], 20000)).ok());
  ASSERT_TRUE(service.Insert(PoolAt(1)).ok());
  ASSERT_TRUE(service.Delete(ds_[3].id()).ok());

  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[3];
  search.tau = 0.05;
  ASSERT_TRUE(service.Execute(search).ok());
  EXPECT_EQ(service.ExplainLastQuery(),
      "== Serving query (similarity search) ==\n"
      "epoch: 0, version: 3\n"
      "filter level                  survivors   of total    of prev\n"
      "table                               160    100.00%    100.00%\n"
      "global index                         10      6.25%      6.25%\n"
      "sketch partitions                    10      6.25%    100.00%\n"
      "trie: first                          10      6.25%    100.00%\n"
      "trie: last                           10      6.25%    100.00%\n"
      "trie: pivot 1                        10      6.25%    100.00%\n"
      "trie: pivot 2                        10      6.25%    100.00%\n"
      "trie: pivot 3                        10      6.25%    100.00%\n"
      "candidates                           10      6.25%    100.00%\n"
      "sketch signature                     10      6.25%    100.00%\n"
      "mbr coverage                         10      6.25%    100.00%\n"
      "cell bound                           10      6.25%    100.00%\n"
      "threshold dp                          6      3.75%     60.00%\n"
      "delta: scanned 2, matched 1, deleted filtered 1\n"
      "filter level                  survivors   of total    of prev\n"
      "delta buffer                          2    100.00%    100.00%\n"
      "sketch signature                      1     50.00%     50.00%\n"
      "mbr coverage                          1     50.00%    100.00%\n"
      "cell bound                            1     50.00%    100.00%\n"
      "threshold dp                          1     50.00%    100.00%\n"
      "results: 6\n");

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[3];
  knn.k = 3;
  ASSERT_TRUE(service.Execute(knn).ok());
  EXPECT_EQ(service.ExplainLastQuery(),
      "== Serving query (knn search) ==\n"
      "epoch: 0, version: 3\n"
      "delta: scanned 2, matched 1, deleted filtered 1\n"
      "results: 3\n");
}

TEST_F(DitaServiceTest, InsertIsVisibleToTheNextQueryExactly) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  // Insert a duplicate of a base trajectory under a fresh id: distance 0,
  // so any search centered on the original must now also return the twin.
  const Trajectory twin = WithId(ds_[5], 20001);
  ASSERT_TRUE(service.Insert(twin).ok());
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size() + 1);

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[5];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(std::binary_search(served->ids.begin(), served->ids.end(),
                                 TrajectoryId(20001)));
  EXPECT_EQ(served->serving.delta_scanned, 1u);
  EXPECT_EQ(served->serving.delta_matches, 1u);
  EXPECT_TRUE(served->serving.delta_funnel.MonotonicallyNonIncreasing());

  // The delta answer is exact: a fresh batch engine over base+twin agrees.
  std::vector<Trajectory> live = ds_.trajectories();
  live.push_back(twin);
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  auto oracle = batch.Search(ds_[5], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
}

TEST_F(DitaServiceTest, DeleteHidesBaseAnswersAndAccountsForThem) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  const TrajectoryId victim = ds_[9].id();
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[9];
  req.tau = 0.05;
  auto before = service.Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(std::binary_search(before->ids.begin(), before->ids.end(), victim));

  ASSERT_TRUE(service.Delete(victim).ok());
  auto after = service.Execute(req);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(std::binary_search(after->ids.begin(), after->ids.end(), victim));
  EXPECT_GE(after->serving.deleted_filtered, 1u);
  EXPECT_EQ(after->ids.size(), before->ids.size() - 1);
}

TEST_F(DitaServiceTest, IngestValidation) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  // Duplicate live id (base) and duplicate pending insert both rejected.
  EXPECT_FALSE(service.Insert(ds_[0]).ok());
  const Trajectory fresh = PoolAt(0);
  ASSERT_TRUE(service.Insert(fresh).ok());
  EXPECT_FALSE(service.Insert(fresh).ok());

  // Too-short trajectories are rejected with the engine's message.
  EXPECT_FALSE(service.Insert(Trajectory(30000, {Point{0, 0}})).ok());

  // Non-finite coordinates never reach the delta (and so never the STR
  // sort of the next merge rebuild); non-finite request fields are
  // rejected at the service's validation point, delta live or not.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_EQ(service.Insert(Trajectory(30001, {{0.1, 0.1}, {0.2, bad}}))
                  .code(),
              Status::Code::kInvalidArgument);
    QueryRequest search;
    search.kind = QueryKind::kSearch;
    search.query = ds_[1];
    search.tau = bad;
    EXPECT_EQ(service.Execute(search).status().code(),
              Status::Code::kInvalidArgument);
    search.tau = 0.05;
    search.query = Trajectory(0, {{bad, 0.1}, {0.2, 0.2}});
    EXPECT_EQ(service.Execute(search).status().code(),
              Status::Code::kInvalidArgument);
    QueryRequest knn;
    knn.kind = QueryKind::kKnnSearch;
    knn.query = ds_[1];
    knn.k = 2;
    knn.initial_tau = bad;
    EXPECT_EQ(service.Execute(knn).status().code(),
              Status::Code::kInvalidArgument);
  }
  EXPECT_EQ(service.live_size(), ds_.size() + 1);

  // Deleting a pending insert removes it from the buffer outright.
  ASSERT_TRUE(service.Delete(fresh.id()).ok());
  EXPECT_EQ(service.delta_ops(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size());

  // Deleting a dead id is NotFound; double-delete of a base id too.
  EXPECT_EQ(service.Delete(99999).code(), Status::Code::kNotFound);
  ASSERT_TRUE(service.Delete(ds_[0].id()).ok());
  EXPECT_EQ(service.Delete(ds_[0].id()).code(), Status::Code::kNotFound);

  // A deleted base id may be re-inserted (it is no longer live).
  ASSERT_TRUE(service.Insert(ds_[0]).ok());
  EXPECT_EQ(service.live_size(), ds_.size());
}

TEST_F(DitaServiceTest, EpochMergeFoldsDeltaAndPreservesAnswers) {
  config_.serving.merge_threshold = 8;
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  std::vector<Trajectory> live = ds_.trajectories();
  for (size_t i = 0; i < 8; ++i) {
    const Trajectory t = PoolAt(i);
    ASSERT_TRUE(service.Insert(t).ok());
    live.push_back(t);
  }
  // The 8th delta op crossed the threshold: a synchronous merge folded the
  // delta into a fresh epoch-1 base.
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.merges(), 1u);
  EXPECT_EQ(service.delta_ops(), 0u);
  EXPECT_EQ(service.live_size(), live.size());

  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = pool_[2];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(pool_[2], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  // Post-merge queries hit the new base, not a delta scan.
  EXPECT_EQ(served->serving.delta_scanned, 0u);
  EXPECT_EQ(served->serving.epoch, 1u);
  EXPECT_NE(service.ExplainLastQuery().find("epoch: 1"), std::string::npos);
}

TEST_F(DitaServiceTest, MergeCanDeleteEverythingAndServiceKeepsServing) {
  const Dataset tiny = CityDataset(12, 3);
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(tiny).ok());
  for (const Trajectory& t : tiny.trajectories()) {
    ASSERT_TRUE(service.Delete(t.id()).ok());
  }
  ASSERT_TRUE(service.ForceMerge().ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.live_size(), 0u);

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = tiny[0];
  req.tau = 0.5;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->ids.empty());

  // kNN on an empty table: k exceeds the (zero) cardinality.
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = tiny[0];
  knn.k = 1;
  EXPECT_FALSE(service.Execute(knn).ok());

  // Life goes on: insert into the empty epoch and query it back.
  ASSERT_TRUE(service.Insert(tiny[4]).ok());
  auto revived = service.Execute(req);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->ids.size(), 1u);
}

TEST_F(DitaServiceTest, EmptyStartThenStreamingBuildUp) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(Dataset()).ok());
  EXPECT_EQ(service.live_size(), 0u);

  std::vector<Trajectory> live;
  for (size_t i = 0; i < 10; ++i) {
    const Trajectory t = PoolAt(i);
    ASSERT_TRUE(service.Insert(t).ok());
    live.push_back(t);
  }
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = live[4];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(live[4], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  EXPECT_EQ(served->serving.delta_scanned, live.size());

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = live[4];
  knn.k = 3;
  auto knn_served = service.Execute(knn);
  ASSERT_TRUE(knn_served.ok());
  auto knn_oracle = batch.KnnSearch(live[4], 3);
  ASSERT_TRUE(knn_oracle.ok());
  EXPECT_EQ(knn_served->neighbors, *knn_oracle);
}

/// The merge reads its input from the base engine's tries (there is no
/// separate copy of the base table): across two merges over inserts and
/// deletes, each publish keeps the live set, and searches and kNN answer as
/// before the merge and as a fresh engine over the live set.
TEST_F(DitaServiceTest, MergeFromBaseIndexKeepsLiveSetAndAnswers) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  std::map<TrajectoryId, Trajectory> live;
  for (const Trajectory& t : ds_.trajectories()) live.emplace(t.id(), t);
  std::vector<TrajectoryId> all_ids;
  for (const Trajectory& t : ds_.trajectories()) all_ids.push_back(t.id());

  const auto answers = [&service](const Trajectory& q) {
    QueryRequest search;
    search.kind = QueryKind::kSearch;
    search.query = q;
    search.tau = 0.05;
    QueryRequest knn;
    knn.kind = QueryKind::kKnnSearch;
    knn.query = q;
    knn.k = 6;
    auto s = service.Execute(search);
    auto k = service.Execute(knn);
    EXPECT_TRUE(s.ok() && k.ok());
    return std::make_pair(s.ok() ? s->ids : std::vector<TrajectoryId>{},
                          k.ok() ? k->neighbors
                                 : std::vector<std::pair<TrajectoryId, double>>{});
  };
  const std::vector<Trajectory> queries = {ds_[3], ds_[40], pool_[5], pool_[9]};

  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < 8; ++i) {
      const Trajectory t = PoolAt(round * 8 + i);
      ASSERT_TRUE(service.Insert(t).ok());
      live.emplace(t.id(), t);
      all_ids.push_back(t.id());
    }
    // Delete base trajectories (the first round's inserts are base by the
    // second round) and one pending insert.
    for (size_t i = 0; i < 6; ++i) {
      const TrajectoryId victim = all_ids[round * 37 + i * 11];
      if (live.erase(victim) > 0) {
        ASSERT_TRUE(service.Delete(victim).ok());
      }
    }
    const TrajectoryId pending = PoolAt(round * 8 + 7).id();
    ASSERT_TRUE(service.Delete(pending).ok());
    live.erase(pending);

    std::vector<std::pair<std::vector<TrajectoryId>,
                          std::vector<std::pair<TrajectoryId, double>>>>
        before;
    for (const Trajectory& q : queries) before.push_back(answers(q));
    ASSERT_TRUE(service.ForceMerge().ok());
    EXPECT_EQ(service.epoch(), round + 1);
    EXPECT_EQ(service.delta_ops(), 0u);
    EXPECT_EQ(service.live_size(), live.size());
    const auto snap = service.Pin();
    EXPECT_EQ(snap->base_size(), live.size());
    for (const TrajectoryId id : all_ids) {
      EXPECT_EQ(snap->IsLive(id), live.count(id) > 0) << "id " << id;
    }

    std::vector<Trajectory> live_set;
    for (const auto& [id, t] : live) live_set.push_back(t);
    DitaEngine batch(cluster_, SmallConfig());
    ASSERT_TRUE(batch.BuildIndex(Dataset(live_set)).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto after = answers(queries[i]);
      EXPECT_EQ(after, before[i]) << "round " << round << " query " << i;
      auto search = batch.Search(queries[i], 0.05);
      auto knn = batch.KnnSearch(queries[i], 6);
      ASSERT_TRUE(search.ok() && knn.ok());
      EXPECT_EQ(after.first, *search) << "round " << round << " query " << i;
      EXPECT_EQ(after.second, *knn) << "round " << round << " query " << i;
    }
  }
}

/// The base kNN pass skips deleted ids: with most of the base deleted —
/// including each query itself, at distance 0 — every k up to the whole
/// live set is the fresh engine's answer, and the deleted ids the pass met
/// are counted.
TEST_F(DitaServiceTest, KnnSkipsDeletedIdsWithoutOverFetch) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  std::vector<Trajectory> live;
  for (size_t i = 0; i < ds_.size(); ++i) {
    if (i % 5 == 0) {
      live.push_back(ds_[i]);
    } else {
      ASSERT_TRUE(service.Delete(ds_[i].id()).ok());
    }
  }
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  for (const size_t qi : {size_t(1), size_t(22), size_t(93)}) {
    for (const size_t k : {size_t(1), size_t(4), live.size()}) {
      QueryRequest knn;
      knn.kind = QueryKind::kKnnSearch;
      knn.query = ds_[qi];  // deleted: its own distance 0 must not rank
      knn.k = k;
      auto served = service.Execute(knn);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      auto oracle = batch.KnnSearch(ds_[qi], k);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(served->neighbors, *oracle) << "query " << qi << " k=" << k;
      EXPECT_GE(served->serving.deleted_filtered, 1u)
          << "query " << qi << " k=" << k;
    }
  }
}

TEST_F(DitaServiceTest, KnnTiesRankByIdAcrossBaseAndDelta) {
  // Each of the first 12 base trajectories gets two twins in the delta, one
  // under a lower id and one under a higher id, so distances tie three ways
  // across base and delta — including at the k-th live base distance that
  // bounds the delta scan. The merged answer must be the brute-force
  // (distance, id) prefix and equal a fresh engine's over the live set.
  std::vector<Trajectory> base;
  for (size_t i = 0; i < ds_.size(); ++i) {
    base.push_back(WithId(ds_[i], TrajectoryId(1000 + i)));
  }
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(Dataset(base)).ok());
  std::vector<Trajectory> live = base;
  for (size_t i = 0; i < 12; ++i) {
    for (const TrajectoryId id :
         {TrajectoryId(500 + i), TrajectoryId(2000 + i)}) {
      const Trajectory twin = WithId(ds_[i], id);
      ASSERT_TRUE(service.Insert(twin).ok());
      live.push_back(twin);
    }
  }
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  auto dist = *MakeDistance(SmallConfig().distance,
                            SmallConfig().distance_params);

  for (const size_t qi : {size_t(2), size_t(7), size_t(40)}) {
    const Trajectory& q = ds_[qi];
    std::vector<std::pair<TrajectoryId, double>> all;
    for (const Trajectory& t : live) {
      all.emplace_back(t.id(), dist->Compute(t, q));
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return KnnRankLess(a, b); });
    for (const size_t k : {1u, 2u, 3u, 5u, 8u}) {
      QueryRequest knn;
      knn.kind = QueryKind::kKnnSearch;
      knn.query = q;
      knn.k = k;
      auto served = service.Execute(knn);
      ASSERT_TRUE(served.ok());
      EXPECT_EQ(served->serving.delta_scanned, 24u);
      const std::vector<std::pair<TrajectoryId, double>> want(
          all.begin(), all.begin() + long(k));
      EXPECT_EQ(served->neighbors, want) << "query " << qi << " k=" << k;
      auto oracle = batch.KnnSearch(q, k);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(served->neighbors, *oracle) << "query " << qi << " k=" << k;
    }
  }
}

TEST_F(DitaServiceTest, SubmitMatchesExecuteAndFailsAfterStop) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[1];
  req.tau = 0.05;
  auto direct = service.Execute(req);
  ASSERT_TRUE(direct.ok());
  auto fut = service.Submit(req);
  auto async = fut.get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->ids, direct->ids);

  service.Stop();
  auto dead = service.Submit(req).get();
  EXPECT_EQ(dead.status().code(), Status::Code::kUnavailable);
  service.Stop();  // idempotent
}

TEST_F(DitaServiceTest, SchedulerAccountsEveryQuery) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[0];
  req.tau = 0.05;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Execute(req).ok());
  }
  EXPECT_GE(service.scheduler().admitted(), 5u);
  EXPECT_EQ(service.scheduler().active(), 0u);
  EXPECT_LE(service.scheduler().slots_high_water(),
            service.scheduler().total_slots());
}

// ------------------------------------------------------------------------
// Satellite 4: the batch-oracle property. For a seeded interleaving of
// inserts, deletes, and all three query kinds — across epoch merges — the
// service answers bit-identically to a fresh batch engine built on the
// equivalent live set.
// ------------------------------------------------------------------------

TEST(ServingOracleTest, SeededInterleavingMatchesBatchEngine) {
  for (const uint64_t seed : {11u, 23u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Dataset base = CityDataset(120, seed);
    const Dataset pool = CityDataset(80, seed + 1);
    auto cluster = MakeCluster();

    DitaConfig config = SmallConfig();
    config.serving.synchronous_merge = true;
    config.serving.merge_threshold = 16;  // merges fire mid-interleaving
    DitaService service(cluster, config);
    ASSERT_TRUE(service.Start(base).ok());

    // Shadow state: id -> trajectory, mirrored on every accepted write.
    std::map<TrajectoryId, Trajectory> live;
    for (const Trajectory& t : base.trajectories()) live[t.id()] = t;

    std::mt19937_64 rng(seed * 1000003);
    size_t next_pool = 0;
    size_t total_results = 0;
    // Checkpoints whose kNN scanned more delta inserts than k, so the delta
    // scan ran bounded by the k-th live base distance.
    size_t knn_delta_over_k = 0;
    const auto live_vector = [&] {
      std::vector<Trajectory> v;
      v.reserve(live.size());
      for (const auto& [_, t] : live) v.push_back(t);
      return v;
    };

    for (int op = 0; op < 140; ++op) {
      const int dice = int(rng() % 10);
      if (dice < 4 && next_pool < pool.size()) {
        const Trajectory t =
            WithId(pool[next_pool], TrajectoryId(10000 + next_pool));
        ++next_pool;
        ASSERT_TRUE(service.Insert(t).ok());
        live[t.id()] = t;
      } else if (dice < 6 && live.size() > 40) {
        auto it = live.begin();
        std::advance(it, long(rng() % live.size()));
        ASSERT_TRUE(service.Delete(it->first).ok());
        live.erase(it);
      } else if (op % 8 == 7) {
        // Query checkpoint: rebuild a batch engine on the shadow live set
        // and require bit-identical answers from the service.
        DitaEngine batch(cluster, SmallConfig());
        ASSERT_TRUE(batch.BuildIndex(Dataset(live_vector())).ok());
        const Trajectory& q = base[(size_t(op) * 13) % base.size()];

        QueryRequest search;
        search.kind = QueryKind::kSearch;
        search.query = q;
        search.tau = 0.05;
        auto served = service.Execute(search);
        ASSERT_TRUE(served.ok());
        auto oracle = batch.Search(q, 0.05);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(served->ids, *oracle) << "search at op " << op;
        total_results += served->ids.size();

        QueryRequest knn;
        knn.kind = QueryKind::kKnnSearch;
        knn.query = q;
        knn.k = 5;
        auto knn_served = service.Execute(knn);
        ASSERT_TRUE(knn_served.ok());
        auto knn_oracle = batch.KnnSearch(q, 5);
        ASSERT_TRUE(knn_oracle.ok());
        EXPECT_EQ(knn_served->neighbors, *knn_oracle) << "knn at op " << op;
        if (knn_served->serving.delta_scanned > knn.k) ++knn_delta_over_k;

        if (op % 24 == 23) {
          QueryRequest join;
          join.kind = QueryKind::kJoin;
          join.tau = 0.02;
          auto join_served = service.Execute(join);
          ASSERT_TRUE(join_served.ok());
          auto join_oracle = batch.Join(batch, 0.02);
          ASSERT_TRUE(join_oracle.ok());
          EXPECT_EQ(Sorted(join_served->pairs), Sorted(*join_oracle))
              << "self-join at op " << op;
        }
      }
    }
    // The run crossed the merge threshold and produced real answers.
    EXPECT_GE(service.merges(), 1u);
    EXPECT_GT(total_results, 0u);
    EXPECT_GT(knn_delta_over_k, 0u);

    // Final checkpoint after a forced merge: the folded state still agrees.
    ASSERT_TRUE(service.ForceMerge().ok());
    DitaEngine batch(cluster, SmallConfig());
    ASSERT_TRUE(batch.BuildIndex(Dataset(live_vector())).ok());
    QueryRequest search;
    search.kind = QueryKind::kSearch;
    search.query = base[1];
    search.tau = 0.05;
    auto served = service.Execute(search);
    ASSERT_TRUE(served.ok());
    auto oracle = batch.Search(base[1], 0.05);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(served->ids, *oracle);
  }
}

/// Service-level joins between two live tables: both sides' deltas are
/// folded in exactly.
TEST(ServingOracleTest, CrossServiceJoinMatchesBatchEngines) {
  auto cluster = MakeCluster();
  const Dataset left_ds = CityDataset(80, 41);
  const Dataset right_ds = CityDataset(80, 42);
  DitaConfig config = SmallConfig();
  config.serving.synchronous_merge = true;
  config.serving.merge_threshold = 1000;

  DitaService left(cluster, config);
  DitaService right(cluster, config);
  ASSERT_TRUE(left.Start(left_ds).ok());
  ASSERT_TRUE(right.Start(right_ds).ok());

  // Mutate both sides: a twin of a left trajectory lands on the right (a
  // guaranteed cross match), and a right base row dies.
  ASSERT_TRUE(right.Insert(WithId(left_ds[3], 7001)).ok());
  ASSERT_TRUE(left.Insert(WithId(right_ds[5], 7002)).ok());
  ASSERT_TRUE(right.Delete(right_ds[0].id()).ok());

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  join.join_right_service = &right;
  auto served = left.Execute(join);
  ASSERT_TRUE(served.ok());

  std::vector<Trajectory> lv = left_ds.trajectories();
  lv.push_back(WithId(right_ds[5], 7002));
  std::vector<Trajectory> rv;
  for (const Trajectory& t : right_ds.trajectories()) {
    if (t.id() != right_ds[0].id()) rv.push_back(t);
  }
  rv.push_back(WithId(left_ds[3], 7001));
  DitaEngine lbatch(cluster, SmallConfig());
  DitaEngine rbatch(cluster, SmallConfig());
  ASSERT_TRUE(lbatch.BuildIndex(Dataset(lv)).ok());
  ASSERT_TRUE(rbatch.BuildIndex(Dataset(rv)).ok());
  auto oracle = lbatch.Join(rbatch, 0.02);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Sorted(served->pairs), Sorted(*oracle));
  // The planted twin pair made it through the delta terms.
  const std::pair<TrajectoryId, TrajectoryId> planted{left_ds[3].id(), 7001};
  EXPECT_TRUE(std::find(served->pairs.begin(), served->pairs.end(), planted) !=
              served->pairs.end());
}

/// Service joins under a stop token. Both sides carry inserts and deletes,
/// so each delta term runs as a real batch of searches: term 2 the left
/// inserts against the right snapshot, term 3 the right inserts against the
/// left base. Wherever a cancellation or a candidate budget stops the join,
/// the answer is a subset of the full join (the batch-engine oracle over
/// the live sets), tagged as partial; an unconstrained context changes
/// nothing.
TEST(ServingCancellationTest, JoinsAreSubsetsUnderStopToken) {
  auto cluster = MakeCluster();
  const Dataset left_ds = CityDataset(80, 41);
  const Dataset right_ds = CityDataset(80, 42);
  DitaConfig config = SmallConfig();
  config.serving.synchronous_merge = true;
  config.serving.merge_threshold = 1000;
  DitaService left(cluster, config);
  DitaService right(cluster, config);
  ASSERT_TRUE(left.Start(left_ds).ok());
  ASSERT_TRUE(right.Start(right_ds).ok());

  // Twins planted across the sides guarantee matches in every delta term.
  std::vector<Trajectory> lv, rv;
  for (const Trajectory& t : left_ds.trajectories()) {
    if (t.id() != left_ds[1].id()) lv.push_back(t);
  }
  for (const Trajectory& t : right_ds.trajectories()) {
    if (t.id() != right_ds[0].id()) rv.push_back(t);
  }
  ASSERT_TRUE(left.Delete(left_ds[1].id()).ok());
  ASSERT_TRUE(right.Delete(right_ds[0].id()).ok());
  for (const Trajectory& t :
       {WithId(right_ds[5], 7002), WithId(right_ds[9], 7003),
        WithId(left_ds[12], 7004)}) {
    ASSERT_TRUE(left.Insert(t).ok());
    lv.push_back(t);
  }
  for (const Trajectory& t :
       {WithId(left_ds[3], 8001), WithId(left_ds[7], 8002),
        WithId(right_ds[12], 8003)}) {
    ASSERT_TRUE(right.Insert(t).ok());
    rv.push_back(t);
  }
  DitaEngine lbatch(cluster, SmallConfig());
  DitaEngine rbatch(cluster, SmallConfig());
  ASSERT_TRUE(lbatch.BuildIndex(Dataset(lv)).ok());
  ASSERT_TRUE(rbatch.BuildIndex(Dataset(rv)).ok());
  const double tau = 0.02;

  struct Case {
    const char* name;
    const DitaService* target;
    std::vector<std::pair<TrajectoryId, TrajectoryId>> oracle;
  };
  std::vector<Case> cases;
  for (const auto& [name, target, r] :
       {std::tuple{"self-join", &left, &lbatch},
        std::tuple{"cross join", &right, &rbatch}}) {
    auto oracle = lbatch.Join(*r, tau);
    ASSERT_TRUE(oracle.ok());
    cases.push_back({name, target, Sorted(*oracle)});
  }

  for (const Case& c : cases) {
    QueryRequest join;
    join.kind = QueryKind::kJoin;
    join.tau = tau;
    join.join_right_service = c.target;
    const auto run = [&](QueryContext* ctx) {
      join.ctx = ctx;
      auto r = left.Execute(join);
      EXPECT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      return r;
    };
    {
      QueryContext ctx;
      const auto r = run(&ctx);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(Sorted(r->pairs), c.oracle) << c.name;
      EXPECT_TRUE(r->join_stats.termination.ok()) << c.name;
      EXPECT_GT(r->serving.delta_matches, 0u) << c.name;
    }
    size_t stopped = 0;
    const auto check_partial = [&](const QueryContext& ctx,
                                   const Result<QueryResult>& r,
                                   const std::string& where) {
      ASSERT_TRUE(r.ok()) << where;
      const auto got = Sorted(r->pairs);
      EXPECT_TRUE(std::includes(c.oracle.begin(), c.oracle.end(), got.begin(),
                                got.end()))
          << where;
      if (ctx.stopped()) {
        ++stopped;
        EXPECT_FALSE(r->join_stats.termination.ok()) << where;
        EXPECT_TRUE(r->serving.lifecycle.degraded()) << where;
      } else {
        EXPECT_EQ(got, c.oracle) << where;
      }
    };
    for (const uint64_t cancel_at :
         {1u, 8u, 64u, 256u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
      QueryContext ctx;
      ctx.CancelAfterOps(cancel_at);
      check_partial(ctx, run(&ctx),
                    std::string(c.name) + " cancel_at=" +
                        std::to_string(cancel_at));
    }
    for (const uint64_t max_candidates : {1u, 16u, 128u, 1024u}) {
      QueryContext ctx;
      ResourceBudget budget;
      budget.max_candidates = max_candidates;
      ctx.set_budget(budget);
      check_partial(ctx, run(&ctx),
                    std::string(c.name) + " max_candidates=" +
                        std::to_string(max_candidates));
    }
    EXPECT_GT(stopped, 0u) << c.name;
  }
}

// ------------------------------------------------------------------------
// Concurrent soak (the TSan target): ingest, background epoch merges, and
// queries race freely; snapshot pinning keeps every answer consistent.
// ------------------------------------------------------------------------

TEST(ServingSoakTest, ConcurrentIngestMergesAndQueriesStayExact) {
  const Dataset base = CityDataset(120, 57);
  // Writers only touch a far-away region, so base-region query answers are
  // version-independent: whatever snapshot a query pins, its answer must
  // equal the batch answer on the untouched base.
  const Dataset far =
      CityDataset(64, 58, MBR(Point{10, 10}, Point{11, 11}));
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig();
  config.serving.merge_threshold = 24;  // background merges fire mid-run
  config.serving.scheduler_threads = 2;
  DitaService service(cluster, config);
  ASSERT_TRUE(service.Start(base).ok());

  constexpr size_t kQueries = 8;
  std::vector<std::vector<TrajectoryId>> expected(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = base[i * 11];
    req.tau = 0.05;
    auto r = service.Execute(req);
    ASSERT_TRUE(r.ok());
    expected[i] = r->ids;
  }

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (size_t i = 0; i < far.size(); ++i) {
      const Trajectory t = WithId(far[i], TrajectoryId(50000 + i));
      if (!service.Insert(t).ok()) failed = true;
      if (i >= 5 && i % 3 == 0) {
        if (!service.Delete(TrajectoryId(50000 + i - 5)).ok()) failed = true;
      }
    }
  });
  std::thread merger([&] {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (!service.ForceMerge().ok()) failed = true;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 24; ++i) {
        const size_t qi = size_t(r * 7 + i) % kQueries;
        QueryRequest req;
        req.kind = QueryKind::kSearch;
        req.query = base[qi * 11];
        req.tau = 0.05;
        // Alternate sync and async paths so the executor pool races too.
        auto res = (i % 4 == 3) ? service.Submit(req).get()
                                : service.Execute(req);
        if (!res.ok() || res->ids != expected[qi]) failed = true;
      }
    });
  }
  writer.join();
  merger.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // Settle: fold the remaining delta and re-check against a batch oracle
  // over the final live set.
  ASSERT_TRUE(service.ForceMerge().ok());
  EXPECT_GE(service.merges(), 1u);
  EXPECT_EQ(service.delta_ops(), 0u);
  for (size_t i = 0; i < kQueries; ++i) {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = base[i * 11];
    req.tau = 0.05;
    auto r = service.Execute(req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ids, expected[i]) << "query " << i << " after final merge";
  }
  service.Stop();
}

// ------------------------------------------------------------------------
// Answer cache: version-tagged LRU over the serving read path. The
// load-bearing invariant: a hit after ANY publish (Insert / Delete /
// merge) is impossible, so cached answers are always what a recompute
// would return.
// ------------------------------------------------------------------------

class AnswerCacheTest : public ::testing::Test {
 protected:
  void StartService(size_t cache_entries, size_t n = 150) {
    ds_ = CityDataset(n, 311);
    DitaConfig config = SmallConfig();
    config.serving.synchronous_merge = true;
    config.serving.merge_threshold = 1000;  // no merges unless forced
    config.serving.answer_cache_entries = cache_entries;
    service_ = std::make_unique<DitaService>(MakeCluster(), config);
    ASSERT_TRUE(service_->Start(ds_).ok());
  }

  QueryRequest SearchReq(const Trajectory& q, double tau = 0.05) const {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = q;
    req.tau = tau;
    return req;
  }

  Dataset ds_;
  std::unique_ptr<DitaService> service_;
};

TEST_F(AnswerCacheTest, DisabledByDefaultCountsNothing) {
  StartService(0);
  const QueryRequest req = SearchReq(ds_[3]);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service_->Execute(req).ok());
  }
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 0u);
  EXPECT_EQ(service_->cache_evictions(), 0u);
  EXPECT_EQ(service_->cache_invalidations(), 0u);
}

TEST_F(AnswerCacheTest, RepeatHitsAndAnswersAreIdentical) {
  StartService(16);
  const QueryRequest req = SearchReq(ds_[7]);
  auto first = service_->Execute(req);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 1u);
  auto second = service_->Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(second->ids, first->ids);
  EXPECT_EQ(second->serving.version, first->serving.version);
  // A different tau is a different key.
  auto other = service_->Execute(SearchReq(ds_[7], 0.08));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(service_->cache_misses(), 2u);
}

TEST_F(AnswerCacheTest, HitAfterInsertIsImpossible) {
  StartService(16);
  // Use a live trajectory as its own query so the insert of a clone is
  // guaranteed to change the answer — a stale hit would be observable.
  const Trajectory& q = ds_[11];
  const QueryRequest req = SearchReq(q);
  auto before = service_->Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(service_->Execute(req).ok());
  EXPECT_EQ(service_->cache_hits(), 1u);

  ASSERT_TRUE(service_->Insert(WithId(q, 900001)).ok());
  EXPECT_GE(service_->cache_invalidations(), 1u);
  auto after = service_->Execute(req);
  ASSERT_TRUE(after.ok());
  // No hit was served, and the answer reflects the write.
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_NE(after->ids, before->ids);
  EXPECT_TRUE(std::find(after->ids.begin(), after->ids.end(), 900001) !=
              after->ids.end());
}

TEST_F(AnswerCacheTest, HitAfterDeleteOrMergeIsImpossible) {
  StartService(16);
  const Trajectory& q = ds_[13];
  const QueryRequest req = SearchReq(q);
  auto before = service_->Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->ids.empty());  // q matches itself at least

  // Delete the query's own id: the cached answer must die with it.
  const uint64_t inval0 = service_->cache_invalidations();
  ASSERT_TRUE(service_->Delete(q.id()).ok());
  EXPECT_GT(service_->cache_invalidations(), inval0);
  auto after_delete = service_->Execute(req);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_TRUE(std::find(after_delete->ids.begin(), after_delete->ids.end(),
                        q.id()) == after_delete->ids.end());

  // A forced merge publishes a new epoch: again no hit may survive.
  const uint64_t inval1 = service_->cache_invalidations();
  ASSERT_TRUE(service_->ForceMerge().ok());
  EXPECT_GT(service_->cache_invalidations(), inval1);
  auto after_merge = service_->Execute(req);
  ASSERT_TRUE(after_merge.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(after_merge->ids, after_delete->ids);
}

TEST_F(AnswerCacheTest, LruEvictsLeastRecentlyUsed) {
  StartService(2);
  const QueryRequest a = SearchReq(ds_[1]);
  const QueryRequest b = SearchReq(ds_[2]);
  const QueryRequest c = SearchReq(ds_[3]);
  ASSERT_TRUE(service_->Execute(a).ok());
  ASSERT_TRUE(service_->Execute(b).ok());
  ASSERT_TRUE(service_->Execute(c).ok());  // evicts a
  EXPECT_EQ(service_->cache_evictions(), 1u);
  ASSERT_TRUE(service_->Execute(b).ok());  // still resident
  EXPECT_EQ(service_->cache_hits(), 1u);
  ASSERT_TRUE(service_->Execute(a).ok());  // miss: was evicted; evicts c
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(service_->cache_evictions(), 2u);
}

TEST_F(AnswerCacheTest, KnnResultsAreCached) {
  StartService(16);
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = ds_[5];
  req.k = 4;
  auto first = service_->Execute(req);
  ASSERT_TRUE(first.ok());
  auto second = service_->Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(second->neighbors, first->neighbors);
  // Ingest invalidates kNN entries too.
  ASSERT_TRUE(service_->Insert(WithId(ds_[5], 900002)).ok());
  auto third = service_->Execute(req);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_NE(third->neighbors, first->neighbors);
}

TEST_F(AnswerCacheTest, BatchPathServesAndFillsTheCache) {
  StartService(16);
  const QueryRequest req = SearchReq(ds_[9]);
  // First batch: both members carry the same key; neither hits (the lookup
  // precedes the shared computation) but the result is stored.
  auto first = service_->ExecuteBatch({req, req});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(first[0].ok());
  ASSERT_TRUE(first[1].ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  // Second batch: both members hit, answers identical to the computed run.
  auto second = service_->ExecuteBatch({req, req});
  ASSERT_TRUE(second[0].ok());
  ASSERT_TRUE(second[1].ok());
  EXPECT_EQ(service_->cache_hits(), 2u);
  EXPECT_EQ(second[0]->ids, first[0]->ids);
  EXPECT_EQ(second[1]->ids, first[1]->ids);
}

TEST_F(AnswerCacheTest, ContextCarryingRequestsBypassTheCache) {
  StartService(16);
  QueryContext ctx;
  QueryRequest req = SearchReq(ds_[15]);
  req.ctx = &ctx;
  ASSERT_TRUE(service_->Execute(req).ok());
  ASSERT_TRUE(service_->Execute(req).ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 0u);
}

}  // namespace
}  // namespace dita
