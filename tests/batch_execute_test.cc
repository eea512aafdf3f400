#include <algorithm>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serving/service.h"
#include "util/query_context.h"
#include "workload/generator.h"

namespace dita {
namespace {

std::shared_ptr<Cluster> MakeCluster(size_t workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return std::make_shared<Cluster>(cfg);
}

Dataset CityDataset(size_t n = 400, uint64_t seed = 51) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.avg_len = 16;
  cfg.min_len = 4;
  cfg.max_len = 50;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

DitaConfig SmallConfig(DistanceType type = DistanceType::kDTW) {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.align_fanout = 8;
  config.build.trie.pivot_fanout = 4;
  config.build.trie.leaf_capacity = 4;
  config.distance = type;
  config.distance_params.epsilon = 0.01;
  config.distance_params.delta = 4;
  config.verify.cell_size = 0.02;
  // On, so the pruned_by_cell parity below compares real counts.
  config.verify.enable_cell = true;
  return config;
}

double TauFor(DistanceType type, size_t i) {
  if (type == DistanceType::kEDR || type == DistanceType::kLCSS) {
    return static_cast<double>(1 + i % 3);
  }
  return 0.03 * (1.0 + static_cast<double>(i % 4));
}

QueryRequest SearchReq(const Trajectory& q, double tau) {
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = q;
  req.tau = tau;
  req.collect_stats = true;
  return req;
}

/// Per-query equality between a batched slot and its standalone oracle:
/// answer ids, candidate/verify accounting, and the whole filter funnel.
void ExpectSameResult(const Result<QueryResult>& got,
                      const Result<QueryResult>& want, size_t i) {
  ASSERT_EQ(got.ok(), want.ok()) << "query " << i;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "query " << i;
    return;
  }
  EXPECT_EQ(got->ids, want->ids) << "query " << i;
  EXPECT_EQ(got->neighbors, want->neighbors) << "query " << i;
  const QueryStats& gs = got->search_stats;
  const QueryStats& ws = want->search_stats;
  EXPECT_EQ(gs.partitions_probed, ws.partitions_probed) << "query " << i;
  EXPECT_EQ(gs.candidates, ws.candidates) << "query " << i;
  EXPECT_EQ(gs.results, ws.results) << "query " << i;
  EXPECT_EQ(gs.completeness, ws.completeness) << "query " << i;
  EXPECT_EQ(gs.verify.pairs, ws.verify.pairs) << "query " << i;
  EXPECT_EQ(gs.verify.pruned_by_mbr, ws.verify.pruned_by_mbr) << "query " << i;
  EXPECT_EQ(gs.verify.pruned_by_cell, ws.verify.pruned_by_cell)
      << "query " << i;
  EXPECT_EQ(gs.verify.dp_computed, ws.verify.dp_computed) << "query " << i;
  EXPECT_EQ(gs.verify.dp_cells, ws.verify.dp_cells) << "query " << i;
  EXPECT_EQ(gs.verify.accepted, ws.verify.accepted) << "query " << i;
  EXPECT_EQ(gs.funnel.ToTable(), ws.funnel.ToTable()) << "query " << i;
  EXPECT_EQ(got->serving.delta_scanned, want->serving.delta_scanned)
      << "query " << i;
  EXPECT_EQ(got->serving.delta_matches, want->serving.delta_matches)
      << "query " << i;
  EXPECT_EQ(got->serving.deleted_filtered, want->serving.deleted_filtered)
      << "query " << i;
  EXPECT_EQ(got->serving.delta_funnel.ToTable(),
            want->serving.delta_funnel.ToTable())
      << "query " << i;
}

class BatchExecuteProperty : public ::testing::TestWithParam<DistanceType> {};

/// Engine-level oracle: ExecuteBatch answers every member exactly as
/// Execute would, for every distance function, stats and funnel included.
TEST_P(BatchExecuteProperty, EngineBatchMatchesExecute) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig(GetParam()));
  Dataset ds = CityDataset(300);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  std::vector<QueryRequest> reqs;
  for (size_t i = 0; i < 16; ++i) {
    reqs.push_back(
        SearchReq(ds[(i * 37) % ds.size()], TauFor(GetParam(), i)));
  }
  std::vector<Result<QueryResult>> batched = engine.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ExpectSameResult(batched[i], engine.Execute(reqs[i]), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, BatchExecuteProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kLCSS,
                                           DistanceType::kEDR,
                                           DistanceType::kERP));

/// Mixed batches: non-search and invalid members fall back to the
/// standalone path (same answers, same errors) without disturbing the
/// batched searches around them.
TEST(BatchExecuteTest, MixedBatchFallsBackPerMember) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(300);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  std::vector<QueryRequest> reqs;
  reqs.push_back(SearchReq(ds[11], 0.05));
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds[23];
  knn.k = 5;
  reqs.push_back(knn);
  reqs.push_back(SearchReq(ds[37], -1.0));  // invalid: negative threshold
  reqs.push_back(SearchReq(ds[53], 0.04));

  std::vector<Result<QueryResult>> batched = engine.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ExpectSameResult(batched[i], engine.Execute(reqs[i]), i);
  }
}

/// A member whose context stops mid-batch degrades alone: it reports its
/// own termination status while every other member's answer stays
/// bit-identical to a standalone run.
TEST(BatchExecuteTest, StoppedMemberDegradesAlone) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(300);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  std::vector<QueryRequest> reqs;
  for (size_t i = 0; i < 6; ++i) {
    reqs.push_back(SearchReq(ds[(i * 37) % ds.size()], 0.05));
  }
  QueryContext victim;
  victim.CancelAfterOps(8);
  reqs[2].ctx = &victim;

  std::vector<Result<QueryResult>> batched = engine.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());
  EXPECT_TRUE(victim.stopped());
  ASSERT_TRUE(batched[2].ok());
  EXPECT_FALSE(batched[2]->search_stats.termination.ok());
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (i == 2) continue;
    QueryRequest solo = reqs[i];
    ExpectSameResult(batched[i], engine.Execute(solo), i);
  }
}

DitaConfig ServingConfig() {
  DitaConfig config = SmallConfig();
  config.serving.merge_threshold = 0;  // keep the delta; exercise the scan
  config.serving.synchronous_merge = true;
  return config;
}

/// Service-level oracle: ExecuteBatch over a snapshot with live delta
/// inserts and deletes answers every member exactly as sequential Execute
/// calls, including serving accounting.
TEST(BatchExecuteTest, ServiceBatchMatchesExecuteWithDelta) {
  auto cluster = MakeCluster();
  DitaService service(cluster, ServingConfig());
  Dataset ds = CityDataset(240);
  ASSERT_TRUE(service.Start(ds).ok());
  // Mutate: a few inserts land in the delta buffer, a few base deletes.
  Dataset extra = CityDataset(20, 99);
  for (size_t i = 0; i < extra.size(); ++i) {
    Trajectory t(50000 + static_cast<TrajectoryId>(i), extra[i].points());
    ASSERT_TRUE(service.Insert(t).ok());
  }
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.Delete(ds[i * 7].id()).ok());
  }

  std::vector<QueryRequest> reqs;
  for (size_t i = 0; i < 12; ++i) {
    reqs.push_back(SearchReq(ds[(i * 37) % ds.size()], 0.03 * (1 + i % 3)));
  }
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds[5];
  knn.k = 4;
  reqs.push_back(knn);

  std::vector<Result<QueryResult>> batched = service.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ExpectSameResult(batched[i], service.Execute(reqs[i]), i);
  }
}

/// Submit-path coalescing: with max_batch_size > 1 the executor folds
/// queued compatible requests into one batch; answers equal standalone
/// Execute and the coalescing counters advance.
TEST(BatchExecuteTest, SubmitCoalescesQueuedSearches) {
  auto cluster = MakeCluster();
  DitaConfig config = ServingConfig();
  config.serving.scheduler_threads = 1;   // one executor: jobs queue up
  config.serving.max_batch_size = 16;
  config.serving.batch_window_seconds = 0.25;
  DitaService service(cluster, config);
  Dataset ds = CityDataset(240);
  ASSERT_TRUE(service.Start(ds).ok());

  std::vector<QueryRequest> reqs;
  for (size_t i = 0; i < 12; ++i) {
    reqs.push_back(SearchReq(ds[(i * 37) % ds.size()], 0.03 * (1 + i % 3)));
  }
  std::vector<std::future<Result<QueryResult>>> futs;
  futs.reserve(reqs.size());
  for (const QueryRequest& req : reqs) futs.push_back(service.Submit(req));
  for (size_t i = 0; i < reqs.size(); ++i) {
    ExpectSameResult(futs[i].get(), service.Execute(reqs[i]), i);
  }
  EXPECT_GT(service.coalesced_batches(), 0u);
  EXPECT_GT(service.coalesced_queries(), service.coalesced_batches());
}

/// The cell tier is sound, so switching it changes only the funnel
/// counters: engine search, kNN and join, and service search, batch and
/// kNN over a live delta, answer identically with it on and off.
class CellTierProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(CellTierProperty, AnswersMatchWithTierOnAndOff) {
  Dataset ds = CityDataset(240);
  Dataset extra = CityDataset(20, 99);
  std::vector<QueryRequest> searches;
  for (size_t i = 0; i < 12; ++i) {
    searches.push_back(
        SearchReq(ds[(i * 37) % ds.size()], 0.03 * (1 + i % 3)));
  }
  auto knn = [](const Trajectory& q) {
    QueryRequest req;
    req.kind = QueryKind::kKnnSearch;
    req.query = q;
    req.k = 5;
    return req;
  };

  struct Answers {
    std::vector<std::vector<TrajectoryId>> ids;
    std::vector<std::vector<std::pair<TrajectoryId, double>>> neighbors;
    std::vector<std::pair<TrajectoryId, TrajectoryId>> join;
    size_t pruned_by_cell = 0;
  };
  auto run = [&](bool cell) {
    Answers out;
    auto record = [&out](const Result<QueryResult>& r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      out.ids.push_back(r->ids);
      out.neighbors.push_back(r->neighbors);
      out.pruned_by_cell += r->search_stats.verify.pruned_by_cell;
    };
    DitaConfig config = ServingConfig();
    config.distance = GetParam();
    config.verify.enable_cell = cell;

    auto cluster = MakeCluster();
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    for (const QueryRequest& req : searches) record(engine.Execute(req));
    for (size_t i = 0; i < 4; ++i) record(engine.Execute(knn(ds[i * 11])));
    auto join = engine.Join(engine, 0.03);
    EXPECT_TRUE(join.ok());
    if (join.ok()) out.join = *join;

    DitaService service(cluster, config);
    EXPECT_TRUE(service.Start(ds).ok());
    for (size_t i = 0; i < extra.size(); ++i) {
      Trajectory t(50000 + static_cast<TrajectoryId>(i), extra[i].points());
      EXPECT_TRUE(service.Insert(t).ok());
    }
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(service.Delete(ds[i * 7].id()).ok());
    }
    for (size_t i = 0; i < searches.size(); ++i) {
      QueryRequest fresh = searches[i];  // a query that matches the delta
      fresh.query = extra[i];
      record(service.Execute(searches[i]));
      record(service.Execute(fresh));
    }
    for (const Result<QueryResult>& r : service.ExecuteBatch(searches)) {
      record(r);
    }
    for (size_t i = 0; i < 4; ++i) {
      record(service.Execute(knn(ds[i * 13])));
      record(service.Execute(knn(extra[i])));
    }
    return out;
  };

  const Answers on = run(true);
  const Answers off = run(false);
  EXPECT_GT(on.pruned_by_cell, 0u);  // the tier really filtered
  EXPECT_EQ(off.pruned_by_cell, 0u);
  EXPECT_EQ(on.ids, off.ids);
  EXPECT_EQ(on.neighbors, off.neighbors);
  EXPECT_EQ(on.join, off.join);
  EXPECT_FALSE(off.join.empty());
}

INSTANTIATE_TEST_SUITE_P(Geometric, CellTierProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet),
                         [](const auto& info) {
                           return std::string(DistanceTypeName(info.param));
                         });

}  // namespace
}  // namespace dita
