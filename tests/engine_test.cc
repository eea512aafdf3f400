#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace dita {
namespace {

/// True when built with ASan/TSan (ci.sh's sanitized pass). Instrumentation
/// slows measured CPU by an order of magnitude, which shifts the
/// compute-vs-transfer cost ratios that timing-based planner heuristics
/// (like division balancing) trigger on.
constexpr bool BuiltWithSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

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
  return config;
}

TEST(DitaEngineTest, BuildValidatesInput) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig();
  config.build.ng = 0;
  DitaEngine bad(cluster, config);
  EXPECT_FALSE(bad.BuildIndex(CityDataset(20)).ok());

  DitaEngine engine(cluster, SmallConfig());
  Dataset with_short;
  with_short.Add(Trajectory(0, {{0, 0}}));
  EXPECT_FALSE(engine.BuildIndex(with_short).ok());

  // A non-finite coordinate would poison the STR tiling sort and the Morton
  // quantization; it is rejected before anything is built.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Dataset with_bad = CityDataset(20);
    with_bad.Add(Trajectory(999, {{0.5, 0.5}, {bad, 0.5}, {0.6, 0.6}}));
    const Status st = engine.BuildIndex(with_bad);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_FALSE(engine.indexed());
  }
}

TEST(DitaEngineTest, SearchBeforeBuildFails) {
  DitaEngine engine(MakeCluster(), SmallConfig());
  Trajectory q(0, {{0, 0}, {1, 1}});
  EXPECT_FALSE(engine.Search(q, 1.0).ok());
}

TEST(DitaEngineTest, SearchRejectsBadArgs) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(50)).ok());
  Trajectory q(0, {{0, 0}, {1, 1}});
  EXPECT_FALSE(engine.Search(q, -1.0).ok());
  EXPECT_FALSE(engine.Search(Trajectory(0, {{0, 0}}), 1.0).ok());
}

TEST(DitaEngineTest, IndexStatsPopulated) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(300);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  const auto& stats = engine.index_stats();
  EXPECT_EQ(stats.num_trajectories, ds.size());
  EXPECT_GT(stats.num_partitions, 1u);
  EXPECT_GT(stats.global_index_bytes, 0u);
  EXPECT_GT(stats.local_index_bytes, 0u);
  EXPECT_GT(stats.build_seconds, 0.0);
}

TEST(DitaEngineTest, DefaultConfigBuildsNoCellSummaries) {
  // The shipped funnel has no cell tier, so BuildIndex builds no Lemma 5.6
  // summaries; turning the tier on adds exactly their bytes.
  Dataset ds = CityDataset(300);
  DitaEngine shipped(MakeCluster(), DitaConfig{});
  ASSERT_TRUE(shipped.BuildIndex(ds).ok());
  DitaConfig with_cells;
  with_cells.verify.enable_cell = true;
  DitaEngine cells(MakeCluster(), with_cells);
  ASSERT_TRUE(cells.BuildIndex(ds).ok());

  const IndexStats& off = shipped.index_stats();
  const IndexStats& on = cells.index_stats();
  EXPECT_EQ(off.cell_bytes, 0u);
  EXPECT_GT(on.cell_bytes, 0u);
  EXPECT_LT(off.local_index_bytes, on.local_index_bytes);
  EXPECT_EQ(on.local_index_bytes - off.local_index_bytes, on.cell_bytes);
}

TEST(DitaEngineTest, ParallelBuildMatchesSerialBuild) {
  // build_threads only changes how construction work is chunked; the index,
  // the simulated cost ledger, and every query answer must be unchanged.
  Dataset ds = CityDataset(500);
  DitaConfig serial_cfg = SmallConfig();
  DitaEngine serial(MakeCluster(), serial_cfg);
  ASSERT_TRUE(serial.BuildIndex(ds).ok());

  DitaConfig parallel_cfg = SmallConfig();
  parallel_cfg.build.threads = 3;
  DitaEngine parallel(MakeCluster(), parallel_cfg);
  ASSERT_TRUE(parallel.BuildIndex(ds).ok());

  EXPECT_EQ(parallel.index_stats().num_partitions,
            serial.index_stats().num_partitions);
  EXPECT_EQ(parallel.index_stats().local_index_bytes,
            serial.index_stats().local_index_bytes);
  for (size_t i = 0; i < 8; ++i) {
    const Trajectory& q = ds[(i * 37) % ds.size()];
    auto a = serial.Search(q, 0.05);
    auto b = parallel.Search(q, 0.05);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

/// End-to-end correctness: engine search equals brute force for every
/// distance function.
class EngineSearchProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineSearchProperty, MatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig(GetParam());
  DitaEngine engine(cluster, config);
  Dataset ds = CityDataset(300);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  auto dist = *MakeDistance(GetParam(), config.distance_params);
  const bool edit = GetParam() == DistanceType::kEDR ||
                    GetParam() == DistanceType::kLCSS;
  const std::vector<double> taus = edit
                                       ? std::vector<double>{1.0, 3.0, 6.0}
                                       : std::vector<double>{0.005, 0.03, 0.1};
  auto queries = ds.SampleQueries(8, 17);
  for (const auto& q : queries) {
    for (double tau : taus) {
      DitaEngine::QueryStats qstats;
      auto got = engine.Search(q, tau, &qstats);
      ASSERT_TRUE(got.ok());
      std::vector<TrajectoryId> expected;
      for (const auto& t : ds.trajectories()) {
        if (dist->Compute(t, q) <= tau) expected.push_back(t.id());
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(*got, expected) << dist->name() << " tau=" << tau;
      EXPECT_EQ(qstats.results, expected.size());
      EXPECT_GE(qstats.candidates, expected.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineSearchProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

/// Join correctness: DITA join equals the brute-force cross product filter.
class EngineJoinProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineJoinProperty, SelfJoinMatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig(GetParam());
  DitaEngine engine(cluster, config);
  Dataset ds = CityDataset(120, 61);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  auto dist = *MakeDistance(GetParam(), config.distance_params);
  const bool edit = GetParam() == DistanceType::kEDR ||
                    GetParam() == DistanceType::kLCSS;
  const double tau = edit ? 2.0 : 0.02;

  DitaEngine::JoinStats jstats;
  auto got = engine.Join(engine, tau, &jstats);
  ASSERT_TRUE(got.ok());

  std::vector<std::pair<TrajectoryId, TrajectoryId>> expected;
  for (const auto& a : ds.trajectories()) {
    for (const auto& b : ds.trajectories()) {
      if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*got, expected) << dist->name() << " tau=" << tau;
  EXPECT_EQ(jstats.result_pairs, expected.size());
  EXPECT_GT(jstats.graph_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineJoinProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

/// Every trajectory's exact distance to `q`, in KnnRankLess order.
std::vector<std::pair<TrajectoryId, double>> BruteForceRanking(
    const std::vector<Trajectory>& data, const TrajectoryDistance& dist,
    const Trajectory& q) {
  std::vector<std::pair<TrajectoryId, double>> all;
  for (const auto& t : data) all.emplace_back(t.id(), dist.Compute(t, q));
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return KnnRankLess(a, b); });
  return all;
}

/// kNN extension: exact against brute force for every distance function.
class EngineKnnProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineKnnProperty, MatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig(GetParam());
  DitaEngine engine(cluster, config);
  Dataset ds = CityDataset(250, 65);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto dist = *MakeDistance(GetParam(), config.distance_params);

  for (const auto& q : ds.SampleQueries(5, 19)) {
    const auto all = BruteForceRanking(ds.trajectories(), *dist, q);
    for (size_t k : {1u, 5u, 20u}) {
      auto got = engine.KnnSearch(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), k);
      // Bit-identical distances and the (distance, id) tie order.
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ((*got)[i], all[i])
            << dist->name() << " k=" << k << " i=" << i;
      }
    }
  }
}

/// Duplicate trajectories under different ids make every distance tie at
/// least three ways, and the copies are indexed in descending id order, so
/// an order that breaks ties by input position would disagree with the id
/// order. Every k — including ones that cut a tie group — must return the
/// brute-force (distance, id) prefix.
TEST_P(EngineKnnProperty, TiesRankByIdAcrossDuplicates) {
  const Dataset base = CityDataset(60, 71);
  std::vector<Trajectory> copies;
  for (int c = 2; c >= 0; --c) {
    for (size_t i = base.size(); i-- > 0;) {
      copies.emplace_back(TrajectoryId(c * 1000 + TrajectoryId(i)),
                          base[i].points());
    }
  }
  DitaConfig config = SmallConfig(GetParam());
  DitaEngine engine(MakeCluster(), config);
  ASSERT_TRUE(engine.BuildIndex(Dataset(copies)).ok());
  auto dist = *MakeDistance(GetParam(), config.distance_params);

  for (const Trajectory* q : {&base[3], &base[17], &base[42]}) {
    const auto all = BruteForceRanking(copies, *dist, *q);
    for (size_t k : {1u, 2u, 3u, 4u, 8u, 13u}) {
      auto got = engine.KnnSearch(*q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<std::pair<TrajectoryId, double>> want(
          all.begin(), all.begin() + long(k));
      EXPECT_EQ(*got, want) << dist->name() << " k=" << k;
    }
  }
}

/// A kNN query is one pass: a single cluster stage, whatever the metric,
/// with no per-round re-probing.
TEST_P(EngineKnnProperty, OnePassRunsOneStage) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig(GetParam()));
  Dataset ds = CityDataset(250, 65);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  std::vector<Trajectory> queries = ds.SampleQueries(3, 23);
  const Dataset held_out = CityDataset(3, 97);
  queries.insert(queries.end(), held_out.trajectories().begin(),
                 held_out.trajectories().end());
  for (const auto& q : queries) {
    for (size_t k : {1u, 10u, 60u}) {
      const uint64_t before = cluster->stages_run();
      QueryStats stats;
      ASSERT_TRUE(engine.KnnSearch(q, k, 0.0, &stats).ok());
      EXPECT_EQ(cluster->stages_run() - before, 1u) << "k=" << k;
      EXPECT_EQ(stats.results, k);
      EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
    }
  }
}

/// With the stage's tasks on several threads, they share the heap and its
/// shrinking bound concurrently; the answer stays the brute-force prefix.
TEST_P(EngineKnnProperty, ConcurrentTasksShareTheHeapExactly) {
  ClusterConfig cc;
  cc.num_workers = 4;
  cc.execution_threads = 4;
  DitaConfig config = SmallConfig(GetParam());
  DitaEngine engine(std::make_shared<Cluster>(cc), config);
  Dataset ds = CityDataset(250, 65);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto dist = *MakeDistance(GetParam(), config.distance_params);

  const Dataset held_out = CityDataset(4, 101);
  for (const auto& q : held_out.trajectories()) {
    const auto all = BruteForceRanking(ds.trajectories(), *dist, q);
    for (size_t k : {1u, 7u, 25u}) {
      auto got = engine.KnnSearch(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<std::pair<TrajectoryId, double>> want(
          all.begin(), all.begin() + long(k));
      EXPECT_EQ(*got, want) << dist->name() << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineKnnProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(DitaEngineTest, KnnScoringIsAllocationFreeInSteadyState) {
  // The default cluster runs stage tasks inline on the calling thread, so
  // the kNN scoring loop uses this thread's DpScratch. After a warm-up pass
  // has grown its lanes, repeated kNN queries (every expansion round, every
  // bounded DP) must not grow them again.
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(300, 73);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  const auto queries = ds.SampleQueries(6, 29);
  size_t candidates = 0;
  auto pass = [&] {
    for (const auto& q : queries) {
      for (size_t k : {1u, 10u}) {
        QueryStats stats;
        ASSERT_TRUE(engine.KnnSearch(q, k, 0.0, &stats).ok());
        candidates += stats.candidates;
      }
    }
  };
  pass();
  const uint64_t before = DpScratch::ThreadLocal().reallocations();
  pass();
  pass();
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(DpScratch::ThreadLocal().reallocations(), before)
      << "kNN scoring grew the DP scratch after warm-up";
}

TEST(DitaEngineTest, SearchIsAllocationFreeInSteadyState) {
  // A lone search and an 8-member batch run the same batched body, here on
  // the calling thread (the default cluster runs stage tasks inline). After
  // a warm-up pass has grown the grow-once arenas — trie traversal scratch,
  // per-member candidate / accepted lists, verify lanes — repeating the
  // same searches must not grow them again.
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(300, 73);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  std::vector<QueryRequest> batch;
  for (const Trajectory& q : ds.SampleQueries(8, 31)) {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = q;
    req.tau = 0.02 * static_cast<double>(1 + batch.size() % 3);
    batch.push_back(req);
  }
  size_t results = 0;
  auto pass = [&] {
    for (const QueryRequest& req : batch) {
      const auto r = engine.Execute(req);
      ASSERT_TRUE(r.ok());
      results += r->ids.size();
    }
    for (const auto& r : engine.ExecuteBatch(batch)) {
      ASSERT_TRUE(r.ok());
      results += r->ids.size();
    }
  };
  pass();
  const size_t trie_bytes = TrieIndex::Scratch::ThreadLocal().ByteSize();
  const size_t dp_bytes = DpScratch::ThreadLocal().ByteSize();
  const uint64_t reallocations = DpScratch::ThreadLocal().reallocations();
  pass();
  pass();
  EXPECT_GT(results, 0u);
  EXPECT_EQ(TrieIndex::Scratch::ThreadLocal().ByteSize(), trie_bytes)
      << "search grew the trie scratch after warm-up";
  EXPECT_EQ(DpScratch::ThreadLocal().reallocations(), reallocations)
      << "search grew the DP scratch lanes after warm-up";
  EXPECT_EQ(DpScratch::ThreadLocal().ByteSize(), dp_bytes)
      << "search grew the per-member candidate / accepted lists after warm-up";
}

TEST(DitaEngineTest, ParallelVerificationMatchesSerial) {
  // verify_threads fans the surviving DP work of each partition across an
  // engine-local pool; answers must be bit-identical to the serial engine,
  // and the offloaded CPU must land in the owning worker's virtual time.
  Dataset ds = CityDataset(300);
  auto serial_cluster = MakeCluster();
  DitaEngine serial(serial_cluster, SmallConfig());
  ASSERT_TRUE(serial.BuildIndex(ds).ok());

  auto parallel_cluster = MakeCluster();
  DitaConfig parallel_config = SmallConfig();
  parallel_config.verify.threads = 2;
  parallel_config.verify.parallel_min = 1;  // force the pool path
  DitaEngine parallel(parallel_cluster, parallel_config);
  ASSERT_TRUE(parallel.BuildIndex(ds).ok());

  auto queries = ds.SampleQueries(6, 23);
  for (const auto& q : queries) {
    for (double tau : {0.01, 0.05, 0.2}) {
      auto want = serial.Search(q, tau);
      auto got = parallel.Search(q, tau);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), want.value()) << "tau=" << tau;
    }
  }

  auto want_join = serial.Join(serial, 0.02);
  auto got_join = parallel.Join(parallel, 0.02);
  ASSERT_TRUE(want_join.ok());
  ASSERT_TRUE(got_join.ok());
  EXPECT_EQ(got_join.value(), want_join.value());
}

TEST(DitaEngineTest, KnnJoinMatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig();
  DitaEngine left(cluster, config);
  DitaEngine right(cluster, config);
  Dataset ds_l = CityDataset(40, 67);
  Dataset ds_r = CityDataset(80, 68);
  ASSERT_TRUE(left.BuildIndex(ds_l).ok());
  ASSERT_TRUE(right.BuildIndex(ds_r).ok());

  const size_t k = 3;
  auto got = left.KnnJoin(right, k);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), ds_l.size() * k);

  auto dist = *MakeDistance(DistanceType::kDTW);
  size_t row = 0;
  std::map<TrajectoryId, const Trajectory*> left_by_id;
  for (const auto& t : ds_l.trajectories()) left_by_id[t.id()] = &t;
  TrajectoryId prev_left = -1;
  for (const auto& r : *got) {
    EXPECT_GE(r.left, prev_left);
    prev_left = r.left;
    ++row;
  }
  // Verify a few left trajectories' rows against brute force, bit for bit
  // and in (distance, id) order.
  for (size_t i = 0; i < 5; ++i) {
    const Trajectory& q = ds_l[i];
    const auto all = BruteForceRanking(ds_r.trajectories(), *dist, q);
    size_t idx = 0;
    for (const auto& r : *got) {
      if (r.left != q.id()) continue;
      ASSERT_LT(idx, k);
      EXPECT_EQ(r.right, all[idx].first) << "left=" << r.left;
      EXPECT_EQ(r.distance, all[idx].second) << "left=" << r.left;
      ++idx;
    }
    EXPECT_EQ(idx, k);
  }
}

TEST(DitaEngineTest, KnnJoinEdgeCases) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(30, 69)).ok());
  auto zero = engine.KnnJoin(engine, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  EXPECT_FALSE(engine.KnnJoin(engine, 31).ok());
  // Self kNN-join with k = 1 pairs everything with itself at distance 0.
  auto self = engine.KnnJoin(engine, 1);
  ASSERT_TRUE(self.ok());
  for (const auto& r : *self) {
    EXPECT_EQ(r.left, r.right);
    EXPECT_DOUBLE_EQ(r.distance, 0.0);
  }
}

TEST(DitaEngineTest, KnnEdgeCases) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  Dataset ds = CityDataset(50, 66);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto zero = engine.KnnSearch(ds[0], 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  EXPECT_FALSE(engine.KnnSearch(ds[0], ds.size() + 1).ok());
  // k = 1 on a dataset member returns the member itself at distance 0.
  auto self = engine.KnnSearch(ds[7], 1);
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ((*self)[0].second, 0.0);
}

TEST(DitaEngineTest, TwoTableJoinMatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig();
  DitaEngine left(cluster, config);
  DitaEngine right(cluster, config);
  Dataset ds_l = CityDataset(100, 71);
  Dataset ds_r = CityDataset(100, 72);
  ASSERT_TRUE(left.BuildIndex(ds_l).ok());
  ASSERT_TRUE(right.BuildIndex(ds_r).ok());

  const double tau = 0.05;
  auto got = left.Join(right, tau);
  ASSERT_TRUE(got.ok());

  auto dist = *MakeDistance(DistanceType::kDTW);
  std::vector<std::pair<TrajectoryId, TrajectoryId>> expected;
  for (const auto& a : ds_l.trajectories()) {
    for (const auto& b : ds_r.trajectories()) {
      if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*got, expected);
}

TEST(DitaEngineTest, JoinRequiresSharedCluster) {
  DitaEngine a(MakeCluster(), SmallConfig());
  DitaEngine b(MakeCluster(), SmallConfig());
  ASSERT_TRUE(a.BuildIndex(CityDataset(30, 1)).ok());
  ASSERT_TRUE(b.BuildIndex(CityDataset(30, 2)).ok());
  EXPECT_FALSE(a.Join(b, 0.1).ok());
}

TEST(DitaEngineTest, SearchChargesClusterCosts) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(200)).ok());
  Trajectory q = CityDataset(200)[0];
  DitaEngine::QueryStats stats;
  ASSERT_TRUE(engine.Search(q, 0.05, &stats).ok());
  EXPECT_GT(stats.makespan_seconds, 0.0);
  EXPECT_GT(stats.partitions_probed, 0u);
}

TEST(DitaEngineTest, JoinShipsBytesAndReportsStats) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(150)).ok());
  DitaEngine::JoinStats stats;
  ASSERT_TRUE(engine.Join(engine, 0.03, &stats).ok());
  EXPECT_GT(stats.makespan_seconds, 0.0);
  EXPECT_GT(stats.bytes_shipped, 0u);  // cross-worker partition pairs exist
  EXPECT_GE(stats.load_ratio, 1.0);
  EXPECT_GE(stats.candidate_pairs, stats.result_pairs);
  // The verification-pipeline counters mirror the candidate/result totals
  // and account for every candidate pair exactly once.
  EXPECT_EQ(stats.verify.pairs, stats.candidate_pairs);
  EXPECT_EQ(stats.verify.accepted, stats.result_pairs);
  EXPECT_GT(stats.verify.dp_computed, 0u);
  EXPECT_GT(stats.verify.dp_cells, 0u);
  EXPECT_EQ(stats.verify.pruned_by_sketch + stats.verify.pruned_by_mbr +
                stats.verify.pruned_by_cell + stats.verify.dp_computed,
            stats.verify.pairs);
  // The join funnel is monotone and lands exactly on the result pairs.
  ASSERT_FALSE(stats.funnel.empty());
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
      << stats.funnel.ToTable();
  EXPECT_EQ(stats.funnel.FinalSurvivors(), stats.result_pairs);
}

TEST(DitaEngineTest, AblationTogglesPreserveCorrectness) {
  Dataset ds = CityDataset(150, 81);
  const double tau = 0.04;

  std::vector<std::pair<TrajectoryId, TrajectoryId>> reference;
  for (int mask = 0; mask < 4; ++mask) {
    auto cluster = MakeCluster();
    DitaConfig config = SmallConfig();
    config.verify.enable_mbr = mask & 1;
    config.verify.enable_cell = mask & 2;
    config.enable_graph_orientation = mask & 1;
    config.enable_division_balancing = mask & 2;
    DitaEngine engine(cluster, config);
    ASSERT_TRUE(engine.BuildIndex(ds).ok());
    auto got = engine.Join(engine, tau);
    ASSERT_TRUE(got.ok());
    if (mask == 0) {
      reference = *got;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(*got, reference) << "mask=" << mask;
    }
  }
}

TEST(DitaEngineTest, DivisionBalancingFiresOnSkewAndPreservesResults) {
  // Zipf route popularity concentrates work in few partitions; the division
  // mechanism (§6.3) must replicate at least one of them and must never
  // change the answer set.
  GeneratorConfig gcfg;
  gcfg.cardinality = 600;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.route_skew = 1.3;
  gcfg.seed = 131;
  Dataset ds = GenerateTaxiDataset(gcfg);

  auto run = [&](bool division) {
    auto cluster = MakeCluster(8);
    DitaConfig config = SmallConfig();
    config.build.ng = 5;
    config.enable_division_balancing = division;
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    DitaEngine::JoinStats stats;
    auto pairs = engine.Join(engine, 0.01, &stats);
    EXPECT_TRUE(pairs.ok());
    return std::make_pair(*pairs, stats);
  };
  auto [with_pairs, with_stats] = run(true);
  auto [without_pairs, without_stats] = run(false);
  EXPECT_EQ(with_pairs, without_pairs);
  // Whether the trigger fires depends on measured cost ratios, which
  // sanitizer instrumentation distorts; answers are checked unconditionally.
  if (!BuiltWithSanitizer()) {
    EXPECT_GE(with_stats.divided_partitions, 1u);
  }
  EXPECT_EQ(without_stats.divided_partitions, 0u);
}

TEST(DitaEngineTest, RandomPartitioningStillCorrect) {
  // The Fig. 13 ablation changes only cost, never answers.
  Dataset ds = CityDataset(150, 83);
  const double tau = 0.03;
  auto run = [&](bool random) {
    auto cluster = MakeCluster();
    DitaConfig config = SmallConfig();
    config.build.random_partitioning = random;
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    DitaEngine::JoinStats stats;
    auto got = engine.Join(engine, tau, &stats);
    EXPECT_TRUE(got.ok());
    return std::make_pair(*got, stats.bytes_shipped);
  };
  auto [spatial_pairs, spatial_bytes] = run(false);
  auto [random_pairs, random_bytes] = run(true);
  EXPECT_EQ(spatial_pairs, random_pairs);
  // Random partitions have huge first/last MBRs, so far more data ships.
  EXPECT_GT(random_bytes, spatial_bytes);
}

TEST(DitaEngineTest, RandomPartitioningComparison) {
  // Sanity for the Fig. 13 ablation harness: first/last partitioning ships
  // fewer bytes than the number of partition pairs would suggest, because
  // fewer trajectories are relevant to each partition.
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(200, 91)).ok());
  DitaEngine::JoinStats stats;
  ASSERT_TRUE(engine.Join(engine, 0.02, &stats).ok());
  const auto& istats = engine.index_stats();
  EXPECT_LT(stats.bytes_shipped,
            istats.num_partitions * CityDataset(200, 91).ByteSize());
}

}  // namespace
}  // namespace dita
