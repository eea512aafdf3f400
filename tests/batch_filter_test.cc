#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "index/trie_index.h"
#include "util/query_context.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset FilterDataset(size_t n = 600, uint64_t seed = 71) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.avg_len = 16;
  cfg.min_len = 4;
  cfg.max_len = 40;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

TrieIndex::Options SmallOpts() {
  TrieIndex::Options opts;
  opts.num_pivots = 3;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  return opts;
}

/// One pruning algebra: the spec fields besides query and tau.
struct ModeCase {
  const char* name;
  PruneMode mode;
  double epsilon;
  int lcss_delta;
  bool gap;
};

const Point kGap{0.5, 0.5};

std::vector<ModeCase> AllModes() {
  return {
      {"accumulate", PruneMode::kAccumulate, 0.0, -1, false},
      {"accumulate+erp_gap", PruneMode::kAccumulate, 0.0, -1, true},
      {"max", PruneMode::kMax, 0.0, -1, false},
      {"edit", PruneMode::kEditCount, 0.05, -1, false},
      {"edit+lcss", PruneMode::kEditCount, 0.05, 3, false},
  };
}

TrieIndex::SearchSpec SpecFor(const Trajectory& q, double tau,
                              const ModeCase& mc) {
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.mode = mc.mode;
  spec.epsilon = mc.epsilon;
  spec.lcss_delta = mc.lcss_delta;
  spec.erp_gap = mc.gap ? &kGap : nullptr;
  return spec;
}

double TauFor(const ModeCase& mc, size_t i) {
  if (mc.mode == PruneMode::kEditCount) return static_cast<double>(1 + i % 4);
  return 0.01 * (1.0 + static_cast<double>(i % 5));
}

bool StatsEqual(const TrieIndex::ProbeStats& a,
                const TrieIndex::ProbeStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.nodes_pruned == b.nodes_pruned &&
         a.pruned_members == b.pruned_members;
}

/// The funnel identity of an unstopped probe: every trajectory is either
/// under a pruned subtree or emitted from a surviving leaf.
uint64_t FunnelTotal(const TrieIndex::ProbeStats& stats, size_t emitted) {
  uint64_t total = emitted;
  for (const uint64_t pruned : stats.pruned_members) total += pruned;
  return total;
}

/// Oracle: for every pruning algebra and batch shape (including a single
/// member and mixed taus), each member's candidate vector must equal the
/// recursive reference traversal's in content and order, its probe
/// counters must equal a standalone CollectCandidates call's, and the
/// counters must account for the whole population.
TEST(BatchFilterTest, BatchMatchesSingleAcrossModesAndSizes) {
  Dataset ds = FilterDataset();
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), SmallOpts()).ok());
  const size_t kQueries = 40;
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(ds[(i * 61) % ds.size()]);
  }

  for (const ModeCase& mc : AllModes()) {
    SCOPED_TRACE(mc.name);
    std::vector<std::vector<uint32_t>> reference(kQueries);
    std::vector<TrieIndex::ProbeStats> single_stats(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      const TrieIndex::SearchSpec spec = SpecFor(queries[i], TauFor(mc, i), mc);
      index.CollectCandidatesReference(spec, &reference[i]);
      std::vector<uint32_t> single;
      single_stats[i].Reset(index.num_levels());
      index.CollectCandidates(spec, &single, &single_stats[i]);
      EXPECT_EQ(single, reference[i]) << "query " << i;
      EXPECT_EQ(FunnelTotal(single_stats[i], single.size()), index.size())
          << "query " << i;
    }

    for (const size_t batch_size : {size_t{1}, size_t{2}, size_t{32},
                                    kQueries}) {
      SCOPED_TRACE(batch_size);
      for (size_t lo = 0; lo < kQueries; lo += batch_size) {
        const size_t hi = std::min(lo + batch_size, kQueries);
        std::vector<std::vector<uint32_t>> got(hi - lo);
        std::vector<TrieIndex::ProbeStats> got_stats(hi - lo);
        std::vector<TrieIndex::BatchQuery> bq(hi - lo);
        for (size_t i = lo; i < hi; ++i) {
          got_stats[i - lo].Reset(index.num_levels());
          bq[i - lo].spec = SpecFor(queries[i], TauFor(mc, i), mc);
          bq[i - lo].out = &got[i - lo];
          bq[i - lo].stats = &got_stats[i - lo];
        }
        index.CollectCandidatesBatch(bq.data(), bq.size());
        for (size_t i = lo; i < hi; ++i) {
          EXPECT_EQ(got[i - lo], reference[i]) << "query " << i;
          EXPECT_TRUE(StatsEqual(got_stats[i - lo], single_stats[i]))
              << "query " << i;
          EXPECT_EQ(FunnelTotal(got_stats[i - lo], got[i - lo].size()),
                    index.size())
              << "query " << i;
        }
      }
    }
  }
}

/// A member stopped mid-traversal (self-cancel or candidate budget) must not
/// perturb any other member: the survivors stay bit-identical to their
/// standalone runs, batch after batch.
TEST(BatchFilterTest, StoppedMemberLeavesOthersBitIdentical) {
  Dataset ds = FilterDataset();
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), SmallOpts()).ok());
  const ModeCase mc{"accumulate", PruneMode::kAccumulate, 0.0, -1, false};
  const size_t kQueries = 8;
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(ds[(i * 61) % ds.size()]);
  }
  std::vector<std::vector<uint32_t>> single(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    index.CollectCandidates(SpecFor(queries[i], 0.05, mc), &single[i]);
  }

  // Victim 3 self-cancels after a handful of observed ops; victim 5 runs out
  // of candidate budget. Both stop mid-flight.
  QueryContext cancel_ctx;
  cancel_ctx.CancelAfterOps(4);
  QueryContext budget_ctx;
  ResourceBudget budget;
  budget.max_candidates = 1;
  budget_ctx.set_budget(budget);

  std::vector<std::vector<uint32_t>> got(kQueries);
  std::vector<TrieIndex::BatchQuery> bq(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    bq[i].spec = SpecFor(queries[i], 0.05, mc);
    if (i == 3) bq[i].spec.ctx = &cancel_ctx;
    if (i == 5) bq[i].spec.ctx = &budget_ctx;
    bq[i].out = &got[i];
  }
  index.CollectCandidatesBatch(bq.data(), bq.size());

  EXPECT_TRUE(cancel_ctx.stopped());
  EXPECT_TRUE(budget_ctx.stopped());
  for (size_t i = 0; i < kQueries; ++i) {
    if (i == 3 || i == 5) continue;  // stopped members' output is discarded
    EXPECT_EQ(got[i], single[i]) << "query " << i;
  }
}

/// Explicit scratch: results match the thread-local default, the arena is
/// measurable and reusable, and Release() frees it.
TEST(BatchFilterTest, ExplicitScratchMatchesThreadLocalAndReleases) {
  Dataset ds = FilterDataset(300, 77);
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), SmallOpts()).ok());
  const ModeCase mc{"accumulate", PruneMode::kAccumulate, 0.0, -1, false};
  const Trajectory q = ds[17];

  std::vector<uint32_t> with_default;
  index.CollectCandidates(SpecFor(q, 0.05, mc), &with_default);

  TrieIndex::Scratch scratch;
  EXPECT_EQ(scratch.ByteSize(), 0u);
  std::vector<uint32_t> with_explicit;
  index.CollectCandidates(SpecFor(q, 0.05, mc), &with_explicit, nullptr,
                          &scratch);
  EXPECT_EQ(with_explicit, with_default);
  EXPECT_GT(scratch.ByteSize(), 0u);

  // The same scratch serves the batch entry point, and reuse is idempotent.
  std::vector<std::vector<uint32_t>> got(3);
  std::vector<TrieIndex::BatchQuery> bq(3);
  for (size_t i = 0; i < 3; ++i) {
    bq[i].spec = SpecFor(q, 0.05, mc);
    bq[i].out = &got[i];
  }
  index.CollectCandidatesBatch(bq.data(), bq.size(), &scratch);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(got[i], with_default);

  scratch.Release();
  EXPECT_EQ(scratch.ByteSize(), 0u);
  std::vector<uint32_t> after_release;
  index.CollectCandidates(SpecFor(q, 0.05, mc), &after_release, nullptr,
                          &scratch);
  EXPECT_EQ(after_release, with_default);
}

/// Small builds must not fan out to the pool (the dispatch costs more than
/// the loop it splits); large builds must — and both produce the serial
/// trie, structure and all.
TEST(BatchFilterTest, ParallelBuildThresholdPinsSmallBuildsSerial) {
  ThreadPool pool(2);

  Dataset small = FilterDataset(512, 81);
  TrieIndex serial_small;
  ASSERT_TRUE(serial_small.Build(small.trajectories(), SmallOpts()).ok());
  TrieIndex pooled_small;
  double offloaded = 0.0;
  ASSERT_TRUE(
      pooled_small.Build(small.trajectories(), SmallOpts(), &pool, &offloaded)
          .ok());
  EXPECT_EQ(offloaded, 0.0) << "small build must stay on the calling thread";
  EXPECT_EQ(pooled_small.StructureDigest(), serial_small.StructureDigest());

  Dataset big = FilterDataset(TrieIndex::kMinBuildItemsPerThread * 2, 83);
  TrieIndex serial_big;
  ASSERT_TRUE(serial_big.Build(big.trajectories(), SmallOpts()).ok());
  TrieIndex pooled_big;
  offloaded = 0.0;
  ASSERT_TRUE(
      pooled_big.Build(big.trajectories(), SmallOpts(), &pool, &offloaded)
          .ok());
  EXPECT_GT(offloaded, 0.0) << "large build should use the pool";
  EXPECT_EQ(pooled_big.StructureDigest(), serial_big.StructureDigest());
}

}  // namespace
}  // namespace dita
