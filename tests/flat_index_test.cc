// Equivalence and determinism tests for the flat (CSR/SoA) index layouts
// (DESIGN.md §5c): the iterative flat traversals must emit bit-identical
// candidate sets — content AND order — to the recursive reference
// formulations, across every prune mode, metric quirk (ERP gap, LCSS delta
// window), fanout, and leaf capacity; and parallel builds must produce
// byte-identical structures to serial ones.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "index/rtree.h"
#include "index/str_tile.h"
#include "index/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace dita {
namespace {

std::vector<Trajectory> TestTrajectories(size_t n, uint64_t seed) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = 30.0;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg).trajectories();
}

TrieIndex::Options TrieOptions(size_t align_fanout, size_t pivot_fanout,
                               size_t leaf_capacity) {
  TrieIndex::Options opts;
  opts.num_pivots = 3;
  opts.align_fanout = align_fanout;
  opts.pivot_fanout = pivot_fanout;
  opts.leaf_capacity = leaf_capacity;
  return opts;
}

/// Exercises one (index, spec) pair: the flat traversal must match the
/// recursive reference exactly, including emission order, and its probe
/// counters must account for the whole population (every trajectory is
/// either under a pruned subtree or emitted).
void ExpectTraversalsAgree(const TrieIndex& index,
                           const TrieIndex::SearchSpec& spec) {
  std::vector<uint32_t> flat, reference;
  TrieIndex::ProbeStats stats;
  stats.Reset(index.num_levels());
  index.CollectCandidates(spec, &flat, &stats);
  index.CollectCandidatesReference(spec, &reference);
  EXPECT_EQ(flat, reference);
  uint64_t total = flat.size();
  for (const uint64_t pruned : stats.pruned_members) total += pruned;
  EXPECT_EQ(total, index.size());
}

TEST(FlatTrieTest, MatchesReferenceAcrossModesAndShapes) {
  const std::vector<Trajectory> data = TestTrajectories(400, 91);
  const std::vector<Trajectory> queries = TestTrajectories(12, 17);
  const Point gap{116.4, 39.9};

  const struct {
    size_t align, pivot, leaf;
  } shapes[] = {{2, 2, 1}, {8, 4, 4}, {32, 16, 16}};

  for (const auto& shape : shapes) {
    TrieIndex index;
    ASSERT_TRUE(
        index.Build(data, TrieOptions(shape.align, shape.pivot, shape.leaf))
            .ok());
    size_t nonempty = 0;
    for (const Trajectory& q : queries) {
      for (double tau : {0.0, 0.02, 0.1, 0.5}) {
        TrieIndex::SearchSpec spec;
        spec.query = &q;
        spec.tau = tau;

        spec.mode = PruneMode::kAccumulate;
        ExpectTraversalsAgree(index, spec);

        spec.erp_gap = &gap;  // ERP: gap matching, no endpoint alignment
        ExpectTraversalsAgree(index, spec);
        spec.erp_gap = nullptr;

        spec.mode = PruneMode::kMax;
        ExpectTraversalsAgree(index, spec);

        spec.mode = PruneMode::kEditCount;
        spec.epsilon = 0.05;
        spec.tau = tau * 40.0;  // edit budgets, not distances
        ExpectTraversalsAgree(index, spec);

        spec.lcss_delta = 5;  // adds the |i - j| <= delta window
        ExpectTraversalsAgree(index, spec);
        spec.lcss_delta = -1;

        std::vector<uint32_t> out;
        index.CollectCandidates(spec, &out);
        nonempty += !out.empty();
      }
    }
    // Guard against the vacuous pass where every traversal prunes at the
    // root and both sides trivially emit nothing.
    EXPECT_GT(nonempty, 0u);
  }
}

TEST(FlatTrieTest, EmptyAndSingletonPartitions) {
  TrieIndex empty;
  ASSERT_TRUE(empty.Build({}, TrieOptions(8, 4, 4)).ok());
  EXPECT_EQ(empty.size(), 0u);

  TrieIndex single;
  ASSERT_TRUE(
      single.Build({Trajectory(7, {{0, 0}, {1, 1}, {2, 0}})}, TrieOptions(8, 4, 4))
          .ok());
  ASSERT_EQ(single.size(), 1u);

  const Trajectory q(99, {{0, 0}, {1, 1}, {2, 0}});
  for (PruneMode mode :
       {PruneMode::kAccumulate, PruneMode::kMax, PruneMode::kEditCount}) {
    TrieIndex::SearchSpec spec;
    spec.query = &q;
    spec.tau = mode == PruneMode::kEditCount ? 1.0 : 0.5;
    spec.mode = mode;
    spec.epsilon = 0.1;
    ExpectTraversalsAgree(empty, spec);
    ExpectTraversalsAgree(single, spec);

    std::vector<uint32_t> out;
    empty.CollectCandidates(spec, &out);
    EXPECT_TRUE(out.empty());
    out.clear();
    single.CollectCandidates(spec, &out);
    EXPECT_EQ(out, std::vector<uint32_t>{0});  // exact self-match survives
  }
}

TEST(FlatTrieTest, ParallelBuildIsBitIdenticalToSerial) {
  const std::vector<Trajectory> data = TestTrajectories(600, 23);
  const TrieIndex::Options opts = TrieOptions(8, 4, 4);

  TrieIndex serial;
  ASSERT_TRUE(serial.Build(data, opts).ok());

  ThreadPool pool(4);
  for (int run = 0; run < 3; ++run) {
    TrieIndex parallel;
    double offloaded = 0.0;
    ASSERT_TRUE(parallel.Build(data, opts, &pool, &offloaded).ok());
    EXPECT_EQ(parallel.StructureDigest(), serial.StructureDigest());
    EXPECT_EQ(parallel.ByteSize(), serial.ByteSize());
    EXPECT_GE(offloaded, 0.0);
  }
}

TEST(FlatTrieTest, ByteSizeCountsFlatArraysAndSequences) {
  const std::vector<Trajectory> data = TestTrajectories(200, 5);
  TrieIndex small, large;
  ASSERT_TRUE(small.Build({data.begin(), data.begin() + 20}, TrieOptions(8, 4, 4))
                  .ok());
  ASSERT_TRUE(large.Build(data, TrieOptions(8, 4, 4)).ok());
  EXPECT_GT(small.ByteSize(), 0u);
  EXPECT_GT(large.ByteSize(), small.ByteSize());
  // The node arrays alone put a floor under the footprint: 4 MBR planes of
  // doubles plus 6 uint32 spans per node.
  EXPECT_GE(large.ByteSize(),
            large.NodeCount() * (4 * sizeof(double) + 6 * sizeof(uint32_t)));
}

std::vector<RTree::Entry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point lo{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const Point hi{lo.x + rng.Uniform(0.0, 0.5), lo.y + rng.Uniform(0.0, 0.5)};
    MBR mbr;
    mbr.Expand(lo);
    mbr.Expand(hi);
    entries.push_back(RTree::Entry{mbr, static_cast<uint32_t>(i)});
  }
  return entries;
}

TEST(FlatRTreeTest, MatchesReferenceAcrossFanouts) {
  Rng rng(7);
  for (size_t n : {0ul, 1ul, 5ul, 64ul, 500ul}) {
    const std::vector<RTree::Entry> entries = RandomEntries(n, 31 + n);
    for (size_t fanout : {2ul, 4ul, 16ul}) {
      RTree tree;
      tree.Build(entries, fanout);
      EXPECT_EQ(tree.size(), n);
      for (int probe = 0; probe < 20; ++probe) {
        const Point p{rng.Uniform(-1.0, 11.0), rng.Uniform(-1.0, 11.0)};
        const double tau = rng.Uniform(0.0, 3.0);
        std::vector<uint32_t> flat, reference;
        tree.SearchWithinDistance(p, tau, &flat);
        tree.SearchWithinDistanceReference(p, tau, &reference);
        EXPECT_EQ(flat, reference);

        MBR range;
        range.Expand(p);
        range.Expand(Point{p.x + rng.Uniform(0.0, 4.0),
                           p.y + rng.Uniform(0.0, 4.0)});
        flat.clear();
        reference.clear();
        tree.SearchIntersecting(range, &flat);
        tree.SearchIntersectingReference(range, &reference);
        EXPECT_EQ(flat, reference);
      }
    }
  }
}

TEST(FlatRTreeTest, RebuildsAreBitIdentical) {
  const std::vector<RTree::Entry> entries = RandomEntries(300, 3);
  RTree a, b;
  a.Build(entries, 8);
  b.Build(entries, 8);
  EXPECT_EQ(a.StructureDigest(), b.StructureDigest());
  EXPECT_GT(a.ByteSize(), 0u);

  // Duplicate-coordinate entries exercise the index tie-breaker: entries
  // with identical MBRs must still pack in a reproducible order.
  std::vector<RTree::Entry> dupes = entries;
  for (auto& e : dupes) e.mbr = entries[0].mbr;
  RTree c, d;
  c.Build(dupes, 8);
  d.Build(dupes, 8);
  EXPECT_EQ(c.StructureDigest(), d.StructureDigest());
  std::vector<uint32_t> hits;
  c.SearchIntersecting(entries[0].mbr, &hits);
  EXPECT_EQ(hits.size(), dupes.size());
}

TEST(FlatStrTileTest, ParallelTilingMatchesSerialWithTies) {
  // Many items share coordinates, so without the index tie-breaker the sort
  // order (and thus the grouping) would be unspecified.
  std::vector<Point> keys;
  Rng rng(11);
  const size_t n = 1 << 15;  // above the parallel-sort threshold
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Point{static_cast<double>(rng.UniformInt(0, 15)),
                         static_cast<double>(rng.UniformInt(0, 15))});
  }
  std::vector<uint32_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = static_cast<uint32_t>(i);
  auto key_of = [&](uint32_t i) { return keys[i]; };

  const auto serial = StrTile(items, key_of, 8);
  ThreadPool pool(4);
  for (int run = 0; run < 3; ++run) {
    double offloaded = 0.0;
    const auto parallel = StrTile(items, key_of, 8, &pool, &offloaded);
    EXPECT_EQ(parallel, serial);
  }
}

}  // namespace
}  // namespace dita
