// Micro-benchmarks for the filter side of DITA: trie candidate collection,
// global R-tree probes, and index construction throughput — the §5 filtering
// costs that PR 2's verification work exposed as the new bottleneck.
//
// Before the google-benchmark suite runs, the binary times these primitives
// on a fixed generated workload and writes a machine-readable
// BENCH_micro_filter.json (trie CollectCandidates ns/query per prune mode and
// threshold, R-tree probe ns/query, trie/partition build wall time and
// trajectories/sec) so filter performance is tracked across PRs next to
// BENCH_micro_distance.json. Pass --skip_json to go straight to
// google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "core/partitioner.h"
#include "index/cell.h"
#include "index/rtree.h"
#include "index/signature.h"
#include "index/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset FilterDataset(size_t n, uint64_t seed = 71) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = 40;
  cfg.min_len = 8;
  cfg.max_len = 160;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

TrieIndex::Options FilterTrieOptions() {
  TrieIndex::Options opts;
  opts.num_pivots = 4;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  return opts;
}

/// Measurement window per timed primitive; --quick shrinks it so the JSON
/// write finishes in well under a second (numbers get noisy, schema stays
/// complete — ci.sh bench-smoke gates on shape, not precision).
double g_measure_seconds = 0.1;

/// Times `fn` until ~g_measure_seconds of wall clock has elapsed; returns ns
/// per call.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  fn();  // warm-up (faults in memory, sizes thread-local scratch)
  size_t done = 0;
  WallTimer timer;
  do {
    fn();
    ++done;
  } while (timer.Seconds() < g_measure_seconds);
  return timer.Seconds() * 1e9 / static_cast<double>(done);
}

/// Windows per gated throughput figure. One window on a shared host can
/// land on a scheduler stall and read several times slow; the median of
/// five windows cannot unless three of them do.
constexpr int kMedianWindows = 5;

/// Median over kMedianWindows calls of `measure`, each timing one window.
template <typename Measure>
double MedianOfWindows(Measure&& measure) {
  double v[kMedianWindows];
  for (double& x : v) x = measure();
  std::nth_element(v, v + kMedianWindows / 2, v + kMedianWindows);
  return v[kMedianWindows / 2];
}

// ---------------------------------------------------------------------------
// google-benchmark registrations.
// ---------------------------------------------------------------------------

void BM_TrieCollect(benchmark::State& state, PruneMode mode) {
  Dataset ds = FilterDataset(2048);
  TrieIndex trie;
  if (!trie.Build(ds.trajectories(), FilterTrieOptions()).ok()) {
    state.SkipWithError("trie build failed");
    return;
  }
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    TrieIndex::SearchSpec spec;
    const Trajectory& q = ds[i % ds.size()];
    spec.query = &q;
    spec.tau = mode == PruneMode::kEditCount ? 4.0 : 0.01;
    spec.mode = mode;
    spec.epsilon = 0.005;
    out.clear();
    trie.CollectCandidates(spec, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_TrieCollect, Accumulate, PruneMode::kAccumulate);
BENCHMARK_CAPTURE(BM_TrieCollect, Max, PruneMode::kMax);
BENCHMARK_CAPTURE(BM_TrieCollect, EditCount, PruneMode::kEditCount);

void BM_RTreeProbe(benchmark::State& state) {
  Rng rng(17);
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < 4096; ++i) {
    const Point lo{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    const Point hi{lo.x + rng.Uniform(0.0, 0.02), lo.y + rng.Uniform(0.0, 0.02)};
    entries.push_back(RTree::Entry{MBR(lo, hi), i});
  }
  RTree tree;
  tree.Build(std::move(entries), 16);
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    const Point p{0.001 * static_cast<double>(i % 1000), 0.5};
    out.clear();
    tree.SearchWithinDistance(p, 0.05, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_RTreeProbe);

void BM_TrieBuild(benchmark::State& state) {
  Dataset ds = FilterDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TrieIndex trie;
    benchmark::DoNotOptimize(
        trie.Build(ds.trajectories(), FilterTrieOptions()).ok());
  }
}
BENCHMARK(BM_TrieBuild)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// Machine-readable filter timings: BENCH_micro_filter.json.
// ---------------------------------------------------------------------------

void WriteFilterJson(const char* path) {
  std::string json = "{\n";
  json += "  \"meta\": " + bench::MetaJson() + ",\n";
  char buf[160];

  // --- Trie candidate collection, ns/query. ---
  // 4096 trajectories, the engine-default trie shape, 64 query trajectories
  // drawn from the dataset; taus span prune-heavy to scan-heavy regimes.
  Dataset ds = FilterDataset(4096);
  TrieIndex trie;
  if (!trie.Build(ds.trajectories(), FilterTrieOptions()).ok()) {
    std::fprintf(stderr, "trie build failed\n");
    return;
  }
  const size_t num_queries = 64;
  std::vector<const Trajectory*> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(&ds[(i * 61) % ds.size()]);
  }
  std::vector<uint32_t> out;
  auto collect_ns = [&](PruneMode mode, double tau, double epsilon) {
    return NsPerCall([&] {
             for (const Trajectory* q : queries) {
               TrieIndex::SearchSpec spec;
               spec.query = q;
               spec.tau = tau;
               spec.mode = mode;
               spec.epsilon = epsilon;
               out.clear();
               trie.CollectCandidates(spec, &out);
               benchmark::DoNotOptimize(out.size());
             }
           }) /
           static_cast<double>(num_queries);
  };

  json += "  \"trie_collect_ns_per_query\": {\n";
  const std::pair<const char*, double> acc_taus[] = {
      {"tau_tight", 0.003}, {"tau_mid", 0.01}, {"tau_wide", 0.05}};
  json += "    \"accumulate\": {";
  for (size_t i = 0; i < 3; ++i) {
    const double ns = collect_ns(PruneMode::kAccumulate, acc_taus[i].second, 0.0);
    std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", acc_taus[i].first, ns);
    json += buf;
    if (i + 1 < 3) json += ", ";
    std::printf("trie accumulate %-9s tau=%.3f %10.1f ns/query\n",
                acc_taus[i].first, acc_taus[i].second, ns);
  }
  json += "},\n";
  {
    const double ns = collect_ns(PruneMode::kMax, 0.01, 0.0);
    std::snprintf(buf, sizeof(buf), "    \"max\": {\"tau_mid\": %.1f},\n", ns);
    json += buf;
    std::printf("trie max       tau_mid   tau=0.010 %10.1f ns/query\n", ns);
  }
  {
    const double ns = collect_ns(PruneMode::kEditCount, 4.0, 0.005);
    std::snprintf(buf, sizeof(buf), "    \"edit\": {\"budget4\": %.1f}\n", ns);
    json += buf;
    std::printf("trie edit      budget=4            %10.1f ns/query\n", ns);
  }
  json += "  },\n";

  // --- Trie candidate-collection throughput, queries/sec (headline). The
  // gated throughputs (this one, the batch sweep and their ratio) are
  // medians over kMedianWindows windows. ---
  {
    const double ns = MedianOfWindows(
        [&] { return collect_ns(PruneMode::kAccumulate, 0.01, 0.0); });
    const double single_qps = 1e9 / ns;
    std::snprintf(buf, sizeof(buf),
                  "  \"trie_collect_queries_per_sec\": %.0f,\n", single_qps);
    json += buf;
    std::printf("trie throughput (accumulate, tau=0.01) %12.0f queries/sec\n",
                single_qps);
  }

  // --- Batched candidate collection (DESIGN.md §5f): the same 64 queries
  // pushed through CollectCandidatesBatch in groups. batch_N is N single
  // traversals back to back, so speedup_batch_32 is about 1 by
  // construction; the sweep guards the batch entry point (per-call setup,
  // scratch reuse) against overhead. Candidate sets match the reference
  // traversal (batch_filter_test).
  {
    std::vector<std::vector<uint32_t>> outs(num_queries);
    auto batch_qps = [&](size_t batch) {
      const double ns_per_round = NsPerCall([&] {
        for (size_t lo = 0; lo < num_queries; lo += batch) {
          const size_t hi = std::min(lo + batch, num_queries);
          std::vector<TrieIndex::BatchQuery> bq(hi - lo);
          for (size_t i = lo; i < hi; ++i) {
            bq[i - lo].spec.query = queries[i];
            bq[i - lo].spec.tau = 0.01;
            bq[i - lo].spec.mode = PruneMode::kAccumulate;
            outs[i].clear();
            bq[i - lo].out = &outs[i];
          }
          trie.CollectCandidatesBatch(bq.data(), bq.size());
        }
        benchmark::DoNotOptimize(outs[0].size());
      });
      return 1e9 / (ns_per_round / static_cast<double>(num_queries));
    };
    json += "  \"trie_collect_batch_queries_per_sec\": {";
    const size_t sizes[] = {1, 2, 8, 32, 64};
    for (size_t i = 0; i < 5; ++i) {
      const double qps = MedianOfWindows([&] { return batch_qps(sizes[i]); });
      std::snprintf(buf, sizeof(buf), "\"batch_%zu\": %.0f%s", sizes[i], qps,
                    i + 1 < 5 ? ", " : "");
      json += buf;
      std::printf("trie batch=%-3zu (accumulate, tau=0.01) %12.0f queries/sec\n",
                  sizes[i], qps);
    }
    json += "},\n";
    // Each ratio pairs a batch_32 window with a single-query window run
    // just before it, so a host slowdown spanning both cancels out.
    const double speedup = MedianOfWindows([&] {
      const double single_ns = collect_ns(PruneMode::kAccumulate, 0.01, 0.0);
      return batch_qps(32) * single_ns * 1e-9;
    });
    std::snprintf(buf, sizeof(buf), "  \"speedup_batch_32\": %.2f,\n",
                  speedup);
    json += buf;
    std::printf("batch=32 speedup over single-query path %11.2fx\n",
                speedup);
  }

  // --- Global R-tree probe, ns/query. ---
  {
    Rng rng(17);
    std::vector<RTree::Entry> entries;
    for (uint32_t i = 0; i < 4096; ++i) {
      const Point lo{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      const Point hi{lo.x + rng.Uniform(0.0, 0.02),
                     lo.y + rng.Uniform(0.0, 0.02)};
      entries.push_back(RTree::Entry{MBR(lo, hi), i});
    }
    RTree tree;
    tree.Build(std::move(entries), 16);
    std::vector<uint32_t> hits;
    size_t qi = 0;
    const double within_ns = NsPerCall([&] {
      const Point p{0.001 * static_cast<double>(qi % 1000), 0.5};
      hits.clear();
      tree.SearchWithinDistance(p, 0.05, &hits);
      benchmark::DoNotOptimize(hits.size());
      ++qi;
    });
    const MBR range(Point{0.4, 0.4}, Point{0.6, 0.6});
    const double isect_ns = NsPerCall([&] {
      hits.clear();
      tree.SearchIntersecting(range, &hits);
      benchmark::DoNotOptimize(hits.size());
    });
    std::snprintf(buf, sizeof(buf),
                  "  \"rtree_probe_ns_per_query\": {\"within\": %.1f, "
                  "\"intersect\": %.1f},\n",
                  within_ns, isect_ns);
    json += buf;
    std::printf("rtree within   %10.1f ns/query\nrtree intersect%10.1f ns/query\n",
                within_ns, isect_ns);
  }

  // --- Index build wall time. ---
  json += "  \"index_build\": {\n";
  {
    // Trie build over 4096 trajectories (the per-partition build unit),
    // best of 3 to shed timer noise.
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      TrieIndex t;
      WallTimer timer;
      if (!t.Build(ds.trajectories(), FilterTrieOptions()).ok()) return;
      best_ms = std::min(best_ms, timer.Millis());
    }
    std::snprintf(buf, sizeof(buf), "    \"trie_build_ms_4096\": %.2f,\n",
                  best_ms);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"trie_build_traj_per_sec\": %.0f,\n",
                  4096.0 / (best_ms / 1e3));
    json += buf;
    std::printf("trie build     4096 traj %10.2f ms  (%.0f traj/sec)\n",
                best_ms, 4096.0 / (best_ms / 1e3));
  }
  {
    // Same build fanned over a pool (DitaConfig::build_threads): the digest
    // check proves the parallel path builds the identical structure while
    // it is being timed.
    const size_t threads =
        std::max<size_t>(2, std::thread::hardware_concurrency());
    ThreadPool pool(threads);
    TrieIndex serial;
    if (!serial.Build(ds.trajectories(), FilterTrieOptions()).ok()) return;
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      TrieIndex t;
      WallTimer timer;
      if (!t.Build(ds.trajectories(), FilterTrieOptions(), &pool).ok()) return;
      best_ms = std::min(best_ms, timer.Millis());
      if (t.StructureDigest() != serial.StructureDigest()) {
        std::fprintf(stderr, "parallel build diverged from serial\n");
        return;
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "    \"trie_build_parallel_ms_4096\": %.2f,\n", best_ms);
    json += buf;
    std::printf("trie build     4096 traj %10.2f ms  (pool of %zu)\n", best_ms,
                threads);
  }
  {
    // Two-level STR partitioning of 16384 trajectories (the driver-side
    // bulk sort the engine runs before any trie exists).
    Dataset big = FilterDataset(16384, 72);
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      auto parts = PartitionByFirstLast(big.trajectories(), 8);
      if (!parts.ok()) return;
      benchmark::DoNotOptimize(parts->size());
      best_ms = std::min(best_ms, timer.Millis());
    }
    std::snprintf(buf, sizeof(buf), "    \"partition_ms_16384\": %.2f\n",
                  best_ms);
    json += buf;
    std::printf("partition      16384 traj %9.2f ms\n", best_ms);
  }
  json += "  },\n";

  // --- Cell lower bound early abandonment (Lemma 5.6). ---
  // ns/pair for the DTW and Frechet cell bounds with abandon_above = tau
  // versus an unbounded scan over the same random summary pairs. The
  // abandoning scan returns a partial sum that is still a valid lower
  // bound, so verification's accept/reject decision is unchanged — the
  // speedup is pure.
  {
    std::vector<CellSummary> sums;
    for (size_t i = 0; i < 256; ++i) {
      sums.push_back(CompressToCells(ds[i], 0.01));
    }
    double sink = 0.0;
    auto pair_ns = [&](bool frechet, double abandon) {
      size_t idx = 0;
      return NsPerCall([&] {
        const CellSummary& a = sums[idx % sums.size()];
        const CellSummary& b = sums[(idx * 7 + 13) % sums.size()];
        sink += frechet ? CellLowerBoundFrechet(a, b, abandon)
                        : CellLowerBoundDtw(a, b, abandon);
        ++idx;
      });
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double tau = 0.05;  // the trie sweep's tau_wide: abandon-friendly
    const double dtw_full = pair_ns(false, inf);
    const double dtw_ab = pair_ns(false, tau);
    const double fr_full = pair_ns(true, inf);
    const double fr_ab = pair_ns(true, tau);
    benchmark::DoNotOptimize(sink);
    json += "  \"cell_bound\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"dtw_ns_per_pair\": {\"no_abandon\": %.1f, "
                  "\"abandon_tau\": %.1f},\n",
                  dtw_full, dtw_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"frechet_ns_per_pair\": {\"no_abandon\": %.1f, "
                  "\"abandon_tau\": %.1f},\n",
                  fr_full, fr_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"dtw_abandon_speedup\": %.2f,\n",
                  dtw_full / dtw_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"frechet_abandon_speedup\": %.2f\n",
                  fr_full / fr_ab);
    json += buf;
    json += "  },\n";
    std::printf("cell bound dtw     %8.1f -> %8.1f ns/pair (%.2fx)\n",
                dtw_full, dtw_ab, dtw_full / dtw_ab);
    std::printf("cell bound frechet %8.1f -> %8.1f ns/pair (%.2fx)\n",
                fr_full, fr_ab, fr_full / fr_ab);
  }

  // --- Sketch prefilter A/B (DESIGN.md §5g). ---
  // Two engines over the same 4096 trajectories, identical except for
  // VerifyOptions::enable_sketch; the same 64 dataset queries run through
  // both. `wrong_answers` counts any result-set divergence and must be 0
  // (the signature test is provably exact); the prune fractions read the
  // sketch-on funnel's "sketch partitions" and "sketch signature" levels.
  {
    auto make_engine = [&](bool sketch) {
      ClusterConfig ccfg;
      ccfg.num_workers = 4;
      DitaConfig config;
      config.verify.enable_sketch = sketch;
      auto eng = std::make_unique<DitaEngine>(
          std::make_shared<Cluster>(ccfg), config);
      if (!eng->BuildIndex(ds).ok()) eng.reset();
      return eng;
    };
    auto off = make_engine(false);
    auto on = make_engine(true);
    if (off == nullptr || on == nullptr) {
      std::fprintf(stderr, "engine build failed\n");
      return;
    }
    auto funnel_level = [](const QueryStats& s, const char* label) {
      for (const auto& l : s.funnel.levels) {
        if (l.label == label) return static_cast<double>(l.survivors);
      }
      return -1.0;
    };
    const std::pair<const char*, double> sketch_taus[] = {
        {"tau_tight", 0.003}, {"tau_mid", 0.01}, {"tau_wide", 0.05}};
    size_t wrong = 0;
    double part_frac[3] = {0, 0, 0};
    double cand_frac[3] = {0, 0, 0};
    for (size_t ti = 0; ti < 3; ++ti) {
      double before_part = 0, after_part = 0, before_cand = 0, after_cand = 0;
      for (const Trajectory* q : queries) {
        QueryStats stats;
        auto want = off->Search(*q, sketch_taus[ti].second);
        auto got = on->Search(*q, sketch_taus[ti].second, &stats);
        if (!want.ok() || !got.ok() || *want != *got) ++wrong;
        before_part += std::max(0.0, funnel_level(stats, "global index"));
        after_part += std::max(0.0, funnel_level(stats, "sketch partitions"));
        before_cand += std::max(0.0, funnel_level(stats, "candidates"));
        after_cand += std::max(0.0, funnel_level(stats, "sketch signature"));
      }
      part_frac[ti] =
          before_part > 0 ? 1.0 - after_part / before_part : 0.0;
      cand_frac[ti] =
          before_cand > 0 ? 1.0 - after_cand / before_cand : 0.0;
    }
    // QPS at tau_wide: the regime where the candidate list is large and
    // verification dominates, so the level-0 prune has real work to save.
    // Best of 3 alternating windows per engine to shed scheduler noise —
    // single windows on a loaded machine swing ±10%, which would drown the
    // effect being measured.
    auto engine_qps = [&](const DitaEngine& eng) {
      const double ns = NsPerCall([&] {
        for (const Trajectory* q : queries) {
          auto r = eng.Search(*q, 0.05);
          benchmark::DoNotOptimize(r.ok());
        }
      });
      return 1e9 / (ns / static_cast<double>(num_queries));
    };
    double off_qps = 0.0, on_qps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      off_qps = std::max(off_qps, engine_qps(*off));
      on_qps = std::max(on_qps, engine_qps(*on));
    }
    json += "  \"sketch\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"search_qps\": {\"off\": %.0f, \"on\": %.0f},\n",
                  off_qps, on_qps);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"speedup\": %.2f,\n",
                  on_qps / off_qps);
    json += buf;
    json += "    \"prune_fraction_partitions\": {";
    for (size_t ti = 0; ti < 3; ++ti) {
      std::snprintf(buf, sizeof(buf), "\"%s\": %.3f%s", sketch_taus[ti].first,
                    part_frac[ti], ti + 1 < 3 ? ", " : "");
      json += buf;
    }
    json += "},\n";
    json += "    \"prune_fraction_candidates\": {";
    for (size_t ti = 0; ti < 3; ++ti) {
      std::snprintf(buf, sizeof(buf), "\"%s\": %.3f%s", sketch_taus[ti].first,
                    cand_frac[ti], ti + 1 < 3 ? ", " : "");
      json += buf;
    }
    json += "},\n";
    std::snprintf(buf, sizeof(buf), "    \"wrong_answers\": %zu\n", wrong);
    json += buf;
    json += "  }\n";
    std::printf("sketch search  off %.0f qps, on %.0f qps (%.2fx)\n", off_qps,
                on_qps, on_qps / off_qps);
    std::printf(
        "sketch prune   partitions %.1f%%/%.1f%%/%.1f%%  candidates "
        "%.1f%%/%.1f%%/%.1f%%  wrong=%zu\n",
        100 * part_frac[0], 100 * part_frac[1], 100 * part_frac[2],
        100 * cand_frac[0], 100 * cand_frac[1], 100 * cand_frac[2], wrong);
  }
  json += "}\n";

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace dita

int main(int argc, char** argv) {
  bool skip_json = false;
  bool quick = false;
  const char* out = "BENCH_micro_filter.json";
  // Strip this binary's flags before handing argv to google-benchmark.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip_json") == 0) {
      skip_json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (quick) dita::g_measure_seconds = 0.01;
  if (!skip_json) dita::WriteFilterJson(out);
  if (quick) return 0;  // smoke mode: JSON only, skip google-benchmark
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
