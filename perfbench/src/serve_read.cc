// serve_read: a static Beijing-like table served by DitaService. Queries are
// held-out trips of the table's routes, drawn from a pool far larger than any
// answer cache; 90% are threshold searches (tau uniform over the paper's
// 0.001-0.005), 10% kNN (k = 10). An open-loop Poisson phase at a fixed rate
// measures latency from each request's due time; a closed-loop phase with 4
// clients measures capacity. Nothing is written or joined, so the global
// index, trie, verifier and distance kernels do nearly all the work.
#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "baselines/naive.h"
#include "harness.h"
#include "replay.h"
#include "serving/service.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using dita::QueryKind;
using dita::QueryRequest;
using dita::QueryResult;
using dita::Trajectory;
using dita::TrajectoryId;

constexpr size_t kTableTrips = 24000;
constexpr size_t kPool = 12288;
constexpr size_t kKnnEvery = 10;  // 10% kNN
constexpr size_t kK = 10;
constexpr size_t kThreads = 4;
constexpr size_t kBlock = 1024;  // requests per throughput block
constexpr size_t kSlices = 4;    // time slices per latency percentile
// About half the closed-loop capacity of this workload on a 4-core host at
// the commit that introduced the benchmark. Fixed, so a faster program shows
// as lower latency at the same load.
constexpr double kOpenRate = 750.0;
constexpr double kOpenShare = 0.3;  // of --seconds, traced run only
constexpr int kSetupReps = 15;
constexpr size_t kNaiveSearches = 6;
constexpr size_t kNaiveKnn = 3;
constexpr size_t kReplayQueries = 256;
constexpr size_t kDistanceQueries = 64;  // replayed queries timed on DP
constexpr size_t kOverheadPairs = 256;
constexpr size_t kKnnEngineRuns = 48;
constexpr size_t kOverheadBlocks = 16;
constexpr size_t kOverheadBlock = 200;

struct Entry {
  QueryRequest req;
  std::vector<TrajectoryId> ids;                            // kSearch oracle
  std::vector<std::pair<TrajectoryId, double>> neighbors;   // kKnn oracle
};

bool Matches(const Entry& e, const QueryResult& r) {
  return e.req.kind == QueryKind::kSearch ? r.ids == e.ids
                                          : r.neighbors == e.neighbors;
}

/// Per-thread accumulators of one measured phase.
struct ThreadStats {
  Latencies search, knn;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  PhaseSums phases;
  dita::VerifyStats verify;
  size_t searches = 0, partitions = 0, knns = 0, knn_candidates = 0;
  std::vector<std::pair<size_t, std::pair<double, double>>> spans;  // by seq

  void Record(const Entry& e, const dita::Result<QueryResult>& r, double ms,
              bool trace) {
    ++attempted;
    Latencies& lat = e.req.kind == QueryKind::kSearch ? search : knn;
    if (!r.ok()) {
      ++failed;
      lat.AddFailed();
      return;
    }
    if (!Matches(e, *r)) ++wrong;
    lat.Add(ms);
    if (!trace) return;
    if (e.req.kind == QueryKind::kSearch) {
      phases.Add(r->serving.lifecycle);
      verify.Merge(r->search_stats.verify);
      partitions += r->search_stats.partitions_probed;
      ++searches;
    } else {
      knn_candidates += r->search_stats.candidates;
      ++knns;
    }
  }

  void Merge(ThreadStats& o) {
    search.Merge(o.search);
    knn.Merge(o.knn);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    phases.Merge(o.phases);
    verify.Merge(o.verify);
    searches += o.searches;
    partitions += o.partitions;
    knns += o.knns;
    knn_candidates += o.knn_candidates;
  }
};

/// Runs `fn(i)` for i in [0, n) on kThreads threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

void RunServeRead(const Args& args, Result* out) {
  const dita::DitaConfig config{};
  const dita::ClusterConfig cluster_config{};
  PrintConfig(config, cluster_config);
  Tracer tracer(args.trace);
  Tracer* tr = &tracer;

  // Table and held-out queries: trips of one Beijing-like city split at
  // random, so the queries are trips of the table's routes.
  std::vector<Trajectory> trips = BeijingTrips(kTableTrips + kPool);
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  std::shuffle(trips.begin(), trips.end(), rng);
  std::vector<Trajectory> queries(trips.begin(), trips.begin() + kPool);
  trips.erase(trips.begin(), trips.begin() + kPool);
  const dita::Dataset table(std::move(trips));
  std::printf("serve_read: table=%zu trips (%zu points), pool=%zu\n",
              table.size(), table.TotalPoints(), kPool);

  // Exactly one entry in ten is a kNN request; the pool is served in a
  // seeded cyclic order, so every phase sees the same mix.
  std::vector<Entry> pool(kPool);
  std::uniform_real_distribution<double> tau_dist(0.001, 0.005);
  for (size_t i = 0; i < kPool; ++i) {
    QueryRequest& req = pool[i].req;
    req.query = queries[i];
    if (i % kKnnEvery == 0) {
      req.kind = QueryKind::kKnnSearch;
      req.k = kK;
    } else {
      req.kind = QueryKind::kSearch;
      req.tau = tau_dist(rng);
    }
  }
  std::shuffle(pool.begin(), pool.end(), rng);

  // Set-up: DitaService::Start, several times; the last service serves.
  std::unique_ptr<dita::DitaService> service;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, tr, "DitaService::Start",
      [&] {
        service.reset();
        service = std::make_unique<dita::DitaService>(
            std::make_shared<dita::Cluster>(cluster_config), config);
      },
      [&] { return service->Start(table); });

  // Oracle: a bare engine answers every pool entry before the timed window.
  dita::DitaEngine engine(std::make_shared<dita::Cluster>(cluster_config),
                          config);
  {
    Tracer::Scope s(tr, "DitaEngine::BuildIndex");
    const dita::Status st = engine.BuildIndex(table);
    if (!st.ok()) Die("BuildIndex: " + st.ToString());
  }
  std::atomic<bool> oracle_ok{true};
  ParallelFor(kPool, [&](size_t i) {
    auto r = engine.Execute(pool[i].req);
    if (!r.ok()) {
      oracle_ok = false;
      return;
    }
    pool[i].ids = std::move(r->ids);
    pool[i].neighbors = std::move(r->neighbors);
  });
  if (!oracle_ok) Die("oracle engine failed");

  // Cross-check a seeded sample of the oracle against the naive engine
  // (searches) and a brute-force scan (kNN).
  {
    dita::NaiveEngine naive(std::make_shared<dita::Cluster>(cluster_config),
                            config.distance, config.distance_params);
    if (!naive.BuildIndex(table).ok()) Die("naive BuildIndex failed");
    auto dist = dita::MakeDistance(config.distance, config.distance_params);
    size_t searches = 0, knns = 0;
    for (size_t i = 0; i < kPool && (searches < kNaiveSearches || knns < kNaiveKnn);
         ++i) {
      const Entry& e = pool[(i * 7919 + args.seed) % kPool];
      if (e.req.kind == QueryKind::kSearch && searches < kNaiveSearches) {
        ++searches;
        auto r = naive.Search(e.req.query, e.req.tau);
        if (!r.ok()) Die("naive search failed");
        std::vector<TrajectoryId> ids = *r;
        std::sort(ids.begin(), ids.end());
        if (ids != e.ids) ++out->wrong;
      } else if (e.req.kind == QueryKind::kKnnSearch && knns < kNaiveKnn) {
        ++knns;
        std::vector<double> d;
        for (const Trajectory& t : table.trajectories()) {
          d.push_back((*dist)->Compute(t, e.req.query));
        }
        std::sort(d.begin(), d.end());
        bool same = e.neighbors.size() == kK;
        for (size_t j = 0; same && j < kK; ++j) {
          same = e.neighbors[j].second == d[j];
        }
        if (!same) ++out->wrong;
      }
    }
    std::printf("serve_read: naive cross-check %zu searches, %zu kNN\n",
                searches, knns);
  }

  // Closed loop: kThreads clients back to back, taking the pool in its
  // cyclic order. Every figure of the untraced run comes from here.
  std::vector<ThreadStats> closed(kThreads);
  std::atomic<size_t> cursor{0};
  RunClosedLoop(kThreads, args.seconds, [&](size_t th) {
    const size_t seq = cursor.fetch_add(1);
    const Entry& e = pool[seq % kPool];
    const double t0 = Now();
    dita::Result<QueryResult> r = [&] {
      Tracer::Scope s(tr, "DitaService::Execute");
      return service->Execute(e.req);
    }();
    const double t1 = Now();
    closed[th].Record(e, r, (t1 - t0) * 1e3, args.trace);
    closed[th].spans.push_back({seq, {t0, t1}});
  });
  for (size_t t = 1; t < kThreads; ++t) closed[0].Merge(closed[t]);
  ThreadStats& c = closed[0];
  std::sort(c.spans.begin(), c.spans.end());
  RequestSpans spans;
  for (const auto& sp : c.spans) spans.push_back(sp.second);
  const double qps = BlockRate(spans, kBlock);
  out->attempted = c.attempted;
  out->failed = c.failed;
  out->wrong += c.wrong;
  std::printf(
      "serve_read: closed loop %llu requests (%zu search, %zu kNN), %.1f/s, "
      "setup reps %d\n",
      static_cast<unsigned long long>(c.attempted), c.search.size(),
      c.knn.size(), qps, kSetupReps);

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.ops_per_s = qps;
    e.main_p50_ms = c.search.P(0.50, kSlices);
    e.main_p99_ms = c.search.P(0.99, kSlices);
    e.side_p50_ms = c.knn.P(0.50, kSlices);
    e.side_p95_ms = c.knn.P(0.95, kSlices);
    EmitEndToEnd(e, out);
    return;
  }

  // Open loop (traced run only): Poisson arrivals at a fixed rate from
  // kThreads generators, each request timed from when it was due.
  auto arrivals = PoissonSchedule(kOpenRate, args.seconds * kOpenShare, 1, {},
                                  args.seed + 17);
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i].item = i % kPool;
  std::vector<ThreadStats> open(kThreads);
  std::vector<double> late =
      RunOpenLoop(arrivals, kThreads, [&](size_t th, size_t i, double due) {
        const Entry& e = pool[arrivals[i].item];
        auto r = service->Execute(e.req);
        open[th].Record(e, r, (Now() - due) * 1e3, false);
      });
  for (size_t t = 1; t < kThreads; ++t) open[0].Merge(open[t]);
  ThreadStats& o = open[0];
  out->attempted += o.attempted;
  out->failed += o.failed;
  out->wrong += o.wrong;

  std::map<std::string, double> m;
  c.phases.Emit(&m);
  VerifyMetrics(c.verify, c.searches, &m);
  m["core.partitions_per_query"] =
      c.searches == 0 ? 0.0 : double(c.partitions) / double(c.searches);
  m["core.knn_candidates_per_query"] =
      c.knns == 0 ? 0.0 : double(c.knn_candidates) / double(c.knns);
  const uint64_t lookups = service->cache_hits() + service->cache_misses();
  m["serving.cache_lookups"] = static_cast<double>(lookups);
  m["serving.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : double(service->cache_hits()) / double(lookups);
  m["harness.knn_p99_ms"] = c.knn.P(0.99, kSlices);
  m["harness.late_ms_p99"] = Percentile(late, 0.99);
  m["harness.open_search_p99_ms"] = o.search.P(0.99);
  m["harness.open_knn_p99_ms"] = o.knn.P(0.99);
  m["core.build_s"] = tracer.Summarize("DitaEngine::BuildIndex").total_s;

  // Serving overhead: the same search through DitaService::Execute and the
  // bare DitaEngine::Execute, back to back.
  std::vector<size_t> searches, knns;
  for (size_t i = 0; i < kPool; ++i) {
    (pool[i].req.kind == QueryKind::kSearch ? searches : knns).push_back(i);
  }
  double overhead_s = 0.0;
  for (size_t j = 0; j < kOverheadPairs; ++j) {
    const Entry& e = pool[searches[j % searches.size()]];
    const double t0 = Now();
    {
      Tracer::Scope s(tr, "DitaService::Execute");
      if (!service->Execute(e.req).ok()) Die("service search failed");
    }
    const double t1 = Now();
    {
      Tracer::Scope s(tr, "DitaEngine::Execute");
      if (!engine.Execute(e.req).ok()) Die("engine search failed");
    }
    overhead_s += (t1 - t0) - (Now() - t1);
  }
  m["serving.overhead_ms"] = overhead_s * 1e3 / kOverheadPairs;
  double knn_s = 0.0;
  for (size_t j = 0; j < kKnnEngineRuns && !knns.empty(); ++j) {
    const double t0 = Now();
    Tracer::Scope s(tr, "DitaEngine::Execute");
    if (!engine.Execute(pool[knns[j % knns.size()]].req).ok()) {
      Die("engine kNN failed");
    }
    knn_s += Now() - t0;
  }
  m["core.knn_ms"] = knn_s * 1e3 / kKnnEngineRuns;

  // Tracing overhead: the same searches through DitaService::Execute with
  // and without a span, in alternating blocks on one thread.
  double plain_s = 0.0, traced_s = 0.0;
  for (size_t block = 0; block < kOverheadBlocks; ++block) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (block % 2 == 0);
      const double t0 = Now();
      for (size_t j = 0; j < kOverheadBlock; ++j) {
        const Entry& e =
            pool[searches[(block * kOverheadBlock + j) % searches.size()]];
        Tracer::Scope s(traced ? tr : nullptr, "DitaService::Execute");
        if (!service->Execute(e.req).ok()) Die("service request failed");
      }
      (traced ? traced_s : plain_s) += Now() - t0;
    }
  }
  m["obs.trace_overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0;

  // Layer replay: partition -> global index -> trie -> verify must return
  // exactly the engine's ids.
  std::vector<ReplayQuery> replayed(kReplayQueries);
  for (size_t j = 0; j < kReplayQueries; ++j) {
    const Entry& e = pool[searches[j % searches.size()]];
    replayed[j] = {&e.req.query, e.req.tau, e.ids};
  }
  ReplayMetrics(config, table.trajectories(), replayed, kDistanceQueries,
                0.003, tr, &m);
  EmitPerLayer(m, out);
}

}  // namespace perfbench
