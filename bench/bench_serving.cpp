// The serving runtime under sustained load: a seeded open-loop arrival
// process (exponential inter-arrivals, mixed search/kNN traffic, a bulk
// self-join riding along at low priority) against a DitaService whose table
// is mutating the whole time — a writer streams far-region inserts/deletes
// fast enough to cross the merge threshold repeatedly, so background epoch
// merges rebuild the base indexes mid-measurement.
//
// Reported per run:
//  * sustained QPS and open-loop p50/p99 wall latency (measured from the
//    *scheduled* arrival instant, so queue wait and coordinated omission
//    are charged to the service, not hidden by a slow issuer);
//  * ingest volume, epoch merges completed, final epoch;
//  * wrong_answers — every point query's result is compared against a
//    batch-engine oracle precomputed on the untouched base region (writers
//    only touch a far-away region, so base answers are version-independent
//    no matter which snapshot a query pins), and a final self-join is
//    compared against a fresh batch engine on the settled live set. The
//    serving runtime's contract is exactness; this must print 0.
//
// Emits BENCH_serving.json next to the other BENCH_*.json files.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serving/service.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset Region(size_t n, uint64_t seed, double lo, double hi) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{lo, lo}, Point{hi, hi});
  cfg.step = 0.01;
  cfg.avg_len = 24;
  cfg.min_len = 6;
  cfg.max_len = 64;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

double PercentileMs(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Service-side p50/p95/p99/p999 upper bounds (ms) read off one of the
/// always-on log-bucketed latency histograms (DESIGN.md §5h): mergeable
/// across kinds/shards and within 6.25% of the true sample quantile.
struct HistQuantilesMs {
  uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

HistQuantilesMs QuantilesMs(const obs::Histogram::Snapshot& snap) {
  HistQuantilesMs q;
  q.count = snap.count;
  q.p50 = snap.QuantileUpperBound(0.50) * 1e3;
  q.p95 = snap.QuantileUpperBound(0.95) * 1e3;
  q.p99 = snap.QuantileUpperBound(0.99) * 1e3;
  q.p999 = snap.QuantileUpperBound(0.999) * 1e3;
  return q;
}

struct RunResult {
  size_t queries = 0;
  size_t wrong_answers = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t inserts = 0;
  size_t deletes = 0;
  uint64_t merges = 0;
  uint64_t final_epoch = 0;
  double join_seconds = 0.0;
  size_t join_pairs = 0;
  bool join_matches_oracle = false;
  uint64_t scheduler_bypasses = 0;
  uint64_t scheduler_shed = 0;
  // Always-on serving observability rollup, taken from the same service
  // the open-loop window ran against.
  HistQuantilesMs hist_search;
  HistQuantilesMs hist_knn;
  HistQuantilesMs hist_join;
  HistQuantilesMs hist_queue_wait;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t recorded = 0;
  std::string flight_json;  // DumpFlightRecorder() of the loaded service
};

/// Micro-batching A/B over the Submit path: the same saturating burst
/// workload of coalescible searches against two otherwise-identical
/// services, one with coalescing disabled (max_batch_size = 1) and one
/// batching up to 16 queued requests per executor drain. Every answer is
/// checked against per-probe ground truth captured via Execute, so the
/// reported gain is for bit-identical results.
struct BatchingResult {
  double off_qps = 0.0;
  double on_qps = 0.0;
  double gain = 0.0;
  uint64_t batches = 0;
  double avg_batch = 0.0;
  size_t wrong_answers = 0;
};

BatchingResult RunBatching(const bench::Args& args) {
  BatchingResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const Dataset base = Region(base_n, 47, 0.0, 1.0);
  const double tau = 0.003;
  const double window_s = args.quick ? 0.3 : 1.5;
  constexpr size_t kProbes = 16;
  constexpr size_t kBurst = 64;

  auto run_mode = [&](size_t max_batch, uint64_t* batches, double* avg_batch,
                      size_t* wrong) -> double {
    DitaConfig config = bench::DefaultConfig();
    config.serving.scheduler_threads = 2;
    config.serving.max_batch_size = max_batch;
    auto cluster = bench::MakeCluster(args.workers);
    DitaService service(cluster, config);
    DITA_CHECK(service.Start(base).ok());

    std::vector<const Trajectory*> probes;
    std::vector<std::vector<TrajectoryId>> expect(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      probes.push_back(&base[(i * 193) % base.size()]);
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *probes[i];
      req.tau = tau;
      auto r = service.Execute(req);
      DITA_CHECK(r.ok());
      expect[i] = r->ids;
    }

    // Closed-loop saturating bursts: enqueue kBurst compatible searches,
    // then drain. The backlog is what gives the coalescing executor
    // something to batch; the off-mode run pays the same enqueue pattern.
    size_t done = 0;
    std::mt19937_64 rng(1234);
    WallTimer timer;
    while (timer.Seconds() < window_s) {
      std::vector<std::future<Result<QueryResult>>> futs;
      futs.reserve(kBurst);
      std::vector<size_t> pis(kBurst);
      for (size_t i = 0; i < kBurst; ++i) {
        pis[i] = size_t(rng()) % kProbes;
        QueryRequest req;
        req.kind = QueryKind::kSearch;
        req.query = *probes[pis[i]];
        req.tau = tau;
        futs.push_back(service.Submit(std::move(req)));
      }
      for (size_t i = 0; i < kBurst; ++i) {
        auto r = futs[i].get();
        ++done;
        if (!r.ok() || r->ids != expect[pis[i]]) ++*wrong;
      }
    }
    const double qps = double(done) / timer.Seconds();
    *batches = service.coalesced_batches();
    *avg_batch = service.coalesced_batches() > 0
                     ? double(service.coalesced_queries()) /
                           double(service.coalesced_batches())
                     : 0.0;
    service.Stop();
    return qps;
  };

  uint64_t off_batches = 0;
  double off_avg = 0.0;
  out.off_qps = run_mode(1, &off_batches, &off_avg, &out.wrong_answers);
  out.on_qps = run_mode(16, &out.batches, &out.avg_batch, &out.wrong_answers);
  out.gain = out.off_qps > 0.0 ? out.on_qps / out.off_qps : 0.0;
  return out;
}

/// Answer-cache A/B (DESIGN.md §5g): the same skewed repeating read
/// workload — 80% of traffic on 4 hot probes, the rest on a 12-probe warm
/// set — against two otherwise-identical services, one with the answer
/// cache off (the default) and one holding 256 entries. A far-region
/// insert lands every burst, so the on-mode run pays an epoch publish and
/// a full cache invalidation per burst and still has to win. Every answer
/// is compared against ground truth captured before the window (far-region
/// writes cannot change base-region answers), so the gain is for
/// bit-identical results.
struct CacheResult {
  double off_qps = 0.0;
  double on_qps = 0.0;
  double gain = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  size_t wrong_answers = 0;
};

CacheResult RunCache(const bench::Args& args) {
  CacheResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const Dataset base = Region(base_n, 53, 0.0, 1.0);
  const Dataset far = Region(256, 54, 10.0, 11.0);
  const double tau = 0.003;
  const double window_s = args.quick ? 0.3 : 1.5;
  constexpr size_t kProbes = 16;
  constexpr size_t kBurst = 256;

  auto run_mode = [&](size_t cache_entries, uint64_t* hits, uint64_t* misses,
                      uint64_t* invalidations, size_t* wrong) -> double {
    DitaConfig config = bench::DefaultConfig();
    config.serving.scheduler_threads = 2;
    config.serving.answer_cache_entries = cache_entries;
    auto cluster = bench::MakeCluster(args.workers);
    DitaService service(cluster, config);
    DITA_CHECK(service.Start(base).ok());

    std::vector<const Trajectory*> probes;
    std::vector<std::vector<TrajectoryId>> expect(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      probes.push_back(&base[(i * 211) % base.size()]);
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *probes[i];
      req.tau = tau;
      auto r = service.Execute(req);
      DITA_CHECK(r.ok());
      expect[i] = r->ids;
    }

    size_t done = 0;
    size_t writes = 0;
    std::mt19937_64 rng(5678);
    WallTimer timer;
    while (timer.Seconds() < window_s) {
      // One far-region insert per burst: the epoch bump invalidates the
      // whole cache mid-stream without changing any base-region answer.
      if (writes < far.size()) {
        DITA_CHECK(service
                       .Insert(Trajectory(TrajectoryId(70000 + writes),
                                          far[writes].points()))
                       .ok());
        ++writes;
      }
      for (size_t i = 0; i < kBurst; ++i) {
        const size_t pi = (rng() % 10) < 8 ? rng() % 4 : 4 + rng() % 12;
        QueryRequest req;
        req.kind = QueryKind::kSearch;
        req.query = *probes[pi];
        req.tau = tau;
        auto r = service.Execute(req);
        ++done;
        if (!r.ok() || r->ids != expect[pi]) ++*wrong;
      }
    }
    const double qps = double(done) / timer.Seconds();
    *hits = service.cache_hits();
    *misses = service.cache_misses();
    *invalidations = service.cache_invalidations();
    service.Stop();
    return qps;
  };

  uint64_t off_hits = 0, off_misses = 0, off_inval = 0;
  out.off_qps =
      run_mode(0, &off_hits, &off_misses, &off_inval, &out.wrong_answers);
  out.on_qps = run_mode(256, &out.hits, &out.misses, &out.invalidations,
                        &out.wrong_answers);
  out.gain = out.off_qps > 0.0 ? out.on_qps / out.off_qps : 0.0;
  return out;
}

RunResult Run(const bench::Args& args) {
  RunResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const size_t far_n = static_cast<size_t>(320 * args.scale);
  const Dataset base = Region(base_n, 42, 0.0, 1.0);
  const Dataset far = Region(far_n, 43, 10.0, 11.0);

  DitaConfig config = bench::DefaultConfig();
  config.serving.merge_threshold = 64;  // several epoch merges per run
  config.serving.scheduler_threads = 2;
  auto cluster = bench::MakeCluster(args.workers);
  DitaService service(cluster, config);
  DITA_CHECK(service.Start(base).ok());

  // Oracle answers on the untouched base region (far-region ingest cannot
  // change them, whichever snapshot version a query later pins).
  constexpr size_t kProbes = 24;
  const double tau = 0.003;
  const size_t k = 5;
  std::vector<const Trajectory*> probes;
  std::vector<std::vector<TrajectoryId>> expect_search(kProbes);
  std::vector<std::vector<std::pair<TrajectoryId, double>>> expect_knn(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(&base[(i * 131) % base.size()]);
    QueryRequest sr;
    sr.kind = QueryKind::kSearch;
    sr.query = *probes[i];
    sr.tau = tau;
    auto s = service.Execute(sr);
    DITA_CHECK(s.ok());
    expect_search[i] = s->ids;
    QueryRequest kr;
    kr.kind = QueryKind::kKnnSearch;
    kr.query = *probes[i];
    kr.k = k;
    auto n = service.Execute(kr);
    DITA_CHECK(n.ok());
    expect_knn[i] = n->neighbors;
  }

  // --- The measured window: writer + open-loop query issuers + one bulk
  // low-priority self-join sharing the slot pool.
  using Clock = std::chrono::steady_clock;
  const double run_seconds = args.quick ? 0.6 : 3.0;
  const double target_qps = 150.0 * double(std::max<size_t>(args.queries, 1)) / 50.0;
  const auto t0 = Clock::now();

  std::atomic<size_t> inserts{0}, deletes{0}, wrong{0};
  std::thread writer([&] {
    // Spread the far-region stream across the window; every 4th op (after
    // a warm buffer) retires an older insert so merges see real deletes.
    const double gap_s = run_seconds / double(far.size());
    for (size_t i = 0; i < far.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double>(gap_s * double(i)));
      if (service.Insert(Trajectory(TrajectoryId(50000 + i),
                                    far[i].points()))
              .ok()) {
        ++inserts;
      }
      if (i >= 40 && i % 4 == 0 &&
          service.Delete(TrajectoryId(50000 + i - 40)).ok()) {
        ++deletes;
      }
    }
  });

  std::thread joiner([&] {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.tau = tau;
    req.priority = 2;  // bulk analytics: fair-share keeps searches flowing
    WallTimer timer;
    auto r = service.Execute(req);
    out.join_seconds = timer.Seconds();
    if (r.ok()) out.join_pairs = r->pairs.size();
  });

  // Open-loop arrivals: one seeded exponential schedule, dealt round-robin
  // to a fixed issuer pool; each latency is completion minus *scheduled*
  // arrival.
  constexpr size_t kIssuers = 6;
  std::vector<std::vector<double>> arrivals(kIssuers);
  {
    std::mt19937_64 rng(20260808);
    std::exponential_distribution<double> gap(target_qps);
    double t = 0.0;
    for (size_t i = 0; t < run_seconds; ++i) {
      t += gap(rng);
      arrivals[i % kIssuers].push_back(t);
    }
  }
  std::vector<std::vector<double>> latencies(kIssuers);
  std::vector<std::thread> issuers;
  for (size_t w = 0; w < kIssuers; ++w) {
    issuers.emplace_back([&, w] {
      std::mt19937_64 rng(7700 + w);
      for (size_t i = 0; i < arrivals[w].size(); ++i) {
        const auto due =
            t0 + std::chrono::duration<double>(arrivals[w][i]);
        std::this_thread::sleep_until(due);
        const size_t pi = size_t(rng()) % kProbes;
        const bool knn = (rng() % 5) == 0;  // 20% kNN, 80% search
        QueryRequest req;
        req.query = *probes[pi];
        req.priority = 0;
        if (knn) {
          req.kind = QueryKind::kKnnSearch;
          req.k = k;
        } else {
          req.kind = QueryKind::kSearch;
          req.tau = tau;
        }
        auto r = service.Execute(req);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        if (!r.ok()) {
          ++wrong;
          continue;
        }
        latencies[w].push_back(ms);
        if (knn ? (r->neighbors != expect_knn[pi])
                : (r->ids != expect_search[pi])) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : issuers) th.join();
  writer.join();
  joiner.join();
  out.elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // --- Settle and run the join oracle on the final live set.
  DITA_CHECK(service.ForceMerge().ok());
  {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.tau = tau;
    auto served = service.Execute(req);
    DITA_CHECK(served.ok());

    std::vector<Trajectory> live = base.trajectories();
    const auto snap = service.Pin();
    for (size_t i = 0; i < far.size(); ++i) {
      const TrajectoryId id(50000 + i);
      if (snap->IsLive(id)) live.emplace_back(id, far[i].points());
    }
    DitaEngine batch(cluster, bench::DefaultConfig());
    DITA_CHECK(batch.BuildIndex(Dataset(live)).ok());
    auto oracle = batch.Join(batch, tau);
    DITA_CHECK(oracle.ok());
    auto a = served->pairs;
    auto b = *oracle;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    out.join_matches_oracle = (a == b);
    if (!out.join_matches_oracle) ++wrong;
  }

  std::vector<double> all_lat;
  for (const auto& v : latencies) {
    all_lat.insert(all_lat.end(), v.begin(), v.end());
  }
  out.queries = all_lat.size();
  out.wrong_answers = wrong.load();
  out.qps = double(out.queries) / out.elapsed_s;
  out.p50_ms = PercentileMs(all_lat, 0.50);
  out.p99_ms = PercentileMs(all_lat, 0.99);
  out.inserts = inserts.load();
  out.deletes = deletes.load();
  out.merges = service.merges();
  out.final_epoch = service.epoch();
  out.scheduler_bypasses = service.scheduler().bypasses();
  out.scheduler_shed = service.scheduler().shed();

  const DitaService::ServiceStats stats = service.Stats();
  out.hist_search = QuantilesMs(stats.latency_search);
  out.hist_knn = QuantilesMs(stats.latency_knn);
  out.hist_join = QuantilesMs(stats.latency_join);
  out.hist_queue_wait = QuantilesMs(stats.queue_wait);
  out.shed = stats.shed;
  out.degraded = stats.degraded;
  out.recorded = stats.recorded;
  out.flight_json = service.DumpFlightRecorder();
  return out;
}

/// Observability overhead A/B: an identical closed-loop read workload
/// against a service with the full observability plane on (registry
/// metrics + a large flight recorder) and one with it off (metrics
/// disabled, recorder capacity 0 — the lifecycle stamping itself cannot be
/// turned off and is charged to both sides). Tracing is excluded: its
/// global span mutex is a known serializer and it is a debugging tool, not
/// a production default (DESIGN.md §5h). Acceptance gate: overhead < 3%.
/// Each mode runs twice and keeps its best window to damp scheduler noise.
struct ObsOverheadResult {
  double off_qps = 0.0;
  double on_qps = 0.0;
  double overhead_pct = 0.0;
  size_t wrong_answers = 0;
};

ObsOverheadResult RunObsOverhead(const bench::Args& args) {
  ObsOverheadResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const Dataset base = Region(base_n, 61, 0.0, 1.0);
  const double tau = 0.003;
  const double window_s = args.quick ? 0.15 : 0.3;
  constexpr size_t kProbes = 16;

  struct Mode {
    std::shared_ptr<Cluster> cluster;
    std::unique_ptr<DitaService> service;
    std::vector<const Trajectory*> probes;
    std::vector<std::vector<TrajectoryId>> expect;
  };
  auto make_mode = [&](bool obs_on) -> Mode {
    Mode m;
    DitaConfig config = bench::DefaultConfig();
    config.enable_metrics = obs_on;
    config.serving.flight_recorder_entries = obs_on ? 1024 : 0;
    config.serving.scheduler_threads = 2;
    m.cluster = bench::MakeCluster(args.workers);
    m.service = std::make_unique<DitaService>(m.cluster, config);
    DITA_CHECK(m.service->Start(base).ok());
    m.expect.resize(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      m.probes.push_back(&base[(i * 197) % base.size()]);
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *m.probes[i];
      req.tau = tau;
      auto r = m.service->Execute(req);
      DITA_CHECK(r.ok());
      m.expect[i] = r->ids;
    }
    return m;
  };
  auto measure = [&](Mode& m, size_t* wrong) -> double {
    size_t done = 0;
    std::mt19937_64 rng(4242);
    WallTimer timer;
    while (timer.Seconds() < window_s) {
      const size_t pi = size_t(rng()) % kProbes;
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *m.probes[pi];
      req.tau = tau;
      auto r = m.service->Execute(req);
      ++done;
      if (!r.ok() || r->ids != m.expect[pi]) ++*wrong;
    }
    return double(done) / timer.Seconds();
  };

  // Both services live across the whole measurement; each rep measures the
  // two modes back-to-back (order flipping every rep) and contributes one
  // *paired* overhead sample, so drift that is slow against a rep —
  // allocator state, frequency scaling, a noisy neighbor's burst — hits
  // both sides of the ratio and cancels. The reported numbers are medians
  // over reps: the true per-request delta (a few relaxed atomic bumps plus
  // one seqlock ring write) is far below single-window noise, and a mean
  // or best-of lets one burst-hit window swing the verdict past the gate.
  const int reps = args.quick ? 7 : 15;
  Mode off = make_mode(false);
  Mode on = make_mode(true);
  std::vector<double> off_r, on_r, over_r;
  for (int rep = 0; rep < reps; ++rep) {
    double o, n;
    if (rep % 2 == 0) {
      o = measure(off, &out.wrong_answers);
      n = measure(on, &out.wrong_answers);
    } else {
      n = measure(on, &out.wrong_answers);
      o = measure(off, &out.wrong_answers);
    }
    off_r.push_back(o);
    on_r.push_back(n);
    over_r.push_back(o > 0.0 ? (o - n) / o * 100.0 : 0.0);
  }
  off.service->Stop();
  on.service->Stop();
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.off_qps = median(off_r);
  out.on_qps = median(on_r);
  out.overhead_pct = median(over_r);
  return out;
}

std::string HistJson(const char* kind, const HistQuantilesMs& q) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"count\": %llu, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                "\"p99_ms\": %.4f, \"p999_ms\": %.4f}",
                kind, static_cast<unsigned long long>(q.count), q.p50, q.p95,
                q.p99, q.p999);
  return buf;
}

void WriteJson(const char* path, const bench::Args& args, const RunResult& r,
               const BatchingResult& b, const CacheResult& c,
               const ObsOverheadResult& o) {
  std::string json = "{\n";
  json += "  \"meta\": " + bench::MetaJson() + ",\n";
  json += "  \"latency_hist\": {" + HistJson("search", r.hist_search) + ", " +
          HistJson("knn", r.hist_knn) + ", " + HistJson("join", r.hist_join) +
          ", " + HistJson("queue_wait", r.hist_queue_wait) + "},\n";
  {
    char sbuf[384];
    std::snprintf(
        sbuf, sizeof(sbuf),
        "  \"service\": {\"shed\": %llu, \"degraded\": %llu, "
        "\"recorded\": %llu},\n"
        "  \"obs_overhead\": {\"off_qps\": %.1f, \"on_qps\": %.1f, "
        "\"overhead_pct\": %.2f, \"wrong_answers\": %zu},\n",
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.degraded),
        static_cast<unsigned long long>(r.recorded), o.off_qps, o.on_qps,
        o.overhead_pct, o.wrong_answers);
    json += sbuf;
  }
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "  \"workload\": {\"scale\": %.2f, \"workers\": %zu, "
      "\"run_seconds\": %.2f},\n"
      "  \"open_loop\": {\"queries\": %zu, \"qps\": %.1f, "
      "\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
      "  \"ingest\": {\"inserts\": %zu, \"deletes\": %zu, "
      "\"epoch_merges\": %llu, \"final_epoch\": %llu},\n"
      "  \"bulk_join\": {\"seconds\": %.3f, \"pairs\": %zu, "
      "\"matches_batch_oracle\": %s},\n"
      "  \"scheduler\": {\"bypasses\": %llu, \"shed\": %llu},\n"
      "  \"batching\": {\"off_qps\": %.1f, \"on_qps\": %.1f, "
      "\"gain\": %.2f, \"batches\": %llu, \"avg_batch\": %.2f, "
      "\"wrong_answers\": %zu},\n"
      "  \"cache\": {\"off_qps\": %.1f, \"on_qps\": %.1f, \"gain\": %.2f, "
      "\"hits\": %llu, \"misses\": %llu, \"invalidations\": %llu, "
      "\"wrong_answers\": %zu},\n"
      "  \"wrong_answers\": %zu\n}\n",
      args.scale, args.workers, r.elapsed_s, r.queries, r.qps, r.p50_ms,
      r.p99_ms, r.inserts, r.deletes,
      static_cast<unsigned long long>(r.merges),
      static_cast<unsigned long long>(r.final_epoch), r.join_seconds,
      r.join_pairs, r.join_matches_oracle ? "true" : "false",
      static_cast<unsigned long long>(r.scheduler_bypasses),
      static_cast<unsigned long long>(r.scheduler_shed), b.off_qps, b.on_qps,
      b.gain, static_cast<unsigned long long>(b.batches), b.avg_batch,
      b.wrong_answers, c.off_qps, c.on_qps, c.gain,
      static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.invalidations), c.wrong_answers,
      r.wrong_answers);
  json += buf;
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// The loaded service's flight recorder, exported next to the bench JSON:
/// `<out>` minus its ".json" suffix plus "_flight.json". The same document
/// DitaService::DumpFlightRecorder serves online; tools/obs_report.py
/// renders it into an SLO report.
void WriteFlightJson(const std::string& bench_path, const RunResult& r) {
  std::string path = bench_path;
  const std::string suffix = ".json";
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    path.resize(path.size() - suffix.size());
  }
  path += "_flight.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(r.flight_json.data(), 1, r.flight_json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace dita

int main(int argc, char** argv) {
  auto args = dita::bench::ParseArgs(argc, argv);
  std::printf("Serving runtime under open-loop load (scale=%.2f workers=%zu)\n",
              args.scale, args.workers);
  const auto r = dita::Run(args);
  std::printf(
      "queries=%zu qps=%.1f p50=%.3fms p99=%.3fms | inserts=%zu deletes=%zu "
      "merges=%llu epoch=%llu | join=%.3fs pairs=%zu oracle=%s | wrong=%zu\n",
      r.queries, r.qps, r.p50_ms, r.p99_ms, r.inserts, r.deletes,
      static_cast<unsigned long long>(r.merges),
      static_cast<unsigned long long>(r.final_epoch), r.join_seconds,
      r.join_pairs, r.join_matches_oracle ? "yes" : "NO", r.wrong_answers);
  const auto b = dita::RunBatching(args);
  std::printf(
      "batching: off=%.1f qps on=%.1f qps gain=%.2fx | batches=%llu "
      "avg_batch=%.2f wrong=%zu\n",
      b.off_qps, b.on_qps, b.gain,
      static_cast<unsigned long long>(b.batches), b.avg_batch,
      b.wrong_answers);
  const auto c = dita::RunCache(args);
  std::printf(
      "cache:    off=%.1f qps on=%.1f qps gain=%.2fx | hits=%llu misses=%llu "
      "invalidations=%llu wrong=%zu\n",
      c.off_qps, c.on_qps, c.gain, static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.invalidations), c.wrong_answers);
  const auto o = dita::RunObsOverhead(args);
  std::printf(
      "obs:      off=%.1f qps on=%.1f qps overhead=%.2f%% wrong=%zu\n",
      o.off_qps, o.on_qps, o.overhead_pct, o.wrong_answers);
  std::printf(
      "hist[search]: n=%llu p50=%.3f p95=%.3f p99=%.3f p999=%.3f ms | "
      "hist[knn]: n=%llu p50=%.3f p99=%.3f ms | shed=%llu degraded=%llu\n",
      static_cast<unsigned long long>(r.hist_search.count), r.hist_search.p50,
      r.hist_search.p95, r.hist_search.p99, r.hist_search.p999,
      static_cast<unsigned long long>(r.hist_knn.count), r.hist_knn.p50,
      r.hist_knn.p99, static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.degraded));
  const std::string out_path =
      args.out.empty() ? "BENCH_serving.json" : args.out;
  dita::WriteJson(out_path.c_str(), args, r, b, c, o);
  dita::WriteFlightJson(out_path, r);
  return r.wrong_answers + b.wrong_answers + c.wrong_answers +
                     o.wrong_answers ==
                 0
             ? 0
             : 1;
}
