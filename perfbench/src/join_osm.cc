// join_osm: a DitaEngine threshold self-join repeated on an OSM-like table
// (long trajectories with a long tail), then threshold searches of its left
// trajectories, each from 4 clients. Long trajectories make
// the O(mn) DP kernels, the join planner and the cluster stages dominate;
// the serving layer is not involved at all - the opposite balance from
// serve_read.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <unordered_map>

#include "baselines/naive.h"
#include "core/engine.h"
#include "harness.h"
#include "util/rng.h"
#include "replay.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using dita::QueryKind;
using dita::QueryRequest;
using dita::QueryResult;
using dita::Trajectory;
using dita::TrajectoryId;

// The join returns non-self pairs at this threshold (about 22.5k pairs on
// 20k trips at the commit that introduced the benchmark).
constexpr double kTau = 0.02;
constexpr int kSetupReps = 9;
constexpr double kJoinShare = 0.8;    // of --seconds; then the searches
constexpr double kSearchShare = 0.2;  // of --seconds, at least one pass
constexpr double kSearchCap = 0.6;    // of --seconds, for the first pass
constexpr size_t kClients = 4;        // join and search clients, one per core
constexpr size_t kNaiveChecks = 3;
constexpr size_t kReplayQueries = 128;
constexpr size_t kDistanceQueries = 16;
constexpr size_t kSlices = 4;  // time slices per search-latency percentile

/// 20,000 OSM-like trips: GenerateOsmLike's 12 dense regional hotspots of
/// long trajectories, with the hotspots' positions and extents drawn by the
/// same rule but from a fixed seed, and every trip drawn from `seed`. A
/// hotspot's density varies 36-fold with its extent and decides most of the
/// join's cost, so drawing the layout from `seed` too made the join time
/// swing by about 15% from seed to seed.
dita::Dataset OsmWorld(uint64_t seed) {
  constexpr size_t kTrips = 20000;
  constexpr size_t kRegions = 12;
  constexpr uint64_t kLayoutSeed = 44;  // GenerateOsmLike's default seed
  dita::Rng layout(kLayoutSeed);
  dita::Dataset out;
  for (size_t r = 0; r < kRegions; ++r) {
    dita::GeneratorConfig cfg;
    cfg.cardinality = kTrips / kRegions;
    const double cx = layout.Uniform(-160, 160);
    const double cy = layout.Uniform(-70, 70);
    const double extent = layout.Uniform(0.5, 3.0);
    cfg.region = dita::MBR(dita::Point{cx - extent, cy - extent},
                           dita::Point{cx + extent, cy + extent});
    cfg.avg_len = 90.0;
    cfg.min_len = 9;
    cfg.max_len = 600;
    cfg.step = 0.004;
    cfg.gps_noise = 0.0003;
    cfg.hubs = 8;
    cfg.seed = seed * kRegions + r;
    dita::Dataset region = dita::GenerateTaxiDataset(cfg);
    for (dita::Trajectory& t : region.mutable_trajectories()) {
      t.set_id(static_cast<dita::TrajectoryId>(out.size()));
      out.Add(std::move(t));
    }
  }
  return out;
}

}  // namespace

void RunJoinOsm(const Args& args, Result* out) {
  const dita::DitaConfig config{};
  const dita::ClusterConfig cluster_config{};
  PrintConfig(config, cluster_config);
  Tracer tracer(args.trace);
  Tracer* tr = &tracer;

  const dita::Dataset table = OsmWorld(args.seed);
  const dita::Dataset::Stats st = table.ComputeStats();
  std::printf("join_osm: table=%zu trips, avg_len=%.1f, max_len=%zu, tau=%g\n",
              st.cardinality, st.avg_len, st.max_len, kTau);

  // Set-up: DitaEngine::BuildIndex, several times; the last engine joins.
  auto cluster = std::make_shared<dita::Cluster>(cluster_config);
  std::unique_ptr<dita::DitaEngine> engine;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, tr, "DitaEngine::BuildIndex",
      [&] {
        engine.reset();
        engine = std::make_unique<dita::DitaEngine>(cluster, config);
      },
      [&] { return engine->BuildIndex(table); });

  // Joins: a first, untimed join gives the reference pairs and warms the
  // engine. Then kClients clients each run the join back to back for
  // kJoinShare of the window; every join must return the reference pairs.
  // One client alone left three cores idle, and its median join time spread
  // by 31% over ten seeds. A traced run traces every other join; the time
  // ratio is the tracing overhead.
  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = kTau;
  std::vector<std::pair<TrajectoryId, TrajectoryId>> first;
  {
    auto r = engine->Execute(join);
    if (!r.ok()) Die("reference join: " + r.status().ToString());
    first = std::move(r->pairs);
  }
  struct JoinClient {
    Latencies ms;
    size_t ok = 0, failed = 0, wrong = 0, traced_n = 0, plain_n = 0;
    double traced_s = 0.0, plain_s = 0.0, makespan = 0.0, load_ratio = 0.0;
    dita::JoinStats sum;
  };
  std::vector<JoinClient> joiners(kClients);
  std::atomic<size_t> join_seq{0};
  const double join_wall_s =
      RunClosedLoop(kClients, args.seconds * kJoinShare, [&](size_t c) {
        JoinClient& jc = joiners[c];
        const bool traced = args.trace && join_seq.fetch_add(1) % 2 == 1;
        const double t0 = Now();
        dita::Result<QueryResult> r = [&] {
          Tracer::Scope span(traced ? tr : nullptr, "DitaEngine::Execute");
          return engine->Execute(join);
        }();
        const double s = Now() - t0;
        if (!r.ok()) {
          ++jc.failed;
          jc.ms.AddFailed();
          return;
        }
        jc.ms.Add(s * 1e3);
        ++jc.ok;
        (traced ? jc.traced_s : jc.plain_s) += s;
        ++(traced ? jc.traced_n : jc.plain_n);
        if (r->pairs != first) ++jc.wrong;
        const dita::JoinStats& js = r->join_stats;
        jc.sum.graph_edges += js.graph_edges;
        jc.sum.bytes_shipped += js.bytes_shipped;
        jc.sum.divided_partitions += js.divided_partitions;
        jc.sum.verify.Merge(js.verify);
        jc.makespan += js.makespan_seconds;
        jc.load_ratio += js.load_ratio;
      });
  Latencies join_ms;
  size_t joins_ok = 0, traced_n = 0, plain_n = 0;
  double traced_s = 0.0, plain_s = 0.0, makespan = 0.0, load_ratio = 0.0;
  dita::JoinStats sum;
  for (const JoinClient& jc : joiners) {
    join_ms.Merge(jc.ms);
    joins_ok += jc.ok;
    out->attempted += jc.ok + jc.failed;
    out->failed += jc.failed;
    out->wrong += jc.wrong;
    traced_s += jc.traced_s;
    plain_s += jc.plain_s;
    traced_n += jc.traced_n;
    plain_n += jc.plain_n;
    makespan += jc.makespan;
    load_ratio += jc.load_ratio;
    sum.graph_edges += jc.sum.graph_edges;
    sum.bytes_shipped += jc.sum.bytes_shipped;
    sum.divided_partitions += jc.sum.divided_partitions;
    sum.verify.Merge(jc.sum.verify);
  }
  if (joins_ok == 0) Die("every join failed");

  // A self-join pair (l, r) means f(r, l) <= tau, so the right partners of
  // left trajectory l are exactly the answer of a search with query l.
  std::unordered_map<TrajectoryId, std::pair<size_t, size_t>> partners;
  for (size_t i = 0; i < first.size();) {
    size_t j = i;
    while (j < first.size() && first[j].first == first[i].first) ++j;
    partners[first[i].first] = {i, j};
    i = j;
  }
  auto partners_of = [&](TrajectoryId id) {
    std::vector<TrajectoryId> ids;
    const auto it = partners.find(id);
    if (it == partners.end()) return ids;
    for (size_t k = it->second.first; k < it->second.second; ++k) {
      ids.push_back(first[k].second);
    }
    return ids;
  };
  size_t self_pairs = 0;
  for (const auto& p : first) self_pairs += p.first == p.second;
  std::printf("join_osm: %zu joins, %zu pairs (%zu non-self)\n", joins_ok,
              first.size(), first.size() - self_pairs);

  // Side requests: searches of every left trajectory, in a seeded order and
  // then again, each checked against its join partners, from kClients clients
  // back to back for kSearchShare of the window. At least one whole pass is
  // made, so the latency percentiles describe the same population on every
  // run; kSearchCap only bounds a pathologically slow program. (One pass from
  // one client lasted about 3 s, and its percentiles spread by 19-27% over
  // ten seeds; see perfbench/README.md.)
  std::vector<size_t> order(table.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 3);
  std::shuffle(order.begin(), order.end(), rng);
  struct Client {
    Latencies ms;
    size_t searches = 0, partitions = 0, failed = 0, wrong = 0;
  };
  std::vector<Client> clients(kClients);
  std::atomic<size_t> next{0};
  const double search_start = Now();
  const double search_stop = search_start + args.seconds * kSearchShare;
  const double search_cap = search_start + args.seconds * kSearchCap;
  std::vector<std::thread> pool;
  for (size_t c = 0; c < kClients; ++c) {
    pool.emplace_back([&, c] {
      Client& cl = clients[c];
      for (size_t i = next.fetch_add(1);; i = next.fetch_add(1)) {
        const double now = Now();
        if (now >= search_cap || (i >= order.size() && now >= search_stop)) {
          break;
        }
        const Trajectory& t = table[order[i % order.size()]];
        QueryRequest req;
        req.kind = QueryKind::kSearch;
        req.query = t;
        req.tau = kTau;
        const double t0 = Now();
        auto r = engine->Execute(req);
        const double ms = (Now() - t0) * 1e3;
        ++cl.searches;
        if (!r.ok()) {
          ++cl.failed;
          cl.ms.AddFailed();
          continue;
        }
        cl.ms.Add(ms);
        cl.partitions += r->search_stats.partitions_probed;
        if (r->ids != partners_of(t.id())) ++cl.wrong;
      }
    });
  }
  for (auto& t : pool) t.join();
  Latencies search_ms;
  size_t searches = 0, partitions = 0;
  for (const Client& cl : clients) {
    search_ms.Merge(cl.ms);
    searches += cl.searches;
    partitions += cl.partitions;
    out->attempted += cl.searches;
    out->failed += cl.failed;
    out->wrong += cl.wrong;
  }

  // Cross-check a seeded sample of left trajectories with the naive engine.
  {
    dita::NaiveEngine naive(std::make_shared<dita::Cluster>(cluster_config),
                            config.distance, config.distance_params);
    if (!naive.BuildIndex(table).ok()) Die("naive BuildIndex failed");
    for (size_t i = 0; i < kNaiveChecks; ++i) {
      const Trajectory& t = table[order[order.size() - 1 - i]];
      auto r = naive.Search(t, kTau);
      if (!r.ok()) Die("naive search failed");
      std::vector<TrajectoryId> ids = *r;
      std::sort(ids.begin(), ids.end());
      if (ids != partners_of(t.id())) ++out->wrong;
    }
  }
  std::printf("join_osm: %zu searches, naive cross-check %zu\n", searches,
              kNaiveChecks);

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.ops_per_s = static_cast<double>(joins_ok) / join_wall_s;
    e.main_p50_ms = join_ms.P(0.50);
    e.main_p99_ms = join_ms.P(0.99);
    e.side_p50_ms = search_ms.P(0.50, kSlices);
    e.side_p95_ms = search_ms.P(0.95, kSlices);
    EmitEndToEnd(e, out);
    return;
  }

  std::map<std::string, double> m;
  const double n = static_cast<double>(joins_ok);
  VerifyMetrics(sum.verify, joins_ok, &m);
  m["core.join_graph_edges"] = static_cast<double>(sum.graph_edges) / n;
  m["core.join_bytes_shipped"] = static_cast<double>(sum.bytes_shipped) / n;
  m["core.join_divided_partitions"] =
      static_cast<double>(sum.divided_partitions) / n;
  m["cluster.makespan_s"] = makespan / n;
  m["cluster.load_ratio"] = load_ratio / n;
  const auto build = tracer.Summarize("DitaEngine::BuildIndex");
  m["core.build_s"] = build.total_s / static_cast<double>(build.count);
  if (traced_n > 0 && plain_n > 0) {
    m["obs.trace_overhead_pct"] =
        ((traced_s / traced_n) / (plain_s / plain_n) - 1.0) * 100.0;
  }

  m["core.partitions_per_query"] =
      static_cast<double>(partitions) / static_cast<double>(searches);

  // Layer replay of left-trajectory searches; must equal the join partners.
  std::vector<ReplayQuery> replayed(kReplayQueries);
  for (size_t j = 0; j < kReplayQueries; ++j) {
    const Trajectory& t = table[order[j % order.size()]];
    replayed[j] = {&t, kTau, partners_of(t.id())};
  }
  ReplayMetrics(config, table.trajectories(), replayed, kDistanceQueries, kTau,
                tr, &m);
  EmitPerLayer(m, out);
}

}  // namespace perfbench
