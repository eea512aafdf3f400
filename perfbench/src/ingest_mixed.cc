// ingest_mixed: a DitaService on a Beijing-like table with one closed-loop
// writer and open-loop readers. The writer inserts new trips in the same
// city and deletes one of its earlier inserts after every fifth insert; the
// shipped merge threshold makes background epoch merges recur. Readers send
// Zipf-skewed threshold searches over a hot set small enough for an answer
// cache. Writes exercise the snapshot copy per write, merges rebuilding
// partitions and tries, delta scans and cache invalidation beside reads, so
// a read-side gain that costs writes, or the reverse, shows here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

#include "harness.h"
#include "replay.h"
#include "serving/service.h"

namespace perfbench {
namespace {

using dita::QueryKind;
using dita::QueryRequest;
using dita::QueryResult;
using dita::Trajectory;
using dita::TrajectoryId;

constexpr size_t kTableTrips = 12000;
// Hot queries: as many as the answer cache of examples/serving_demo.cpp
// holds (64 entries), a quarter of bench_serving's cache A/B (256).
constexpr size_t kHot = 64;
constexpr double kZipf = 1.0;         // popularity exponent of the hot set
constexpr size_t kReaders = 3;
// Searches/s over all readers: about 15% of what kReaders closed-loop
// readers complete beside the writer on a 4-core host at the commit that
// introduced the benchmark (about 2,000/s), so the workload stays
// write-dominated. Fixed, so a faster program shows as lower latency.
constexpr double kReadRate = 300.0;
constexpr size_t kDeleteEvery = 5;    // one delete per five inserts
constexpr size_t kStreamTrips = 32768;
constexpr TrajectoryId kWriterIds = 100000000;
constexpr int kSetupReps = 15;
constexpr size_t kSlices = 8;       // time slices per latency percentile
constexpr size_t kCheckRandom = 64;   // extra settled-state checks

}  // namespace

void RunIngestMixed(const Args& args, Result* out) {
  const dita::DitaConfig config{};
  const dita::ClusterConfig cluster_config{};
  PrintConfig(config, cluster_config);
  Tracer tracer(args.trace);
  Tracer* tr = &tracer;

  // Hot queries, table and write stream: trips of one Beijing-like city
  // split at random, so the writer inserts new trips of the table's routes.
  std::vector<Trajectory> trips =
      BeijingTrips(kHot + kTableTrips + kStreamTrips);
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 5);
  std::shuffle(trips.begin(), trips.end(), rng);
  std::vector<QueryRequest> hot(kHot);
  std::uniform_real_distribution<double> tau_dist(0.001, 0.005);
  for (size_t i = 0; i < kHot; ++i) {
    hot[i].kind = QueryKind::kSearch;
    hot[i].query = trips[i];
    hot[i].tau = tau_dist(rng);
  }
  const dita::Dataset table(std::vector<Trajectory>(
      trips.begin() + kHot, trips.begin() + kHot + kTableTrips));
  // After the stream is used up it is replayed under fresh ids.
  const std::vector<Trajectory> stream(trips.begin() + kHot + kTableTrips,
                                       trips.end());
  std::printf("ingest_mixed: table=%zu trips, hot=%zu, readers=%zu at %.0f/s\n",
              table.size(), kHot, kReaders, kReadRate);

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

  // Readers: open loop, Zipf over the hot set.
  std::vector<double> weights(kHot);
  for (size_t i = 0; i < kHot; ++i) weights[i] = 1.0 / std::pow(i + 1.0, kZipf);
  const auto arrivals =
      PoissonSchedule(kReadRate, args.seconds, kHot, weights, args.seed + 29);
  std::vector<Latencies> read_ms(kReaders);
  std::vector<PhaseSums> phases(kReaders);
  std::vector<dita::VerifyStats> verify(kReaders);
  std::vector<size_t> partitions(kReaders, 0), read_failed(kReaders, 0);
  std::vector<double> late;
  std::thread readers([&] {
    late = RunOpenLoop(arrivals, kReaders, [&](size_t th, size_t i, double due) {
      dita::Result<QueryResult> r = [&] {
        Tracer::Scope s(tr, "DitaService::Execute");
        return service->Execute(hot[arrivals[i].item]);
      }();
      if (!r.ok()) {
        ++read_failed[th];
        read_ms[th].AddFailed();
        return;
      }
      read_ms[th].Add((Now() - due) * 1e3);
      if (!args.trace) return;
      phases[th].Add(r->serving.lifecycle);
      verify[th].Merge(r->search_stats.verify);
      partitions[th] += r->search_stats.partitions_probed;
    });
  });

  // Writer: closed loop for the whole window. A traced run traces every
  // other insert and every other delete, so the traced and the plain half
  // hold the same mix of writes; their time ratio is the tracing overhead.
  Latencies insert_ms, delete_ms;
  std::vector<TrajectoryId> live;  // the writer's inserts still live
  std::vector<const Trajectory*> live_src;
  size_t inserts = 0, deletes = 0, write_failed = 0, backlog_max = 0;
  double traced_s = 0.0, plain_s = 0.0;
  size_t traced_n = 0, plain_n = 0;
  const double start = Now();
  const double stop = start + args.seconds;
  while (Now() < stop) {
    const bool del = inserts > 0 && inserts % kDeleteEvery == 0 &&
                     deletes < inserts / kDeleteEvery && !live.empty();
    const bool traced = args.trace && (del ? deletes : inserts) % 2 == 1;
    dita::Status st;
    const double t0 = Now();
    if (del) {
      const size_t k = rng() % live.size();
      const TrajectoryId id = live[k];
      live[k] = live.back();
      live.pop_back();
      live_src[k] = live_src.back();
      live_src.pop_back();
      {
        Tracer::Scope s(traced ? tr : nullptr, "DitaService::Delete");
        st = service->Delete(id);
      }
      if (st.ok()) {
        delete_ms.Add((Now() - t0) * 1e3);
      } else {
        delete_ms.AddFailed();
      }
      ++deletes;
    } else {
      Trajectory t = stream[inserts % stream.size()];
      t.set_id(kWriterIds + static_cast<TrajectoryId>(inserts));
      {
        Tracer::Scope s(traced ? tr : nullptr, "DitaService::Insert");
        st = service->Insert(t);
      }
      if (st.ok()) {
        insert_ms.Add((Now() - t0) * 1e3);
        live.push_back(t.id());
        live_src.push_back(&stream[inserts % stream.size()]);
      } else {
        insert_ms.AddFailed();
      }
      ++inserts;
    }
    const double s = Now() - t0;
    (traced ? traced_s : plain_s) += s;
    ++(traced ? traced_n : plain_n);
    if (!st.ok()) ++write_failed;
    if (args.trace) backlog_max = std::max(backlog_max, service->delta_ops());
  }
  const double write_s = Now() - start;
  readers.join();
  const uint64_t merges = service->merges();
  const double merge_busy = service->Stats().merge_busy_seconds;

  Latencies search_ms;
  size_t failed_reads = 0;
  for (size_t t = 0; t < kReaders; ++t) {
    search_ms.Merge(read_ms[t]);
    failed_reads += read_failed[t];
    if (t > 0) {
      phases[0].Merge(phases[t]);
      verify[0].Merge(verify[t]);
      partitions[0] += partitions[t];
    }
  }
  out->attempted = inserts + deletes + arrivals.size();
  out->failed = write_failed + failed_reads;
  std::printf(
      "ingest_mixed: %zu inserts, %zu deletes (%.0f ops/s), %zu searches, "
      "%llu merges\n",
      inserts, deletes, (inserts + deletes) / write_s, arrivals.size(),
      static_cast<unsigned long long>(merges));

  // Settled state: after ForceMerge, searches must equal a fresh engine's
  // on the live set.
  {
    Tracer::Scope s(tr, "DitaService::ForceMerge");
    const dita::Status st = service->ForceMerge();
    if (!st.ok()) Die("ForceMerge: " + st.ToString());
  }
  std::vector<Trajectory> settled = table.trajectories();
  for (size_t k = 0; k < live.size(); ++k) {
    settled.push_back(*live_src[k]);
    settled.back().set_id(live[k]);
  }
  std::vector<QueryRequest> checks = hot;
  for (size_t i = 0; i < kCheckRandom; ++i) {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = settled[rng() % settled.size()];
    req.tau = tau_dist(rng);
    checks.push_back(req);
  }
  std::vector<std::vector<TrajectoryId>> served;
  for (const QueryRequest& req : checks) {
    auto r = service->Execute(req);
    if (!r.ok()) Die("settled-state search failed");
    served.push_back(std::move(r->ids));
  }
  const uint64_t cache_hits = service->cache_hits();
  const uint64_t lookups = cache_hits + service->cache_misses();
  service.reset();  // the fresh engine below is not part of the workload

  dita::DitaEngine fresh(std::make_shared<dita::Cluster>(cluster_config),
                         config);
  {
    Tracer::Scope s(tr, "DitaEngine::BuildIndex");
    const dita::Status st = fresh.BuildIndex(dita::Dataset(settled));
    if (!st.ok()) Die("BuildIndex: " + st.ToString());
  }
  std::vector<std::vector<TrajectoryId>> expected;
  for (size_t i = 0; i < checks.size(); ++i) {
    auto r = fresh.Execute(checks[i]);
    if (!r.ok()) Die("fresh-engine search failed");
    if (r->ids != served[i]) ++out->wrong;
    expected.push_back(std::move(r->ids));
  }
  std::printf("ingest_mixed: settled live set %zu trips, %zu checks\n",
              settled.size(), checks.size());

  // The side requests are the writer's deletes. The readers' latency moved
  // by up to 1.66x between two sets of ten runs of the same code while the
  // writer's rate moved by 8%, so it is reported by the traced run only.
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.ops_per_s = static_cast<double>(inserts + deletes) / write_s;
    e.main_p50_ms = insert_ms.P(0.50, kSlices);
    e.main_p99_ms = insert_ms.P(0.99, kSlices);
    e.side_p50_ms = delete_ms.P(0.50, kSlices);
    e.side_p95_ms = delete_ms.P(0.95, kSlices);
    EmitEndToEnd(e, out);
    return;
  }

  std::map<std::string, double> m;
  phases[0].Emit(&m);
  VerifyMetrics(verify[0], phases[0].n, &m);
  m["core.partitions_per_query"] =
      phases[0].n == 0 ? 0.0 : double(partitions[0]) / double(phases[0].n);
  m["serving.insert_ms"] = tracer.Summarize("DitaService::Insert").MeanMs();
  m["serving.delta_backlog_max"] = static_cast<double>(backlog_max);
  m["serving.merges"] = static_cast<double>(merges);
  m["serving.merge_s"] = merges == 0 ? 0.0 : merge_busy / double(merges);
  m["serving.cache_lookups"] = static_cast<double>(lookups);
  m["serving.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : double(cache_hits) / double(lookups);
  m["harness.late_ms_p99"] = Percentile(late, 0.99);
  m["harness.read_p50_ms"] = search_ms.P(0.50, kSlices);
  m["harness.read_p95_ms"] = search_ms.P(0.95, kSlices);
  if (traced_n > 0 && plain_n > 0) {
    m["obs.trace_overhead_pct"] =
        ((traced_s / traced_n) / (plain_s / plain_n) - 1.0) * 100.0;
  }
  m["core.build_s"] = tracer.Summarize("DitaEngine::BuildIndex").total_s;

  // Layer replay over the settled live set.
  std::vector<ReplayQuery> replayed(checks.size());
  for (size_t j = 0; j < checks.size(); ++j) {
    replayed[j] = {&checks[j].query, checks[j].tau, expected[j]};
  }
  ReplayMetrics(config, settled, replayed, checks.size(), 0.003, tr, &m);
  EmitPerLayer(m, out);
}

}  // namespace perfbench
