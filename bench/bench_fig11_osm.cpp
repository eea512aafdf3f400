// Figure 11: large worldwide OSM(-like) datasets.
// (a) search time, DTW, all engines; (b) join time, DTW, DITA only (the
// paper's baselines cannot finish); (c) search time, Frechet; (d) join time,
// Frechet, DITA only. Search in cost-model ms, join in cost-model seconds.

#include "bench/search_figure.h"

namespace dita::bench {
namespace {

void RunPanels(const Args& args) {
  const Dataset search_set = GenerateOsmLike(args.scale, 44);
  // OSM(join) is a smaller sample of OSM(search), as in the paper (§7.1).
  auto join_result = search_set.Sample(0.5, 3);
  DITA_CHECK(join_result.ok());
  const Dataset join_set = std::move(*join_result);
  const auto queries = search_set.SampleQueries(args.queries, 1001);
  const auto taus = PaperTaus();
  std::vector<std::string> cols;
  for (double tau : taus) cols.push_back(StrFormat("%.3f", tau));

  // OSM parameters per the paper's Table 3 scaled down: K = 5, larger N_G.
  DitaConfig osm_config = DefaultConfig();
  osm_config.build.ng = 6;
  osm_config.build.trie.num_pivots = 5;
  osm_config.build.trie.align_fanout = 16;
  osm_config.build.trie.pivot_fanout = 8;
  osm_config.build.trie.leaf_capacity = 16;

  for (DistanceType distance : {DistanceType::kDTW, DistanceType::kFrechet}) {
    const char* dname = DistanceTypeName(distance);
    {
      PrintHeader(StrFormat("search on OSM (%s), ms", dname), cols);
      SearchEngines e =
          BuildSearchEngines(search_set, args.workers, distance, osm_config);
      std::map<std::string, std::vector<double>> cand_rows;
      for (auto& [name, fn] : e.Fns()) {
        std::vector<double> row;
        for (double tau : taus) {
          double ms = 0, cands = 0;
          for (const auto& q : queries) {
            DitaEngine::QueryStats stats;
            auto r = fn(q, tau, &stats);
            DITA_CHECK(r.ok());
            ms += stats.makespan_seconds * 1e3;
            cands += double(stats.candidates);
          }
          row.push_back(ms / double(queries.size()));
          cand_rows[name].push_back(cands / double(queries.size()));
        }
        PrintRow(name, row);
      }
      PrintHeader(StrFormat("candidates per query on OSM (%s)", dname), cols);
      for (const char* name : {"Naive", "Simba", "DFT", "DITA"}) {
        PrintRow(name, cand_rows[name], "%12.1f");
      }
    }
    {
      PrintHeader(StrFormat("join on OSM(join) (%s), seconds — DITA only",
                            dname),
                  cols);
      std::vector<double> row;
      for (double tau : taus) {
        auto cluster = MakeCluster(args.workers);
        DitaConfig config = osm_config;
        config.distance = distance;
        DitaEngine engine(cluster, config);
        DITA_CHECK(engine.BuildIndex(join_set).ok());
        DitaEngine::JoinStats stats;
        DITA_CHECK(engine.Join(engine, tau, &stats).ok());
        row.push_back(stats.makespan_seconds);
      }
      PrintRow("DITA", row, "%12.4f");
    }
  }
}

}  // namespace
}  // namespace dita::bench

int main(int argc, char** argv) {
  auto args = dita::bench::ParseArgs(argc, argv);
  if (args.queries == 50) args.queries = 20;  // long trajectories; fewer queries
  std::printf("Figure 11 reproduction: OSM-like search and join (DTW, Frechet)\n");
  std::printf("scale=%.2f queries=%zu workers=%zu\n", args.scale, args.queries,
              args.workers);
  dita::bench::RunPanels(args);
  return 0;
}
