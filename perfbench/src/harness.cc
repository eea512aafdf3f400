#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>
#include <unordered_map>

#include "workload/generator.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  // Sleep to just short of `t`, then yield-spin: a plain sleep wakes up
  // tens of microseconds late, which would count against the program.
  constexpr double kSpin = 300e-6;
  const double d = t - Now() - kSpin;
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
  while (Now() < t) std::this_thread::yield();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double>& v) { return Percentile(v, 0.5); }

void Latencies::AddFailed() { samples.push_back({Now(), HUGE_VAL}); }

void Latencies::Merge(const Latencies& o) {
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
}

double Latencies::P(double p, size_t slices) const {
  std::vector<Sample> s = samples;
  std::sort(s.begin(), s.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  slices = std::clamp<size_t>(slices, 1, std::max<size_t>(1, s.size()));
  std::vector<double> per_slice;
  for (size_t k = 0; k < slices; ++k) {
    std::vector<double> v;
    for (size_t i = k * s.size() / slices; i < (k + 1) * s.size() / slices; ++i) {
      v.push_back(s[i].ms);
    }
    per_slice.push_back(Percentile(v, p));
  }
  const double v = Median(per_slice);
  return std::isfinite(v) ? v : 1e9;
}

double BlockRate(const RequestSpans& spans, size_t block) {
  std::vector<double> rates;
  for (size_t b = 0; (b + 1) * block <= spans.size(); ++b) {
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    for (size_t i = b * block; i < (b + 1) * block; ++i) {
      lo = std::min(lo, spans[i].first);
      hi = std::max(hi, spans[i].second);
    }
    rates.push_back(static_cast<double>(block) / (hi - lo));
  }
  if (rates.empty() && !spans.empty()) {
    return BlockRate(spans, spans.size());
  }
  return Median(rates);
}

// ---------------------------------------------------------------- Tracer --

struct Tracer::Table {
  std::unordered_map<std::string_view, Summary> by_name;
};

namespace {
std::atomic<uint64_t> g_generation{1};
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), generation_(g_generation.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::Table* Tracer::Local() {
  // Keyed by generation, not address, so a tracer reusing a dead one's
  // address never sees its tables.
  thread_local uint64_t owner = 0;
  thread_local Table* table = nullptr;
  if (owner != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(std::make_unique<Table>());
    table = tables_.back().get();
    owner = generation_;
  }
  return table;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr),
      name_(name) {
  if (tracer_ != nullptr) start_ = Now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double s = Now() - start_;
  Summary& sum = tracer_->Local()->by_name[name_];
  ++sum.count;
  sum.total_s += s;
}

Tracer::Summary Tracer::Summarize(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  for (const auto& t : tables_) {
    const auto it = t->by_name.find(name);
    if (it == t->by_name.end()) continue;
    s.count += it->second.count;
    s.total_s += it->second.total_s;
  }
  return s;
}

// ---------------------------------------------------------------- Result --

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 1e9, unit}});
}

std::string Result::Json() const {
  std::string s = "{\"correct\": ";
  s += wrong == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].second.first);
    s += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": {\"value\": " +
         buf + ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  s += "}}";
  return s;
}

void PrintConfig(const dita::DitaConfig& c, const dita::ClusterConfig& cc) {
  std::printf(
      "config: DitaConfig{build{ng=%zu trie{num_pivots=%zu align_fanout=%zu "
      "pivot_fanout=%zu leaf_capacity=%zu strategy=%d} threads=%zu "
      "random_partitioning=%d} verify{cell_size=%g threads=%zu "
      "parallel_min=%zu enable_mbr=%d enable_cell=%d enable_sketch=%d} "
      "serving{max_inflight_queries=%zu max_queued_queries=%zu "
      "max_inflight_cost=%llu stage_deadline_seconds=%g scheduler_slots=%zu "
      "scheduler_threads=%zu max_bypass=%zu merge_threshold=%zu "
      "synchronous_merge=%d max_batch_size=%zu batch_window_seconds=%g "
      "answer_cache_entries=%zu flight_recorder_entries=%zu} distance=%s "
      "distance_params{epsilon=%g delta=%d erp_gap=(%g,%g)} "
      "join_sample_rate=%g division_quantile=%g enable_tracing=%d "
      "enable_metrics=%d enable_graph_orientation=%d "
      "enable_division_balancing=%d}\n",
      c.build.ng, c.build.trie.num_pivots, c.build.trie.align_fanout,
      c.build.trie.pivot_fanout, c.build.trie.leaf_capacity,
      static_cast<int>(c.build.trie.strategy), c.build.threads,
      c.build.random_partitioning, c.verify.cell_size, c.verify.threads,
      c.verify.parallel_min, c.verify.enable_mbr, c.verify.enable_cell,
      c.verify.enable_sketch, c.serving.max_inflight_queries,
      c.serving.max_queued_queries,
      static_cast<unsigned long long>(c.serving.max_inflight_cost),
      c.serving.stage_deadline_seconds, c.serving.scheduler_slots,
      c.serving.scheduler_threads, c.serving.max_bypass,
      c.serving.merge_threshold, c.serving.synchronous_merge,
      c.serving.max_batch_size, c.serving.batch_window_seconds,
      c.serving.answer_cache_entries, c.serving.flight_recorder_entries,
      dita::DistanceTypeName(c.distance), c.distance_params.epsilon,
      c.distance_params.delta, c.distance_params.erp_gap.x,
      c.distance_params.erp_gap.y, c.join_sample_rate, c.division_quantile,
      c.enable_tracing, c.enable_metrics, c.enable_graph_orientation,
      c.enable_division_balancing);
  std::printf(
      "config: ClusterConfig{num_workers=%zu bandwidth_bytes_per_sec=%g "
      "execution_threads=%zu max_task_attempts=%zu retry_backoff_seconds=%g "
      "retry_backoff_cap_seconds=%g speculation_multiplier=%g}\n",
      cc.num_workers, cc.bandwidth_bytes_per_sec, cc.execution_threads,
      cc.max_task_attempts, cc.retry_backoff_seconds,
      cc.retry_backoff_cap_seconds, cc.speculation_multiplier);
}

void Die(const std::string& msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

double MedianSetupSeconds(int reps, Tracer* tracer, const char* span,
                          const std::function<void()>& make,
                          const std::function<dita::Status()>& start) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    make();
    const double t0 = Now();
    dita::Status st;
    {
      Tracer::Scope s(tracer, span);
      st = start();
    }
    seconds.push_back(Now() - t0);
    if (!st.ok()) Die(std::string(span) + ": " + st.ToString());
  }
  return Median(seconds);
}

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"serving.queue_ms", "ms"},
      {"serving.admission_ms", "ms"},
      {"serving.pin_ms", "ms"},
      {"serving.base_ms", "ms"},
      {"serving.delta_ms", "ms"},
      {"serving.overhead_ms", "ms"},
      {"serving.delta_backlog_max", "count"},
      {"serving.merges", "count"},
      {"serving.merge_s", "s"},
      {"serving.insert_ms", "ms"},
      {"serving.cache_hit_ratio", "ratio"},
      {"serving.cache_lookups", "count"},
      {"core.build_s", "s"},
      {"core.partitions_per_query", "count"},
      {"core.knn_ms", "ms"},
      {"core.knn_candidates_per_query", "count"},
      {"core.join_graph_edges", "count"},
      {"core.join_bytes_shipped", "B"},
      {"core.join_divided_partitions", "count"},
      {"core.verify_pairs", "count"},
      {"core.verify_sketch_pruned_frac", "ratio"},
      {"core.verify_mbr_pruned_frac", "ratio"},
      {"core.verify_cell_pruned_frac", "ratio"},
      {"core.verify_accept_ratio", "ratio"},
      {"core.verify_dp_cells", "count"},
      {"core.verify_batch_us", "us"},
      {"index.global_probe_us", "us"},
      {"index.trie_collect_us", "us"},
      {"index.trie_candidates_per_query", "count"},
      {"index.partition_s", "s"},
      {"index.trie_build_s", "s"},
      {"distance.dp_ns_per_cell", "ns"},
      {"distance.exact_ns_per_pair", "ns"},
      {"cluster.makespan_s", "s"},
      {"cluster.load_ratio", "ratio"},
      {"obs.trace_overhead_pct", "%"},
      {"harness.knn_p99_ms", "ms"},
      {"harness.late_ms_p99", "ms"},
      {"harness.read_p50_ms", "ms"},
      {"harness.read_p95_ms", "ms"},
      {"harness.open_search_p99_ms", "ms"},
      {"harness.open_knn_p99_ms", "ms"},
      {"harness.replay_queries", "count"},
      {"harness.replay_mismatches", "count"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values, Result* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    out->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : PerLayerMetrics()) known |= name == m.first;
    if (!known) Die("per-layer metric not declared: " + name);
  }
}

std::vector<dita::Trajectory> BeijingTrips(size_t n) {
  dita::GeneratorConfig gen;
  gen.cardinality = n;
  gen.region = dita::MBR(dita::Point{116.0, 39.6}, dita::Point{116.8, 40.2});
  gen.avg_len = 22.0;
  gen.min_len = 7;
  gen.max_len = 112;
  gen.seed = 42;  // GenerateBeijingLike's default seed
  return std::move(dita::GenerateTaxiDataset(gen).mutable_trajectories());
}

void EmitEndToEnd(const EndToEnd& e, Result* out) {
  out->Metric("setup_s", e.setup_s, "s");
  out->Metric("ops_per_s", e.ops_per_s, "1/s");
  out->Metric("main_p50_ms", e.main_p50_ms, "ms");
  out->Metric("main_p99_ms", e.main_p99_ms, "ms");
  out->Metric("side_p50_ms", e.side_p50_ms, "ms");
  out->Metric("side_p95_ms", e.side_p95_ms, "ms");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void PhaseSums::Add(const dita::obs::RequestRecord& r) {
  queue += r.queue_seconds;
  admission += r.admission_seconds;
  pin += r.pin_seconds;
  base += r.base_seconds;
  delta += r.delta_seconds;
  ++n;
}

void PhaseSums::Merge(const PhaseSums& o) {
  queue += o.queue;
  admission += o.admission;
  pin += o.pin;
  base += o.base;
  delta += o.delta;
  n += o.n;
}

void PhaseSums::Emit(std::map<std::string, double>* m) const {
  const double k = n == 0 ? 0.0 : 1e3 / static_cast<double>(n);
  (*m)["serving.queue_ms"] = queue * k;
  (*m)["serving.admission_ms"] = admission * k;
  (*m)["serving.pin_ms"] = pin * k;
  (*m)["serving.base_ms"] = base * k;
  (*m)["serving.delta_ms"] = delta * k;
}

void VerifyMetrics(const dita::VerifyStats& v, size_t requests,
                   std::map<std::string, double>* m) {
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double pairs = static_cast<double>(v.pairs);
  (*m)["core.verify_pairs"] = ratio(pairs, static_cast<double>(requests));
  (*m)["core.verify_sketch_pruned_frac"] = ratio(v.pruned_by_sketch, pairs);
  (*m)["core.verify_mbr_pruned_frac"] = ratio(v.pruned_by_mbr, pairs);
  (*m)["core.verify_cell_pruned_frac"] = ratio(v.pruned_by_cell, pairs);
  (*m)["core.verify_accept_ratio"] = ratio(v.accepted, v.dp_computed);
  (*m)["core.verify_dp_cells"] =
      ratio(static_cast<double>(v.dp_cells), static_cast<double>(requests));
}

std::vector<Arrival> PoissonSchedule(double rate, double duration,
                                     size_t items,
                                     const std::vector<double>& weights,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<size_t> uniform(0, items - 1);
  std::discrete_distribution<size_t> weighted(weights.begin(), weights.end());
  std::vector<Arrival> out;
  for (double t = gap(rng); t < duration; t += gap(rng)) {
    const size_t item = weights.empty() ? uniform(rng) : weighted(rng);
    out.push_back({t, static_cast<uint32_t>(item)});
  }
  return out;
}

std::vector<double> RunOpenLoop(
    const std::vector<Arrival>& arrivals, size_t threads,
    const std::function<void(size_t, size_t, double)>& send) {
  std::vector<double> late(arrivals.size(), 0.0);
  std::atomic<size_t> next{0};
  const double t0 = Now() + 0.01;
  std::vector<std::thread> pool;
  for (size_t th = 0; th < threads; ++th) {
    pool.emplace_back([&, th] {
      for (size_t i = next.fetch_add(1); i < arrivals.size();
           i = next.fetch_add(1)) {
        const double due = t0 + arrivals[i].at;
        SleepUntil(due);
        late[i] = (Now() - due) * 1e3;
        send(th, i, due);
      }
    });
  }
  for (auto& t : pool) t.join();
  return late;
}

double RunClosedLoop(size_t threads, double duration,
                     const std::function<void(size_t)>& step) {
  const double t0 = Now();
  const double stop = t0 + duration;
  std::vector<std::thread> pool;
  for (size_t th = 0; th < threads; ++th) {
    pool.emplace_back([&, th] {
      while (Now() < stop) step(th);
    });
  }
  for (auto& t : pool) t.join();
  return Now() - t0;
}

}  // namespace perfbench
