// Shared pieces of the repository benchmark: arguments, the span tracer the
// traced run records around calls into each layer, set-up timing, latency
// percentiles, and the result line the benchmark prints last.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "core/config.h"
#include "core/verifier.h"
#include "geom/trajectory.h"
#include "obs/lifecycle.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Seconds on the steady clock.
double Now();

/// Sleeps until steady-clock second `t`.
void SleepUntil(double t);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts `v`.
double Percentile(std::vector<double>& v, double p);

/// Median of `v`; sorts `v`.
double Median(std::vector<double>& v);

/// Latency samples of one request class, with when each was taken. A
/// failed request is recorded as +inf, so it counts as missing every
/// latency limit.
struct Latencies {
  struct Sample {
    double at = 0.0;  // steady-clock seconds
    double ms = 0.0;
  };
  std::vector<Sample> samples;
  void Add(double ms) { samples.push_back({Now(), ms}); }
  void AddFailed();
  void Merge(const Latencies& o);
  size_t size() const { return samples.size(); }
  /// The p-percentile in ms. With slices > 1 the samples are cut, in time
  /// order, into that many equal parts and the median of the parts'
  /// percentiles is returned, so one burst of interference from outside
  /// the program moves the figure less. An infinite percentile (too many
  /// failures) reads as 1e9 so the result line stays valid JSON.
  double P(double p, size_t slices = 1) const;
};

/// Start and end (steady-clock seconds) of the request with each sequence
/// number of a closed loop.
using RequestSpans = std::vector<std::pair<double, double>>;

/// Throughput of a closed loop as the median, over consecutive blocks of
/// `block` requests (by sequence number), of block / (last end - first
/// start). Partial blocks are dropped; with no full block, the rate over
/// all requests.
double BlockRate(const RequestSpans& spans, size_t block);

/// Count and summed duration, per name, of the spans the benchmark records
/// around its calls into the program's layers. Each thread adds to its own
/// table, so recording takes no lock after a thread's first span; Summarize
/// merges the tables. A disabled tracer records nothing and costs one branch
/// per scope. Names must be string literals.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    double start_ = 0.0;
  };

  /// Count and summed duration (s) of the spans named `name`. Call after
  /// every recording thread joined.
  struct Summary {
    size_t count = 0;
    double total_s = 0.0;
    double MeanMs() const { return count == 0 ? 0.0 : total_s * 1e3 / count; }
  };
  Summary Summarize(std::string_view name) const;

 private:
  struct Table;
  Table* Local();

  bool enabled_;
  uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Table>> tables_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wrong answers found by the correctness gates; any makes `correct` false.
  uint64_t wrong = 0;
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Prints the shipped configuration the run measures (all DitaConfig and
/// ClusterConfig fields).
void PrintConfig(const dita::DitaConfig& c, const dita::ClusterConfig& cc);

/// Fails the run: prints to stderr and exits non-zero without a result.
[[noreturn]] void Die(const std::string& msg);

/// Set-up time: `reps` times, calls make() and then times start() inside a
/// span named `span`. Returns the median seconds; a failed start fails the
/// run. The last set-up made stays in place for the workload to use.
double MedianSetupSeconds(int reps, Tracer* tracer, const char* span,
                          const std::function<void()>& make,
                          const std::function<dita::Status()>& start);

/// The per-layer metrics every traced run prints, in order, with units.
/// Metrics a workload does not exercise read 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

/// Fills every per-layer metric from `values` (missing names read 0).
void EmitPerLayer(const std::map<std::string, double>& values, Result* out);

/// One scheduled request of an open loop: when it is due (seconds after the
/// loop starts) and which input it sends.
struct Arrival {
  double at = 0.0;
  uint32_t item = 0;
};

/// Poisson arrivals at `rate` per second for `duration` seconds, each
/// sending item i with probability weights[i] / sum(weights) (uniform when
/// `weights` is empty).
std::vector<Arrival> PoissonSchedule(double rate, double duration,
                                     size_t items,
                                     const std::vector<double>& weights,
                                     uint64_t seed);

/// Runs an open loop: `threads` generator threads take the arrivals in
/// order, wait until each is due and call send(thread, index, due_time).
/// A request that finds every thread busy starts late; `send` times it
/// from `due_time`, so that wait counts against the program. Returns how
/// late each request started, in ms.
std::vector<double> RunOpenLoop(
    const std::vector<Arrival>& arrivals, size_t threads,
    const std::function<void(size_t thread, size_t index, double due)>& send);

/// Runs a closed loop: `threads` clients each call step(thread) back to
/// back until `duration` seconds have passed. Returns the elapsed seconds.
double RunClosedLoop(size_t threads, double duration,
                     const std::function<void(size_t thread)>& step);

/// `n` trips of one Beijing-like city: the GenerateBeijingLike preset's
/// shape and its fixed seed, so the city's hubs and routes are the same on
/// every run. Workloads split the trips into table, queries and write stream
/// by a shuffle seeded with --seed.
std::vector<dita::Trajectory> BeijingTrips(size_t n);

/// The end-to-end metrics every untraced run prints. What the "main" and
/// "side" requests are depends on the workload (see perfbench/README.md).
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double main_p50_ms = 0.0;
  double main_p99_ms = 0.0;
  double side_p50_ms = 0.0;
  double side_p95_ms = 0.0;
};

/// Prints `e` plus peak_rss_mb.
void EmitEndToEnd(const EndToEnd& e, Result* out);

/// Mean per-request serving phases read from QueryResult::serving.lifecycle.
struct PhaseSums {
  double queue = 0.0, admission = 0.0, pin = 0.0, base = 0.0, delta = 0.0;
  size_t n = 0;
  void Add(const dita::obs::RequestRecord& r);
  void Merge(const PhaseSums& o);
  /// serving.{queue,admission,pin,base,delta}_ms
  void Emit(std::map<std::string, double>* m) const;
};

/// core.verify_* from verification counters summed over `requests`.
void VerifyMetrics(const dita::VerifyStats& v, size_t requests,
                   std::map<std::string, double>* m);

void RunServeRead(const Args& args, Result* out);
void RunJoinOsm(const Args& args, Result* out);
void RunIngestMixed(const Args& args, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
