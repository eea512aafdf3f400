// Cooperative cancellation, deadlines, resource budgets, and the admission
// gate. The load-bearing invariant everywhere: a query stopped mid-flight
// degrades gracefully — it returns OK with a *subset* of the unconstrained
// answer, tags QueryStats::termination / completeness, and its filter
// funnel still balances (monotone, final level == returned count).

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/engine.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset CityDataset(size_t n, uint64_t seed) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.avg_len = 16;
  cfg.min_len = 4;
  cfg.max_len = 50;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

DitaConfig SmallConfig() {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.align_fanout = 8;
  config.build.trie.pivot_fanout = 4;
  config.build.trie.leaf_capacity = 4;
  config.distance_params.epsilon = 0.01;
  config.verify.cell_size = 0.02;
  return config;
}

std::shared_ptr<Cluster> MakeCluster(size_t workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return std::make_shared<Cluster>(cfg);
}

template <typename T>
bool IsSubsetOf(const std::vector<T>& sub, const std::vector<T>& super) {
  const std::set<T> all(super.begin(), super.end());
  for (const T& x : sub) {
    if (all.find(x) == all.end()) return false;
  }
  return true;
}

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(200, 77);
    cluster_ = MakeCluster();
    engine_ = std::make_unique<DitaEngine>(cluster_, SmallConfig());
    ASSERT_TRUE(engine_->BuildIndex(ds_).ok());
  }

  Dataset ds_;
  std::shared_ptr<Cluster> cluster_;
  std::unique_ptr<DitaEngine> engine_;
  const double tau_ = 0.05;
};

/// An unconstrained context changes nothing: same answer as no context,
/// termination OK, completeness 1.0.
TEST_F(CancellationTest, UnconstrainedContextMatchesOracle) {
  const auto oracle = engine_->Search(ds_[3], tau_);
  ASSERT_TRUE(oracle.ok());
  QueryContext ctx;
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *oracle);
  EXPECT_TRUE(stats.termination.ok());
  EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Search under a tight candidate budget: partial subset of the oracle,
/// ResourceExhausted termination, balanced funnel.
TEST_F(CancellationTest, SearchSubsetUnderCandidateBudget) {
  const auto oracle = engine_->Search(ds_[3], tau_);
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle->empty());

  QueryContext ctx;
  ResourceBudget budget;
  budget.max_candidates = 4;
  ctx.set_budget(budget);
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kCandidateBudget);
  EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
  EXPECT_LT(stats.completeness, 1.0);
  EXPECT_TRUE(IsSubsetOf(*r, *oracle));
  EXPECT_LT(r->size(), oracle->size());
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
      << stats.funnel.ToTable();
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Search under a DP-cell budget: same degradation contract via the
/// verification charge point.
TEST_F(CancellationTest, SearchSubsetUnderDpCellBudget) {
  const auto oracle = engine_->Search(ds_[5], tau_);
  ASSERT_TRUE(oracle.ok());

  QueryContext ctx;
  ResourceBudget budget;
  budget.max_dp_cells = 64;
  ctx.set_budget(budget);
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[5], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kDpCellBudget);
  EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
  EXPECT_TRUE(IsSubsetOf(*r, *oracle));
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Mid-flight cancellations placed at many deterministic points: every
/// partial answer is a subset of the oracle, and the funnel balances at
/// every cut point.
TEST_F(CancellationTest, SearchSubsetUnderCancelAtEveryPoint) {
  const auto oracle = engine_->Search(ds_[9], tau_);
  ASSERT_TRUE(oracle.ok());

  for (uint64_t cancel_at : {1u, 64u, 256u, 1024u, 4096u, 16384u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::QueryStats stats;
    const auto r = engine_->Search(ds_[9], tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    EXPECT_TRUE(IsSubsetOf(*r, *oracle)) << "cancel_at=" << cancel_at;
    if (ctx.stopped()) {
      EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
      EXPECT_LE(stats.completeness, 1.0);
    } else {
      EXPECT_EQ(*r, *oracle);
      EXPECT_TRUE(stats.termination.ok());
    }
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
        << "cancel_at=" << cancel_at << "\n"
        << stats.funnel.ToTable();
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size())
        << "cancel_at=" << cancel_at;
  }
}

/// A context cancelled before the query starts returns an empty partial
/// result (completeness 0), still OK.
TEST_F(CancellationTest, PreCancelledContextReturnsEmptyPartial) {
  QueryContext ctx;
  ctx.Cancel();
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
  EXPECT_DOUBLE_EQ(stats.completeness, 0.0);
}

/// Virtual-time deadline: deterministic under the simulated clock — two
/// identical runs stop at the same place with the same partial answer.
TEST_F(CancellationTest, VirtualDeadlineIsDeterministic) {
  auto run = [&](std::vector<TrajectoryId>* out, DitaEngine::QueryStats* stats) {
    auto cluster = MakeCluster();
    DitaEngine engine(cluster, SmallConfig());
    ASSERT_TRUE(engine.BuildIndex(ds_).ok());
    QueryContext ctx;
    ctx.set_virtual_deadline_seconds(1e-9);
    const auto r = engine.Search(ds_[3], tau_, stats, &ctx);
    ASSERT_TRUE(r.ok());
    *out = *r;
    // The virtual deadline is observed at stage boundaries, after the search
    // stage itself ran; it stops follow-up work, not the current stage.
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kVirtualDeadline);
    EXPECT_EQ(stats->termination.code(), Status::Code::kDeadlineExceeded);
  };
  std::vector<TrajectoryId> a, b;
  DitaEngine::QueryStats sa, sb;
  run(&a, &sa);
  run(&b, &sb);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(sa.completeness, sb.completeness);
}

/// kNN under cancellation: the partial answer is a true prefix of the full
/// kNN set (the last fully-completed expansion round), completeness = found/k.
TEST_F(CancellationTest, KnnPartialIsPrefixOfFullAnswer) {
  const size_t k = 8;
  const auto full = engine_->KnnSearch(ds_[11], k);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), k);

  for (uint64_t cancel_at : {1u, 512u, 2048u, 8192u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::QueryStats stats;
    const auto r = engine_->KnnSearch(ds_[11], k, 0.0, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    if (!ctx.stopped()) {
      EXPECT_EQ(*r, *full);
      continue;
    }
    EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
    EXPECT_LE(r->size(), k);
    EXPECT_DOUBLE_EQ(stats.completeness,
                     static_cast<double>(r->size()) / static_cast<double>(k));
    // Prefix property: the i-th partial answer is the i-th full answer.
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].first, (*full)[i].first)
          << "cancel_at=" << cancel_at << " i=" << i;
      EXPECT_DOUBLE_EQ((*r)[i].second, (*full)[i].second);
    }
  }
}

/// The same contract under EDR, whose partition lower bound is 0: every
/// relevant partition may hold a neighbour at any distance, so a pass
/// stopped before it finished them all proves nothing and returns an empty
/// answer with completeness 0 — still a (trivial) prefix of the full one.
TEST_F(CancellationTest, KnnPartialIsPrefixUnderEditDistance) {
  DitaConfig config = SmallConfig();
  config.distance = DistanceType::kEDR;
  DitaEngine engine(cluster_, config);
  ASSERT_TRUE(engine.BuildIndex(ds_).ok());
  const size_t k = 8;
  const auto full = engine.KnnSearch(ds_[11], k);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), k);

  size_t stops = 0;
  for (uint64_t cancel_at : {1u, 64u, 512u, 2048u, 8192u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::QueryStats stats;
    const auto r = engine.KnnSearch(ds_[11], k, 0.0, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    if (!ctx.stopped()) {
      EXPECT_EQ(*r, *full);
      continue;
    }
    ++stops;
    EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
    EXPECT_LE(r->size(), k);
    EXPECT_DOUBLE_EQ(stats.completeness,
                     static_cast<double>(r->size()) / static_cast<double>(k));
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i], (*full)[i]) << "cancel_at=" << cancel_at << " i=" << i;
    }
  }
  EXPECT_GT(stops, 0u) << "no cancel point stopped the pass";
}

/// Join under budgets / cancellation: pairs are a subset of the full join,
/// termination is tagged, and the join funnel balances.
TEST_F(CancellationTest, JoinSubsetUnderBudgetAndCancel) {
  const auto full = engine_->Join(*engine_, tau_);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->empty());

  {
    QueryContext ctx;
    ResourceBudget budget;
    budget.max_dp_cells = 256;
    ctx.set_budget(budget);
    DitaEngine::JoinStats stats;
    const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
    EXPECT_LT(stats.completeness, 1.0);
    EXPECT_TRUE(IsSubsetOf(*r, *full));
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
        << stats.funnel.ToTable();
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
  }
  for (uint64_t cancel_at : {1u, 1024u, 16384u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::JoinStats stats;
    const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    EXPECT_TRUE(IsSubsetOf(*r, *full)) << "cancel_at=" << cancel_at;
    if (ctx.stopped()) {
      EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
    } else {
      EXPECT_EQ(*r, *full);
    }
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
  }
}

/// Join with an unconstrained context still equals the full join.
TEST_F(CancellationTest, JoinUnconstrainedContextMatchesOracle) {
  const auto full = engine_->Join(*engine_, tau_);
  ASSERT_TRUE(full.ok());
  QueryContext ctx;
  DitaEngine::JoinStats stats;
  const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *full);
  EXPECT_TRUE(stats.termination.ok());
  EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
}

// ---------------------------------------------------------------------------
// Admission gate.

TEST(AdmissionGateTest, FastPathAdmitsUpToMaxInflight) {
  AdmissionGate gate(AdmissionGate::Options{2, 0});
  AdmissionGate::Ticket t1, t2;
  EXPECT_TRUE(gate.Admit(nullptr, &t1).ok());
  EXPECT_TRUE(gate.Admit(nullptr, &t2).ok());
  EXPECT_EQ(gate.inflight(), 2u);
  // Third query with no queue capacity is shed immediately.
  AdmissionGate::Ticket t3;
  const Status s = gate.Admit(nullptr, &t3);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_FALSE(t3.held());
  EXPECT_EQ(gate.shed(), 1u);
  t1.Release();
  EXPECT_EQ(gate.inflight(), 1u);
  EXPECT_TRUE(gate.Admit(nullptr, &t3).ok());
  EXPECT_EQ(gate.admitted(), 3u);
  EXPECT_EQ(gate.inflight_high_water(), 2u);
}

TEST(AdmissionGateTest, TicketReleasesOnDestruction) {
  AdmissionGate gate(AdmissionGate::Options{1, 0});
  {
    AdmissionGate::Ticket t;
    ASSERT_TRUE(gate.Admit(nullptr, &t).ok());
    EXPECT_EQ(gate.inflight(), 1u);
  }
  EXPECT_EQ(gate.inflight(), 0u);
}

TEST(AdmissionGateTest, CancelledContextAbandonsQueue) {
  AdmissionGate gate(AdmissionGate::Options{1, 4});
  AdmissionGate::Ticket holder;
  ASSERT_TRUE(gate.Admit(nullptr, &holder).ok());
  // A queued query whose context is already stopped leaves with its own
  // status rather than waiting forever.
  QueryContext ctx;
  ctx.Cancel();
  AdmissionGate::Ticket t;
  const Status s = gate.Admit(&ctx, &t);
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_FALSE(t.held());
  EXPECT_EQ(gate.inflight(), 1u);
}

TEST(AdmissionGateTest, QueuedQueryAdmittedFifoWhenSlotFrees) {
  AdmissionGate gate(AdmissionGate::Options{1, 2});
  AdmissionGate::Ticket holder;
  ASSERT_TRUE(gate.Admit(nullptr, &holder).ok());

  std::atomic<int> admitted_order{0};
  int first_pos = 0, second_pos = 0;
  std::thread q1([&] {
    AdmissionGate::Ticket t;
    EXPECT_TRUE(gate.Admit(nullptr, &t).ok());
    first_pos = ++admitted_order;
  });
  // Wait until q1 is actually enqueued so FIFO order is observable.
  while (gate.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread q2([&] {
    AdmissionGate::Ticket t;
    EXPECT_TRUE(gate.Admit(nullptr, &t).ok());
    second_pos = ++admitted_order;
  });
  while (gate.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder.Release();
  q1.join();
  q2.join();
  EXPECT_EQ(gate.admitted(), 3u);
  EXPECT_EQ(gate.inflight(), 0u);
  EXPECT_EQ(gate.inflight_high_water(), 1u);
  EXPECT_LT(first_pos, second_pos);  // FIFO: q1 enqueued first, admitted first
}

/// Engine-level gate: concurrent queries never exceed max_inflight, and
/// every query either completes, is shed (Unavailable), or abandons the
/// queue with its own stop status.
TEST(AdmissionGateTest, EngineGateBoundsConcurrentQueries) {
  const Dataset ds = CityDataset(150, 99);
  ClusterConfig ccfg;
  ccfg.num_workers = 4;
  ccfg.execution_threads = 2;
  auto cluster = std::make_shared<Cluster>(ccfg);
  DitaConfig config = SmallConfig();
  config.serving.max_inflight_queries = 2;
  config.serving.max_queued_queries = 2;
  DitaEngine engine(cluster, config);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  constexpr size_t kThreads = 6;
  std::atomic<size_t> ok_count{0}, shed_count{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const auto r = engine.Search(ds[i * 7], 0.05);
      if (r.ok()) {
        ++ok_count;
      } else {
        EXPECT_EQ(r.status().code(), Status::Code::kUnavailable);
        ++shed_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(engine.admission_gate(), nullptr);
  EXPECT_LE(engine.admission_gate()->inflight_high_water(), 2u);
  EXPECT_EQ(engine.admission_gate()->inflight(), 0u);
  EXPECT_EQ(ok_count + shed_count, kThreads);
  EXPECT_GE(ok_count, 1u);
  EXPECT_EQ(engine.admission_gate()->admitted(), ok_count);
  EXPECT_EQ(engine.admission_gate()->shed(), shed_count);
}

/// The gate is off by default: no gate object, queries unaffected.
TEST(AdmissionGateTest, DisabledGateLeavesQueriesAlone) {
  const Dataset ds = CityDataset(80, 13);
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  EXPECT_EQ(engine.admission_gate(), nullptr);
  EXPECT_TRUE(engine.Search(ds[0], 0.05).ok());
}

}  // namespace
}  // namespace dita
