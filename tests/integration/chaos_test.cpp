// Chaos tests: fixed-seed fault schedules replayed over the paper's
// office-automation workload, against both execution backends.
//
// The headline scenario (live runtime): a node crashes while it hosts a
// move-block's objects and holds their placement locks. The lease expires,
// the locks are released in place, a later move pulls the objects off the
// dead node from their checkpoints — nothing hangs and no object is lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/live_system.hpp"

namespace omig {
namespace {

// --- live-runtime chaos ------------------------------------------------------

runtime::ObjectFactory case_file_factory() {
  return [](std::string name, runtime::ObjectState state) {
    auto obj = std::make_unique<runtime::LiveObject>(std::move(name),
                                                     std::move(state));
    obj->register_method(
        "append", [](runtime::ObjectState& self, const std::string& entry) {
          auto& log = self.fields["log"];
          log += log.empty() ? entry : ";" + entry;
          return log;
        });
    obj->register_method(
        "entries", [](runtime::ObjectState& self, const std::string&) {
          const auto& log = self.fields["log"];
          return std::to_string(
              log.empty() ? 0
                          : 1 + std::count(log.begin(), log.end(), ';'));
        });
    return obj;
  };
}

runtime::ObjectState case_file_state() {
  runtime::ObjectState s;
  s.type = "case-file";
  s.fields["log"] = "";
  return s;
}

std::unique_ptr<runtime::LiveSystem> office_system(
    runtime::LiveSystem::Options opts) {
  opts.nodes = 4;
  opts.policy = migration::PolicyKind::Placement;
  opts.a_transitive_attachments = true;
  auto sys = std::make_unique<runtime::LiveSystem>(std::move(opts));
  sys->register_type("case-file", case_file_factory());
  sys->start();
  return sys;
}

TEST(ChaosLiveTest, CrashedLockHolderLeaseExpiresObjectsRecover) {
  // The acceptance scenario, replayed under three fixed fault seeds.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    runtime::LiveSystem::Options opts;
    opts.lock_lease = std::chrono::milliseconds{60};
    opts.max_retries = 4;
    opts.retry_backoff = std::chrono::milliseconds{1};
    opts.fault_plan = fault::parse_plan_text(
        "seed " + std::to_string(seed) + "\ndrop * * 0.1\ndup * * 0.1\n");
    auto sys = office_system(std::move(opts));
    ASSERT_TRUE(sys->create("case-1", case_file_state(), 0));
    ASSERT_TRUE(sys->create("ledger", case_file_state(), 3));
    sys->attach("case-1", "ledger", "billing");

    // Billing takes the whole cluster to node 2 and holds the locks...
    auto billing = sys->move("case-1", 2, "billing");
    ASSERT_TRUE(billing.granted);
    ASSERT_EQ(sys->location("case-1"), 2u);
    ASSERT_EQ(sys->location("ledger"), 2u);
    ASSERT_TRUE(sys->invoke_from(2, "case-1", "append", "billed").ok);

    // ...then its node dies mid-block. The locks are orphaned, the hosted
    // state is gone.
    sys->crash_node(2);

    // Bounded failure, not a hang: the retry budget runs out.
    const auto down = sys->invoke("case-1", "entries", "");
    EXPECT_FALSE(down.ok);

    // A competing move while the lease is fresh is still refused.
    EXPECT_FALSE(sys->move("case-1", 1, "archive").granted);

    // Once the lease expires the dead block's locks are released in place
    // and archive's move succeeds, recovering both objects from their
    // checkpoints (the dead source cannot be evicted).
    std::this_thread::sleep_for(std::chrono::milliseconds{150});
    auto archive = sys->move("case-1", 1, "billing");
    ASSERT_TRUE(archive.granted);
    EXPECT_EQ(sys->location("case-1"), 1u);
    EXPECT_EQ(sys->location("ledger"), 1u);

    // Invocable again; no object was lost (degraded mode: the un-
    // checkpointed "billed" append died with the node).
    const auto recovered = sys->invoke("case-1", "entries", "");
    EXPECT_TRUE(recovered.ok);
    const auto ledger = sys->invoke("ledger", "entries", "");
    EXPECT_TRUE(ledger.ok);
    EXPECT_GE(sys->lease_expiries(), 1u);
    EXPECT_GE(sys->recoveries(), 2u);
    EXPECT_EQ(sys->crashes(), 1u);
    sys->end(archive);
    sys->end(billing);  // stale token from the dead block: harmless
    sys->stop();        // clean shutdown, no hang
  }
}

TEST(ChaosLiveTest, LossyOfficeWorkloadLosesNoWork) {
  // Without crashes, retransmission + dedup give exactly-once effects even
  // on heavily lossy, duplicating links — for every seed.
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    runtime::LiveSystem::Options opts;
    opts.fault_plan = fault::parse_plan_text(
        "seed " + std::to_string(seed) + "\ndrop * * 0.15\ndup * * 0.15\n");
    auto sys = office_system(std::move(opts));
    ASSERT_TRUE(sys->create("case-1", case_file_state(), 0));
    ASSERT_TRUE(sys->create("case-2", case_file_state(), 0));

    constexpr int kRounds = 10;
    std::atomic<int> failures{0};
    auto component = [&](std::size_t home, const char* tag,
                         const char* case_name) {
      for (int i = 0; i < kRounds; ++i) {
        auto token = sys->move(case_name, home, tag);
        if (!sys->invoke_from(home, case_name, "append", tag).ok) {
          failures.fetch_add(1);
        }
        sys->end(token);
      }
    };
    std::thread intake{component, 1, "intake", "case-1"};
    std::thread billing{component, 2, "billing", "case-1"};
    std::thread archive{component, 3, "archive", "case-2"};
    intake.join();
    billing.join();
    archive.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(sys->invoke("case-1", "entries", "").value,
              std::to_string(2 * kRounds));
    EXPECT_EQ(sys->invoke("case-2", "entries", "").value,
              std::to_string(kRounds));
    EXPECT_GT(sys->dropped_messages() + sys->duplicated_messages(), 0u);
  }
}

// --- simulator chaos ---------------------------------------------------------

stats::StoppingRule small_rule() {
  stats::StoppingRule rule;
  rule.relative_target = 0.10;
  rule.min_observations = 400;
  rule.max_observations = 1'200;
  return rule;
}

core::ExperimentConfig sim_base_config() {
  core::ExperimentConfig cfg;
  cfg.workload.nodes = 6;
  cfg.workload.clients = 3;
  cfg.policy = migration::PolicyKind::Placement;
  cfg.stopping = small_rule();
  return cfg;
}

void expect_same_result(const core::ExperimentResult& a,
                        const core::ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.total_per_call, b.total_per_call);
  EXPECT_DOUBLE_EQ(a.call_duration, b.call_duration);
  EXPECT_DOUBLE_EQ(a.migration_per_call, b.migration_per_call);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages);
  EXPECT_EQ(a.delayed_messages, b.delayed_messages);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.lease_expiries, b.lease_expiries);
  EXPECT_EQ(a.node_crashes, b.node_crashes);
  EXPECT_EQ(a.node_restarts, b.node_restarts);
  EXPECT_EQ(a.recoveries, b.recoveries);
}

TEST(ChaosSimTest, FaultScheduleReplaysDeterministically) {
  // Same plan + same seed => byte-identical results, for each of three
  // fixed chaos seeds.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    core::ExperimentConfig cfg = sim_base_config();
    cfg.fault_plan = fault::parse_plan_text(
        "seed " + std::to_string(seed) +
        "\ndrop * * 0.1\ndup * * 0.05\ndelay 0 * 0.5\ncrash 2 50 30\n");
    cfg.lock_lease = 40.0;
    const auto a = core::run_experiment(cfg);
    const auto b = core::run_experiment(cfg);
    expect_same_result(a, b);
    EXPECT_GT(a.dropped_messages, 0u);
    EXPECT_GT(a.fault_retries, 0u);
    EXPECT_EQ(a.node_crashes, 1u);
    EXPECT_EQ(a.node_restarts, 1u);
    EXPECT_GT(a.calls, 0u);  // the workload survived the chaos
  }
}

TEST(ChaosSimTest, DifferentFaultSeedsDiverge) {
  core::ExperimentConfig cfg = sim_base_config();
  cfg.fault_plan = fault::parse_plan_text("seed 1\ndrop * * 0.2\n");
  const auto a = core::run_experiment(cfg);
  cfg.fault_plan.seed = 99;
  const auto b = core::run_experiment(cfg);
  EXPECT_TRUE(a.dropped_messages != b.dropped_messages ||
              a.events != b.events ||
              a.total_per_call != b.total_per_call);
}

TEST(ChaosSimTest, UnmatchedPlanLeavesTrajectoryUntouched) {
  // A plan whose rules match no link that ever carries traffic must not
  // perturb the run at all: the fault machinery is installed but consumes
  // no randomness and adds no cost. (The empty-plan case is stronger still
  // — no machinery is instantiated — so this bounds both.)
  const core::ExperimentConfig base = sim_base_config();
  const auto before = core::run_experiment(base);

  core::ExperimentConfig with_plan = base;
  with_plan.fault_plan =
      fault::parse_plan_text("drop 100 101 0.9\ndelay 100 101 5\n");
  const auto after = core::run_experiment(with_plan);

  expect_same_result(before, after);
  EXPECT_EQ(after.dropped_messages, 0u);
  EXPECT_EQ(after.fault_retries, 0u);
}

TEST(ChaosSimTest, PermanentCrashDegradesButCompletes) {
  // A node that never comes back: calls to its objects poll until a
  // migration relocates them or the retry cap is hit — the run must still
  // terminate and keep serving the surviving nodes.
  core::ExperimentConfig cfg = sim_base_config();
  cfg.fault_plan = fault::parse_plan_text("crash 4 100\n");
  cfg.lock_lease = 40.0;
  const auto r = core::run_experiment(cfg);
  EXPECT_EQ(r.node_crashes, 1u);
  EXPECT_EQ(r.node_restarts, 0u);
  EXPECT_GT(r.calls, 0u);
}

}  // namespace
}  // namespace omig
