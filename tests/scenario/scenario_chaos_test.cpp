// Scenario traffic under fault injection: a fixed-seed fault schedule
// (drops, dups, a mid-run crash with restart) replayed under the cache and
// game scenarios must complete, observe the crash — in the sharded
// directory too — and stay deterministic.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "fault/fault_plan.hpp"
#include "obs/families.hpp"

namespace omig::scenario {
namespace {

core::ExperimentConfig chaotic_config(const std::string& name,
                                      std::uint64_t fault_seed) {
  core::ExperimentConfig cfg;
  cfg.scenario.name = name;
  cfg.scenario.nodes = 4;
  cfg.scenario.sources = 6;
  cfg.scenario.objects = 24;
  cfg.scenario.rate = 0.1;
  cfg.stopping.relative_target = 0.2;
  cfg.stopping.min_observations = 150;
  cfg.stopping.max_observations = 600;
  cfg.fault_plan = fault::parse_plan_text(
      "seed " + std::to_string(fault_seed) +
      "\ndrop * * 0.05\ndup * * 0.02\ncrash 2 80 40\n");
  return cfg;
}

TEST(ScenarioChaosTest, ScenariosSurviveCrashAndLinkFaults) {
  for (const char* name : {"cache", "game"}) {
    SCOPED_TRACE(name);
    const core::ExperimentResult r =
        core::run_experiment(chaotic_config(name, 11));
    EXPECT_GT(r.scenario_bursts, 0u);
    EXPECT_GT(r.scenario_ops, 0u);
    EXPECT_EQ(r.node_crashes, 1u);
    EXPECT_EQ(r.node_restarts, 1u);
    EXPECT_GT(r.fault_retries, 0u);
  }
}

TEST(ScenarioChaosTest, ChaoticRunsAreDeterministic) {
  const core::ExperimentConfig cfg = chaotic_config("cache", 23);
  const core::ExperimentResult a = core::run_experiment(cfg);
  const core::ExperimentResult b = core::run_experiment(cfg);
  EXPECT_EQ(a.scenario_ops, b.scenario_ops);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.total_per_call, b.total_per_call);
}

TEST(ScenarioChaosTest, CrashesReachTheShardedDirectory) {
  core::ExperimentConfig cfg = chaotic_config("cache", 23);
  cfg.directory = objsys::DirectoryKind::Sharded;
  // Lookups the directory answered knowing a node was down: the crashed
  // owner's slice is bypassed for the authoritative map, or the host's
  // objects stay unresolved until it restarts.
  const obs::DirMetrics& dir = obs::dir_metrics();
  const auto down_answers = [&] {
    return dir.fallbacks->value() + dir.unresolved->value();
  };
  const auto run = [&](std::uint64_t& answers, std::uint64_t& updates) {
    const std::uint64_t answers_before = down_answers();
    const std::uint64_t updates_before = dir.updates->value();
    const core::ExperimentResult r = core::run_experiment(cfg);
    answers = down_answers() - answers_before;
    updates = dir.updates->value() - updates_before;
    return r;
  };
  std::uint64_t answers_a = 0, updates_a = 0, answers_b = 0, updates_b = 0;
  const core::ExperimentResult a = run(answers_a, updates_a);
  const core::ExperimentResult b = run(answers_b, updates_b);
  EXPECT_EQ(a.node_crashes, 1u);
  EXPECT_EQ(a.node_restarts, 1u);
  EXPECT_GT(answers_a, 0u);
  EXPECT_GT(updates_a, 0u);
  // One seed, one run: the crash's directory traffic is deterministic.
  EXPECT_EQ(answers_a, answers_b);
  EXPECT_EQ(updates_a, updates_b);
  EXPECT_EQ(a.scenario_ops, b.scenario_ops);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.total_per_call, b.total_per_call);
}

}  // namespace
}  // namespace omig::scenario
