// The benchmark's own tests: the percentile rule, and that the bench's
// scenario replay issues exactly what scenario::run_live_scenario issues.
#include <gtest/gtest.h>

#include <numeric>

#include "bench.hpp"
#include "runtime/demo_types.hpp"
#include "scenario/live_driver.hpp"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Quantile, NeedsTenSamplesBeyondIt) {
  std::vector<double> thousand = one_to(1000);
  EXPECT_EQ(perfbench::quantile(thousand, 0.99), 990.0);
  std::vector<double> short_tail = one_to(999);
  EXPECT_FALSE(perfbench::quantile(short_tail, 0.99).has_value());

  std::vector<double> twenty = one_to(20);
  EXPECT_EQ(perfbench::quantile(twenty, 0.5), 10.0);
  std::vector<double> nineteen = one_to(19);
  EXPECT_FALSE(perfbench::quantile(nineteen, 0.5).has_value());

  std::vector<double> none;
  EXPECT_FALSE(perfbench::quantile(none, 0.5).has_value());
}

TEST(Quantile, WindowedTakesTheMedianGroup) {
  // Ten windows of 500 samples: each group of two windows has a p99, and
  // the reported value is the median group's.
  perfbench::Windows windows(10);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    windows[w] = {500, one_to(500)};
    for (double& v : windows[w].kept) v += 1000.0 * static_cast<double>(w / 2);
  }
  EXPECT_EQ(perfbench::windowed_quantile(windows, 0.99), 2000.0 + 495.0);

  // Groups too small for a p99 fall back to all samples together...
  perfbench::Windows small(10, {120, one_to(120)});
  EXPECT_EQ(perfbench::windowed_quantile(small, 0.99), 119.0);
  // ...which is refused in turn when it has fewer than ten beyond it.
  perfbench::Windows tiny(10, {99, one_to(99)});
  EXPECT_FALSE(perfbench::windowed_quantile(tiny, 0.99).has_value());
}

TEST(Window, ReservoirCountsEverySampleAndKeepsABoundedShare) {
  perfbench::Lane lane;
  const auto start = perfbench::Clock::now();
  lane.start_windows(start, std::chrono::seconds(10));
  for (int i = 0; i < 10000; ++i) lane.record_burst(start, start);
  EXPECT_EQ(lane.bursts, 10000u);
  EXPECT_EQ(lane.burst_us[0].seen, 10000u);
  EXPECT_EQ(lane.burst_us[0].kept.size(), perfbench::kReservoir);
  // Past the last window nothing is kept, but the burst still counts.
  lane.record_burst(start, start + std::chrono::seconds(11));
  EXPECT_EQ(lane.bursts, 10001u);
  EXPECT_EQ(lane.burst_us[9].seen, 0u);
}

TEST(Quantile, SortsUnorderedSamples) {
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(perfbench::quantile(v, 0.5), 50.0);
}

struct Issued {
  std::uint64_t ops = 0;
  std::uint64_t blocks = 0;
};

std::unique_ptr<omig::runtime::LiveSystem> started_system() {
  omig::runtime::LiveSystem::Options options;
  options.nodes = 4;
  auto system = std::make_unique<omig::runtime::LiveSystem>(options);
  omig::runtime::register_demo_types(*system);
  system->start();
  return system;
}

Issued scenario_run_issues(const std::string& scenario,
                           int bursts_per_source) {
  const auto scen =
      omig::scenario::make_scenario(perfbench::scenario_options(scenario));
  auto system = started_system();
  omig::scenario::LiveScenarioOptions options;
  options.bursts_per_source = bursts_per_source;
  options.threads = 4;
  options.seed = 1;
  const auto result =
      omig::scenario::run_live_scenario(*system, *scen, options);
  EXPECT_EQ(result.failures, 0u);
  return {result.ops, result.moves + result.visits};
}

Issued bench_issues(const std::string& scenario, int bursts_per_source) {
  const auto scen =
      omig::scenario::make_scenario(perfbench::scenario_options(scenario));
  auto system = started_system();
  const auto& pop = scen->population();
  for (const auto& spec : pop.objects) {
    system->create(spec.name,
                   omig::runtime::make_state("counter", {{"count", "0"}}),
                   spec.home % system->node_count());
  }
  for (const auto& edge : pop.attachments) {
    system->attach(pop.objects[edge.a].name, pop.objects[edge.b].name,
                   edge.alliance != omig::scenario::kNone
                       ? pop.alliances[edge.alliance]
                       : "");
  }
  perfbench::Lane lane;
  for (std::size_t s = 0; s < scen->sources(); ++s) {
    perfbench::SourceStream stream(*scen, s, 1, system->node_count());
    for (int b = 0; b < bursts_per_source; ++b) {
      const auto& burst = stream.next();
      perfbench::run_burst(*system, pop, burst, stream.origin(), lane);
    }
  }
  EXPECT_EQ(lane.failures, 0u);
  return {lane.invokes, lane.blocks};
}

TEST(Replay, SocialMatchesRunLiveScenario) {
  const Issued reference = scenario_run_issues("social", 200);
  const Issued bench = bench_issues("social", 200);
  EXPECT_EQ(reference.ops, 6371u);
  EXPECT_EQ(bench.ops, reference.ops);
  EXPECT_EQ(bench.blocks, reference.blocks);
}

TEST(Replay, CacheMatchesRunLiveScenario) {
  const Issued reference = scenario_run_issues("cache", 5000);
  const Issued bench = bench_issues("cache", 5000);
  EXPECT_EQ(reference.ops, 45672u);
  EXPECT_EQ(bench.ops, reference.ops);
  EXPECT_EQ(bench.blocks, reference.blocks);
}

}  // namespace
