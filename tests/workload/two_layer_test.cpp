#include "workload/two_layer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace omig::workload {
namespace {

using migration::MoveBlock;

class CountingObserver final : public BlockObserver {
public:
  CountingObserver(sim::Engine& engine, std::size_t quota)
      : engine_{&engine}, quota_{quota} {}
  void on_block(const MoveBlock& blk) override {
    blocks.push_back(blk);
    if (blocks.size() >= quota_) engine_->request_stop();
  }
  void on_background_migration(double cost) override { background += cost; }
  std::vector<MoveBlock> blocks;
  double background = 0.0;

private:
  sim::Engine* engine_;
  std::size_t quota_;
};

WorkloadParams fig17_params(int clients) {
  WorkloadParams p;
  p.nodes = 24;
  p.clients = clients;
  p.servers1 = 6;
  p.servers2 = 6;
  p.mean_calls = 6.0;
  p.working_set_size = 2;
  return p;
}

struct Fixture {
  Fixture(migration::PolicyKind kind, migration::AttachTransitivity trans,
          int clients = 4)
      : params{fig17_params(clients)},
        mesh{static_cast<std::size_t>(params.nodes)},
        latency{mesh, net::LatencyMode::Uniform, 1.0},
        registry{engine, static_cast<std::size_t>(params.nodes)},
        invoker{engine, registry, latency, net_rng},
        manager{engine, registry, latency, mgr_rng, attachments, alliances,
                migration::ManagerOptions{params.migration_duration, trans,
                                          migration::ClusterTransfer::
                                              Parallel}},
        policy{migration::make_policy(kind, manager)},
        observer{engine, 150} {}

  WorkloadParams params;
  sim::Engine engine;
  net::FullMesh mesh;
  net::LatencyModel latency;
  objsys::ObjectRegistry registry;
  sim::Rng net_rng{23, 0};
  sim::Rng mgr_rng{23, 1};
  objsys::Invoker invoker;
  migration::AttachmentGraph attachments;
  migration::AllianceRegistry alliances;
  migration::MigrationManager manager;
  std::unique_ptr<migration::MigrationPolicy> policy;
  CountingObserver observer;
};

TEST(TwoLayerTest, BuildCreatesBothLayersAndAlliances) {
  Fixture f{migration::PolicyKind::Sedentary,
            migration::AttachTransitivity::Unrestricted};
  const TwoLayerWorkload w = build_two_layer(f.registry, f.attachments,
                                             f.alliances, f.params);
  EXPECT_EQ(w.servers1.size(), 6u);
  EXPECT_EQ(w.servers2.size(), 6u);
  EXPECT_EQ(w.alliances.size(), 6u);
  EXPECT_EQ(f.alliances.count(), 6u);
  // Each alliance holds its S1 server plus its working set.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(f.alliances.members(w.alliances[i]).size(), 3u);
    EXPECT_TRUE(f.alliances.is_member(w.alliances[i], w.servers1[i]));
  }
}

TEST(TwoLayerTest, RingOverlapMakesOneComponent) {
  Fixture f{migration::PolicyKind::Sedentary,
            migration::AttachTransitivity::Unrestricted};
  const TwoLayerWorkload w = build_two_layer(f.registry, f.attachments,
                                             f.alliances, f.params);
  // The Figure-7 worst case: the unrestricted closure of any first-layer
  // server is the whole 12-object population.
  EXPECT_EQ(f.attachments.closure(w.servers1[0]).size(), 12u);
  // The A-transitive closure is just the alliance's working set.
  EXPECT_EQ(f.attachments.closure_in(w.servers1[0], w.alliances[0]).size(),
            3u);
}

TEST(TwoLayerTest, WorkingSetsOverlapByOne) {
  Fixture f{migration::PolicyKind::Sedentary,
            migration::AttachTransitivity::Unrestricted};
  const TwoLayerWorkload w = build_two_layer(f.registry, f.attachments,
                                             f.alliances, f.params);
  // WS_i = {S2_i, S2_{i+1}}: consecutive working sets share one member.
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& a = w.working_sets[i];
    const auto& b = w.working_sets[(i + 1) % 6];
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[1], b[0]);
  }
}

TEST(TwoLayerTest, BuildRejectsOneLayerParams) {
  Fixture f{migration::PolicyKind::Sedentary,
            migration::AttachTransitivity::Unrestricted};
  WorkloadParams p = f.params;
  p.servers2 = 0;
  EXPECT_THROW(build_two_layer(f.registry, f.attachments, f.alliances, p),
               omig::AssertionError);
}

TEST(TwoLayerTest, SedentaryBaselineRuns) {
  Fixture f{migration::PolicyKind::Sedentary,
            migration::AttachTransitivity::Unrestricted};
  spawn_two_layer(f.engine, f.registry, f.manager, *f.policy, f.invoker,
                  f.observer, f.params, 7);
  f.engine.run_until(1e7);
  ASSERT_GE(f.observer.blocks.size(), 150u);
  EXPECT_EQ(f.registry.migrations(), 0u);
  // Two remote hops per call: durations are strictly positive on average.
  double calls = 0.0, time = 0.0;
  for (const auto& blk : f.observer.blocks) {
    calls += blk.calls;
    time += blk.call_time;
  }
  EXPECT_GT(time / calls, 1.0);
}

TEST(TwoLayerTest, UnrestrictedMigrationDragsWholeComponent) {
  Fixture f{migration::PolicyKind::Conventional,
            migration::AttachTransitivity::Unrestricted};
  spawn_two_layer(f.engine, f.registry, f.manager, *f.policy, f.invoker,
                  f.observer, f.params, 7);
  f.engine.run_until(1e7);
  ASSERT_FALSE(f.observer.blocks.empty());
  // At least one block must have dragged the full 12-object component.
  std::size_t biggest = 0;
  for (const auto& blk : f.observer.blocks) {
    biggest = std::max(biggest, blk.moved.size());
  }
  EXPECT_EQ(biggest, 12u);
}

TEST(TwoLayerTest, ATransitiveMigrationMovesOnlyWorkingSet) {
  Fixture f{migration::PolicyKind::Conventional,
            migration::AttachTransitivity::ATransitive};
  spawn_two_layer(f.engine, f.registry, f.manager, *f.policy, f.invoker,
                  f.observer, f.params, 7);
  f.engine.run_until(1e7);
  ASSERT_FALSE(f.observer.blocks.empty());
  for (const auto& blk : f.observer.blocks) {
    EXPECT_LE(blk.moved.size(), 3u);  // S1 + its two S2 servers at most
  }
}

TEST(TwoLayerTest, PlacementKeepsClustersDisjoint) {
  Fixture f{migration::PolicyKind::Placement,
            migration::AttachTransitivity::ATransitive};
  spawn_two_layer(f.engine, f.registry, f.manager, *f.policy, f.invoker,
                  f.observer, f.params, 7);
  f.engine.run_until(1e7);
  ASSERT_FALSE(f.observer.blocks.empty());
  for (const auto& blk : f.observer.blocks) {
    EXPECT_LE(blk.locked.size(), 3u);
  }
  // Only blocks still open when the engine stopped may hold locks: at most
  // one cluster (3 objects) per client.
  EXPECT_LE(f.manager.protocol().locked_count(), 3u * 4u);
}

}  // namespace
}  // namespace omig::workload
