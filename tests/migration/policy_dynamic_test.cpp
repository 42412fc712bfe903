#include <gtest/gtest.h>

#include "fixture.hpp"
#include "migration/policy.hpp"

namespace omig::migration {
namespace {

using testing::MigrationFixture;
using objsys::NodeId;

sim::Task run_block(MigrationPolicy& policy, MoveBlock& blk) {
  co_await policy.begin_block(blk);
}

sim::Task run_block_after(MigrationFixture& f, MigrationPolicy& policy,
                          sim::SimTime at, MoveBlock& blk) {
  co_await f.engine.delay(at);
  co_await policy.begin_block(blk);
}

TEST(CompareNodesTest, FirstMoveMigrates) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  // Requester has 1 open move, host node has 0: migrate.
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_EQ(f.manager.protocol().open_moves(o, f.node(2)), 1);
}

TEST(CompareNodesTest, TiedCountsDoNotMigrate) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock a = f.manager.new_block(f.node(1), o);
  MoveBlock b = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, a));
  f.engine.spawn(run_block_after(f, *policy, 8.0, b));
  f.engine.run();
  // After a's move the host (node 1) has count 1; b's node also reaches 1 —
  // not strictly greater, so the object stays.
  EXPECT_EQ(f.registry.location(o), f.node(1));
}

TEST(CompareNodesTest, MajorityStealsMidBlock) {
  // "…may lead to a migration at some point later if further move-requests
  // are issued at the same node."
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock a = f.manager.new_block(f.node(1), o);
  MoveBlock b1 = f.manager.new_block(f.node(2), o);
  MoveBlock b2 = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, a));
  f.engine.spawn(run_block_after(f, *policy, 8.0, b1));
  f.engine.spawn(run_block_after(f, *policy, 9.0, b2));
  f.engine.run();
  // Node 2 reaches 2 open moves > node 1's single one: the object moved
  // even though a's block is still open.
  EXPECT_EQ(f.registry.location(o), f.node(2));
}

TEST(CompareNodesTest, EndDecrementsCounts) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  policy->end_block(blk);
  EXPECT_EQ(f.manager.protocol().open_moves(o, f.node(2)), 0);
  // No reinstantiation in the plain comparing policy: stays at node 2.
  EXPECT_EQ(f.registry.location(o), f.node(2));
}

TEST(CompareNodesTest, FixedObjectRefused) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  f.registry.fix(o);
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  policy->end_block(blk);  // count bookkeeping must still balance
  EXPECT_EQ(f.manager.protocol().open_moves(o, f.node(2)), 0);
}

TEST(CompareReinstantiateTest, EndMigratesToMajorityHolder) {
  ManagerOptions opts;
  opts.clear_majority_minimum = 1;  // make a single open move decisive
  MigrationFixture f{4, opts};
  auto policy = make_policy(PolicyKind::CompareReinstantiate, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  // a wins the object to node 1.
  MoveBlock a = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, a));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(1));
  // One open move from node 2 (refused: tie).
  MoveBlock b = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, b));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(1));
  // a ends: node 2 now holds a clear majority (1 vs 0) → reinstantiate.
  policy->end_block(a);
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
}

TEST(CompareReinstantiateTest, NoMigrationWithoutClearMajority) {
  ManagerOptions opts;
  opts.clear_majority_minimum = 1;
  MigrationFixture f{4, opts};
  auto policy = make_policy(PolicyKind::CompareReinstantiate, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock a = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, a));
  f.engine.run();
  policy->end_block(a);  // no other open moves at all
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(1));
  EXPECT_EQ(f.registry.migrations(), 1u);
}

TEST(CompareReinstantiateTest, BackgroundCostIsAccounted) {
  ManagerOptions opts;
  opts.clear_majority_minimum = 1;
  MigrationFixture f{4, opts};
  double background = 0.0;
  f.manager.set_background_cost_sink([&](double c) { background += c; });
  auto policy = make_policy(PolicyKind::CompareReinstantiate, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock a = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, a));
  f.engine.run();
  MoveBlock b = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, b));
  f.engine.run();
  policy->end_block(a);
  f.engine.run();
  EXPECT_DOUBLE_EQ(background, 6.0);  // the reinstantiation migration
}

TEST(SedentaryPolicyTest, NothingHappens) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Sedentary, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_DOUBLE_EQ(blk.migration_cost, 0.0);
  EXPECT_DOUBLE_EQ(f.engine.now(), 0.0);
  policy->end_block(blk);
  EXPECT_EQ(f.registry.migrations(), 0u);
}

TEST(PolicyFactoryTest, CoversAllKinds) {
  MigrationFixture f;
  for (auto kind :
       {PolicyKind::Sedentary, PolicyKind::Conventional,
        PolicyKind::Placement, PolicyKind::CompareNodes,
        PolicyKind::CompareReinstantiate, PolicyKind::LoadShare}) {
    auto policy = make_policy(kind, f.manager);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_FALSE(to_string(kind).empty());
  }
}

}  // namespace
}  // namespace omig::migration
