// Policy behaviour on immutable targets: moves copy, copies commute,
// nothing conflicts, nobody blocks.
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

ObjectId make_static(MigrationFixture& f, NodeId home) {
  return f.registry.create("static", home, 1.0, /*mobile=*/true,
                           /*immutable=*/true);
}

TEST(ImmutablePolicyTest, ConventionalMoveCreatesCopy) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Conventional, f.manager);
  const ObjectId o = make_static(f, f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  // Primary stays, a copy appears at the caller.
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_TRUE(f.registry.has_replica(o, f.node(2)));
  EXPECT_EQ(f.registry.migrations(), 0u);
  EXPECT_EQ(f.registry.replications(), 1u);
  EXPECT_DOUBLE_EQ(blk.migration_cost, 7.0);  // request + copy transfer
}

TEST(ImmutablePolicyTest, PlacementNeverRefusesStaticObjects) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = make_static(f, f.node(0));
  MoveBlock a = f.manager.new_block(f.node(1), o);
  MoveBlock b = f.manager.new_block(f.node(2), o);
  // Both start immediately: copies commute, nobody is refused or locked.
  f.engine.spawn(run_block(*policy, a));
  f.engine.spawn(run_block(*policy, b));
  f.engine.run();
  EXPECT_TRUE(f.registry.has_replica(o, f.node(1)));
  EXPECT_TRUE(f.registry.has_replica(o, f.node(2)));
  EXPECT_FALSE(f.manager.protocol().is_locked(o));
  policy->end_block(a);
  policy->end_block(b);  // no lock bookkeeping to trip over
}

TEST(ImmutablePolicyTest, SecondCopyToSameNodeIsFree) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Conventional, f.manager);
  const ObjectId o = make_static(f, f.node(0));
  MoveBlock first = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, first));
  f.engine.run();
  MoveBlock second = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, second));
  f.engine.run();
  EXPECT_DOUBLE_EQ(second.migration_cost, 1.0);  // request only: copy exists
  EXPECT_EQ(f.registry.replications(), 1u);
}

TEST(ImmutablePolicyTest, CompareNodesCopiesWithoutBookkeeping) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::CompareNodes, f.manager);
  const ObjectId o = make_static(f, f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_TRUE(f.registry.has_replica(o, f.node(2)));
  EXPECT_EQ(f.manager.protocol().open_moves(o, f.node(2)), 0);  // not counted
  policy->end_block(blk);                            // must not throw
}

TEST(ImmutablePolicyTest, FixedStaticObjectIsNotCopied) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Conventional, f.manager);
  const ObjectId o = make_static(f, f.node(0));
  f.registry.fix(o);
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_FALSE(f.registry.has_replica(o, f.node(2)));
  EXPECT_EQ(f.registry.replications(), 0u);
}

TEST(ImmutablePolicyTest, MixedClusterMovesAndCopies) {
  // An immutable manual attached to a mutable index: the move() relocates
  // the index and copies the manual.
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Conventional, f.manager);
  const ObjectId manual = make_static(f, f.node(0));
  const ObjectId index = f.registry.create("index", f.node(0));
  f.attachments.attach(index, manual);
  MoveBlock blk = f.manager.new_block(f.node(3), index);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(index), f.node(3));
  EXPECT_EQ(f.registry.location(manual), f.node(0));  // primary unmoved
  EXPECT_TRUE(f.registry.has_replica(manual, f.node(3)));
}

}  // namespace
}  // namespace omig::migration
