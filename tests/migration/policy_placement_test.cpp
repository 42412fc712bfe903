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

TEST(PlacementPolicyTest, UncontestedMoveBehavesConventionally) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_TRUE(blk.lock_held);
  EXPECT_TRUE(f.manager.protocol().is_locked(o));
  EXPECT_DOUBLE_EQ(blk.migration_cost, 7.0);  // request + M
}

TEST(PlacementPolicyTest, EndUnlocks) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  policy->end_block(blk);
  EXPECT_FALSE(f.manager.protocol().is_locked(o));
  EXPECT_FALSE(blk.lock_held);
  // The object stays where it is — placement never migrates on end.
  EXPECT_EQ(f.registry.location(o), f.node(2));
}

TEST(PlacementPolicyTest, ConflictingMoveIsRefused) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock first = f.manager.new_block(f.node(1), o);
  MoveBlock second = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, first));
  f.engine.spawn(run_block_after(f, *policy, 8.0, second));
  f.engine.run();
  // The object stays with the first mover; the second got an indication.
  EXPECT_EQ(f.registry.location(o), f.node(1));
  EXPECT_TRUE(first.lock_held);
  EXPECT_FALSE(second.lock_held);
  EXPECT_TRUE(second.moved.empty());
  // Second block paid only its request message, no migration.
  EXPECT_DOUBLE_EQ(second.migration_cost, 1.0);
  EXPECT_EQ(f.registry.migrations(), 1u);
}

TEST(PlacementPolicyTest, IgnoredEndOfRefusedMoveIsHarmless) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock first = f.manager.new_block(f.node(1), o);
  MoveBlock second = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, first));
  f.engine.spawn(run_block_after(f, *policy, 8.0, second));
  f.engine.run();
  policy->end_block(second);           // "the end-request is simply ignored"
  EXPECT_TRUE(f.manager.protocol().is_locked(o));  // first's lock is untouched
  policy->end_block(first);
  EXPECT_FALSE(f.manager.protocol().is_locked(o));
}

TEST(PlacementPolicyTest, NextMoverWinsAfterUnlock) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock first = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, first));
  f.engine.run();
  policy->end_block(first);
  MoveBlock second = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, second));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_TRUE(second.lock_held);
}

TEST(PlacementPolicyTest, FixedObjectRefused) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  f.registry.fix(o);
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_FALSE(blk.lock_held);
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_DOUBLE_EQ(blk.migration_cost, 1.0);  // request message only
}

TEST(PlacementPolicyTest, SedentaryTypeRefused) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId o =
      f.registry.create("o", f.node(0), /*size=*/1.0, /*mobile=*/false);
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_FALSE(blk.lock_held);
  EXPECT_EQ(f.registry.location(o), f.node(0));
}

TEST(PlacementPolicyTest, PartialClusterMoveOnContestedMembers) {
  // Two alliances share a second-layer object; the second mover moves its
  // cluster minus the member the first mover holds.
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId s1a = f.registry.create("s1a", f.node(0));
  const ObjectId s1b = f.registry.create("s1b", f.node(0));
  const ObjectId shared = f.registry.create("shared", f.node(0));
  f.attachments.attach(s1a, shared);
  f.attachments.attach(s1b, shared);
  // First mover locks the closure of s1a — which, unrestricted, includes
  // everything; use disjoint targets to exercise partial locking instead.
  MoveBlock first = f.manager.new_block(f.node(1), s1a);
  f.engine.spawn(run_block(*policy, first));
  f.engine.run();
  // Everything (s1a, s1b, shared) is at node 1 and locked by `first`.
  EXPECT_EQ(f.registry.location(s1b), f.node(1));
  // Second mover targets s1b: the primary is locked, so it is refused
  // outright — even though it "owns" s1b in its own mental model. This is
  // exactly the paper's conflicting-policies situation.
  MoveBlock second = f.manager.new_block(f.node(2), s1b);
  f.engine.spawn(run_block(*policy, second));
  f.engine.run();
  EXPECT_FALSE(second.lock_held);
  EXPECT_EQ(f.registry.location(s1b), f.node(1));
}

TEST(PlacementPolicyTest, LockedPrimaryButFreeMembersPartialMove) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Placement, f.manager);
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(0));
  const ObjectId c = f.registry.create("c", f.node(0));
  f.attachments.attach(a, b);
  // Pre-lock b under an unrelated block: a's move locks a and c only... but
  // b is in a's closure, so the move of a still happens with b left behind.
  f.attachments.attach(a, c);
  const MoveBlock other = f.manager.new_block(f.node(3), b);
  ASSERT_TRUE(f.manager.protocol().try_lock(b, other.id));
  MoveBlock blk = f.manager.new_block(f.node(2), a);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_TRUE(blk.lock_held);
  EXPECT_EQ(f.registry.location(a), f.node(2));
  EXPECT_EQ(f.registry.location(c), f.node(2));
  EXPECT_EQ(f.registry.location(b), f.node(0));  // left behind
  ASSERT_EQ(blk.locked.size(), 2u);
}

}  // namespace
}  // namespace omig::migration
