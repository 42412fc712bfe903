// Adaptive placement policy decision tests (docs/policies.md): migrate
// toward the EMA-dominant caller, but only when the margin clears the
// hysteresis band, the EMA carries enough weight, and (for the load-aware
// variant) the destination is not already overloaded.
#include <gtest/gtest.h>

#include "../migration/fixture.hpp"
#include "migration/policy.hpp"
#include "objsys/locality.hpp"
#include "util/assert.hpp"

namespace omig::migration {
namespace {

using objsys::LocalityTracker;
using objsys::NodeId;
using testing::MigrationFixture;

sim::Task run_block(MigrationPolicy& policy, MoveBlock& blk) {
  co_await policy.begin_block(blk);
}

/// Feeds `count` accesses to `o` from `caller` into the fixture's tracker.
void access(LocalityTracker& tracker, ObjectId o, NodeId caller, int count) {
  for (int i = 0; i < count; ++i) tracker.record(o, caller);
}

TEST(AdaptivePolicyTest, RequiresALocalityTracker) {
  MigrationFixture f;
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  EXPECT_THROW(f.engine.run(), AssertionError);
}

TEST(AdaptivePolicyTest, MigratesTowardTheDominantCallerNotTheRequester) {
  MigrationFixture f;
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  // Node 2 dominates the recent accesses; node 1 issues the move().
  access(tracker, o, f.node(2), 8);
  MoveBlock blk = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  // The requested destination is advisory: the object lands at node 2.
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 1u);
  EXPECT_EQ(f.manager.protocol().counters().suppressed_hysteresis, 0u);
}

TEST(AdaptivePolicyTest, StaysWhenTheHostAlreadyDominates) {
  MigrationFixture f;
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  access(tracker, o, f.node(0), 8);
  MoveBlock blk = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 0u);
}

TEST(AdaptivePolicyTest, MinWeightGateBlocksASingleAccess) {
  MigrationFixture f;  // default adaptive_min_weight = 4.0
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  access(tracker, o, f.node(2), 1);  // weight 1 < 4
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_EQ(f.manager.protocol().counters().suppressed_hysteresis, 1u);
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 0u);
}

TEST(AdaptivePolicyTest, HysteresisSuppressesAThinMargin) {
  MigrationFixture f;  // default hysteresis_band = 0.2
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  // The host and node 2 alternate strictly: with decay 0.9 the latest
  // caller (node 2) leads the host by share 1/(1+0.9) - 0.9/(1+0.9)
  // ~= 0.053, far under the 0.2 band.
  for (int i = 0; i < 12; ++i) {
    tracker.record(o, f.node(i % 2 == 0 ? 0u : 2u));
  }
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_EQ(f.manager.protocol().counters().suppressed_hysteresis, 1u);
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 0u);
}

// The satellite regression: an object shared by two alternating callers
// must NOT ping-pong between them. With the hysteresis band in place the
// object never moves at all; with the band (and the min-weight gate)
// zeroed out, the same trace bounces the object on every block — which is
// exactly what the reversal counter exists to expose.
TEST(AdaptivePolicyTest, NoPingPongOnAlternatingTwoNodeTrace) {
  MigrationFixture f;
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  // The object lives with one of the two callers; they take strict turns.
  const ObjectId o = f.registry.create("o", f.node(1));
  for (int round = 0; round < 16; ++round) {
    const NodeId caller = f.node(round % 2 == 0 ? 1u : 2u);
    tracker.record(o, caller);
    MoveBlock blk = f.manager.new_block(caller, o);
    f.engine.spawn(run_block(*policy, blk));
    f.engine.run();
    policy->end_block(blk);
  }
  // Node 2's turns leave it dominant by only ~0.05 of the EMA mass, so
  // every candidate move is suppressed; node 1's turns find the dominant
  // node already hosting. The object never moves, so it cannot ping-pong.
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 0u);
  EXPECT_EQ(f.manager.protocol().counters().pingpong_reversals, 0u);
  EXPECT_EQ(f.registry.location(o), f.node(1));
  EXPECT_EQ(f.manager.protocol().counters().suppressed_hysteresis, 8u);
}

TEST(AdaptivePolicyTest, DisablingHysteresisReproducesThePingPong) {
  ManagerOptions opts;
  opts.hysteresis_band = 0.0;
  opts.adaptive_min_weight = 0.0;
  MigrationFixture f{4, opts};
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::Adaptive, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));
  for (int round = 0; round < 16; ++round) {
    const NodeId caller = f.node(1 + static_cast<std::uint32_t>(round % 2));
    tracker.record(o, caller);
    MoveBlock blk = f.manager.new_block(caller, o);
    f.engine.spawn(run_block(*policy, blk));
    f.engine.run();
    policy->end_block(blk);
  }
  // Every block migrates toward the latest caller; from the third block on
  // each move exactly undoes the previous one.
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 16u);
  EXPECT_GE(f.manager.protocol().counters().pingpong_reversals, 14u);
}

TEST(AdaptiveLoadPolicyTest, OverloadedDominantNodeVetoesTheMove) {
  MigrationFixture f;  // default load_factor = 2.0
  LocalityTracker tracker{4};
  f.manager.protocol().set_locality(&tracker);
  const ObjectId o = f.registry.create("o", f.node(0));
  // Pile 11 bystander objects onto node 2: object_count 12 over 4 nodes is
  // a mean of 3, cap 6 — node 2 would host 12 > 6 after the move.
  for (int i = 0; i < 11; ++i) {
    f.registry.create("ballast" + std::to_string(i), f.node(2));
  }
  access(tracker, o, f.node(2), 8);

  auto load_aware = make_policy(PolicyKind::AdaptiveLoad, f.manager);
  MoveBlock blk = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*load_aware, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_EQ(f.manager.protocol().counters().suppressed_load, 1u);
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 0u);

  // The plain adaptive policy ignores load and takes the same move.
  auto plain = make_policy(PolicyKind::Adaptive, f.manager);
  MoveBlock blk2 = f.manager.new_block(f.node(1), o);
  f.engine.spawn(run_block(*plain, blk2));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 1u);
}

TEST(AdaptiveLoadPolicyTest, MeanLoadIsFlooredSoSparseSystemsStillMigrate) {
  // Regression: with fewer objects than nodes the raw mean is < 1 and a
  // load_factor cap below 1 would veto every migration. The floor keeps a
  // lone object free to join its dominant caller.
  MigrationFixture f{8};
  LocalityTracker tracker{8};
  f.manager.protocol().set_locality(&tracker);
  auto policy = make_policy(PolicyKind::AdaptiveLoad, f.manager);
  const ObjectId o = f.registry.create("o", f.node(0));  // 1 object, 8 nodes
  access(tracker, o, f.node(5), 8);
  MoveBlock blk = f.manager.new_block(f.node(5), o);
  f.engine.spawn(run_block(*policy, blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(5));
  EXPECT_EQ(f.manager.protocol().counters().suppressed_load, 0u);
  EXPECT_EQ(f.manager.protocol().counters().migrations_triggered, 1u);
}

}  // namespace
}  // namespace omig::migration
