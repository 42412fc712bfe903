#include "migration/manager.hpp"

#include <gtest/gtest.h>

#include "fixture.hpp"

namespace omig::migration {
namespace {

using testing::MigrationFixture;
using objsys::NodeId;

TEST(ManagerTest, NewBlocksGetFreshIds) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  const MoveBlock a = f.manager.new_block(f.node(1), o);
  const MoveBlock b = f.manager.new_block(f.node(2), o);
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(a.origin, f.node(1));
  EXPECT_EQ(a.target, o);
}

TEST(ManagerTest, SingleObjectTransfer) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(f.manager.transfer({o}, f.node(2), &blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
  // Default M = 6 per unit size.
  EXPECT_DOUBLE_EQ(blk.migration_cost, 6.0);
  EXPECT_DOUBLE_EQ(f.engine.now(), 6.0);
  ASSERT_EQ(blk.moved.size(), 1u);
  EXPECT_EQ(blk.moved[0], o);
  EXPECT_EQ(blk.origins_of_moved[0], f.node(0));
}

TEST(ManagerTest, TransferSkipsObjectsAlreadyThere) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(2));
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(f.manager.transfer({o}, f.node(2), &blk));
  f.engine.run();
  EXPECT_DOUBLE_EQ(blk.migration_cost, 0.0);
  EXPECT_TRUE(blk.moved.empty());
  EXPECT_EQ(f.manager.transfers_started(), 0u);
}

TEST(ManagerTest, TransferSkipsFixedObjects) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  f.registry.fix(o);
  MoveBlock blk = f.manager.new_block(f.node(2), o);
  f.engine.spawn(f.manager.transfer({o}, f.node(2), &blk));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(0));
  EXPECT_TRUE(blk.moved.empty());
}

TEST(ManagerTest, ParallelClusterTransferTakesMaxDuration) {
  MigrationFixture f;
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(1), /*size=*/2.0);
  MoveBlock blk = f.manager.new_block(f.node(3), a);
  f.engine.spawn(f.manager.transfer({a, b}, f.node(3), &blk));
  f.engine.run();
  // Parallel: duration = max(6, 12) = 12.
  EXPECT_DOUBLE_EQ(f.engine.now(), 12.0);
  EXPECT_DOUBLE_EQ(blk.migration_cost, 12.0);
  EXPECT_EQ(f.registry.location(a), f.node(3));
  EXPECT_EQ(f.registry.location(b), f.node(3));
}

TEST(ManagerTest, SerialClusterTransferSumsDurations) {
  ManagerOptions opts;
  opts.transfer = ClusterTransfer::Serial;
  MigrationFixture f{4, opts};
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(1));
  MoveBlock blk = f.manager.new_block(f.node(3), a);
  f.engine.spawn(f.manager.transfer({a, b}, f.node(3), &blk));
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.engine.now(), 12.0);  // 6 + 6
}

sim::Task second_transfer_after(MigrationFixture& f, sim::SimTime at,
                                ObjectId o, NodeId dest, MoveBlock* blk) {
  co_await f.engine.delay(at);
  std::vector<ObjectId> objs{o};  // built outside the braced co_await (GCC)
  co_await f.manager.transfer(std::move(objs), dest, blk);
}

TEST(ManagerTest, TransferWaitsForInTransitObjects) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock first = f.manager.new_block(f.node(1), o);
  MoveBlock second = f.manager.new_block(f.node(2), o);
  f.engine.spawn(f.manager.transfer({o}, f.node(1), &first));
  // Starts at t = 3 while the first transfer (ends t = 6) is in flight; it
  // must wait and then run from t = 6 to t = 12.
  f.engine.spawn(second_transfer_after(f, 3.0, o, f.node(2), &second));
  f.engine.run();
  EXPECT_EQ(f.registry.location(o), f.node(2));
  EXPECT_DOUBLE_EQ(f.engine.now(), 12.0);
  EXPECT_EQ(f.registry.migrations(), 2u);
}

TEST(ManagerTest, MigrationClusterUnrestrictedFollowsAllEdges) {
  MigrationFixture f;
  ProtocolCore& core = f.manager.protocol();
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(0));
  const ObjectId c = f.registry.create("c", f.node(0));
  const AllianceId ally = f.alliances.create("x");
  f.attachments.attach(a, b, ally);
  f.attachments.attach(b, c, AllianceId::invalid());
  const auto cluster = core.cluster(a, ally);
  EXPECT_EQ(cluster.size(), 3u);  // unrestricted by default
}

TEST(ManagerTest, MigrationClusterATransitiveRespectsContext) {
  ManagerOptions opts;
  opts.transitivity = AttachTransitivity::ATransitive;
  MigrationFixture f{4, opts};
  ProtocolCore& core = f.manager.protocol();
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(0));
  const ObjectId c = f.registry.create("c", f.node(0));
  const AllianceId ally = f.alliances.create("x");
  f.attachments.attach(a, b, ally);
  f.attachments.attach(b, c, AllianceId::invalid());
  EXPECT_EQ(core.cluster(a, ally).size(), 2u);
  // Without an alliance context even the A-transitive mode falls back to
  // the full closure (there is nothing to restrict to).
  EXPECT_EQ(core.cluster(a, AllianceId::invalid()).size(), 3u);
}

TEST(ManagerTest, LockLifecycle) {
  MigrationFixture f;
  ProtocolCore& core = f.manager.protocol();
  const ObjectId o = f.registry.create("o", f.node(0));
  const MoveBlock a = f.manager.new_block(f.node(1), o);
  const MoveBlock b = f.manager.new_block(f.node(2), o);
  EXPECT_FALSE(core.is_locked(o));
  EXPECT_TRUE(core.try_lock(o, a.id));
  EXPECT_TRUE(core.is_locked(o));
  EXPECT_EQ(core.lock_owner(o), a.id);
  EXPECT_TRUE(core.try_lock(o, a.id));   // re-entrant for the holder
  EXPECT_FALSE(core.try_lock(o, b.id));  // conflicting block refused
  core.unlock(o, b.id);                  // non-owner unlock is a no-op
  EXPECT_TRUE(core.is_locked(o));
  core.unlock(o, a.id);
  EXPECT_FALSE(core.is_locked(o));
  EXPECT_TRUE(core.try_lock(o, b.id));
}

TEST(ManagerTest, OpenMoveBookkeeping) {
  MigrationFixture f;
  ProtocolCore& core = f.manager.protocol();
  const ObjectId o = f.registry.create("o", f.node(0));
  EXPECT_EQ(core.open_moves(o, f.node(1)), 0);
  core.note_move(o, f.node(1));
  core.note_move(o, f.node(1));
  core.note_move(o, f.node(2));
  EXPECT_EQ(core.open_moves(o, f.node(1)), 2);
  EXPECT_EQ(core.open_moves(o, f.node(2)), 1);
  core.note_end(o, f.node(1));
  EXPECT_EQ(core.open_moves(o, f.node(1)), 1);
  EXPECT_THROW(core.note_end(o, f.node(3)), omig::AssertionError);
}

TEST(ManagerTest, StrictMajorityNode) {
  MigrationFixture f;  // default clear_majority_minimum = 2
  ProtocolCore& core = f.manager.protocol();
  const ObjectId o = f.registry.create("o", f.node(0));
  EXPECT_FALSE(core.strict_majority_node(o).valid());
  core.note_move(o, f.node(1));
  // A single open move is not a *clear* majority under the default.
  EXPECT_FALSE(core.strict_majority_node(o).valid());
  core.note_move(o, f.node(2));
  core.note_move(o, f.node(2));
  EXPECT_EQ(core.strict_majority_node(o), f.node(2));
  core.note_move(o, f.node(1));
  EXPECT_FALSE(core.strict_majority_node(o).valid());  // tie at 2
}

TEST(ManagerTest, StrictMajorityNodeWithMinimumOne) {
  ManagerOptions opts;
  opts.clear_majority_minimum = 1;
  MigrationFixture f{4, opts};
  ProtocolCore& core = f.manager.protocol();
  const ObjectId o = f.registry.create("o", f.node(0));
  core.note_move(o, f.node(1));
  EXPECT_EQ(core.strict_majority_node(o), f.node(1));
}

TEST(ManagerTest, BackgroundCostSinkReceivesUnattributedCost) {
  MigrationFixture f;
  double background = 0.0;
  f.manager.set_background_cost_sink([&](double c) { background += c; });
  const ObjectId o = f.registry.create("o", f.node(0));
  f.engine.spawn(f.manager.transfer({o}, f.node(1), nullptr));
  f.engine.run();
  EXPECT_DOUBLE_EQ(background, 6.0);
}

TEST(ManagerTest, ControlMessageChargesBlock) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  MoveBlock blk = f.manager.new_block(f.node(1), o);
  f.engine.spawn(f.manager.control_message(f.node(1), o, &blk));
  f.engine.run();
  EXPECT_DOUBLE_EQ(blk.migration_cost, 1.0);  // Fixed latency, mean 1
  EXPECT_EQ(f.manager.control_messages(), 1u);
}

TEST(ManagerTest, ControlMessageToLocalObjectIsFree) {
  MigrationFixture f;
  const ObjectId o = f.registry.create("o", f.node(1));
  MoveBlock blk = f.manager.new_block(f.node(1), o);
  f.engine.spawn(f.manager.control_message(f.node(1), o, &blk));
  f.engine.run();
  EXPECT_DOUBLE_EQ(blk.migration_cost, 0.0);
}

}  // namespace
}  // namespace omig::migration
