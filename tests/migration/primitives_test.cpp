#include "migration/primitives.hpp"

#include <gtest/gtest.h>

#include "fixture.hpp"

namespace omig::migration {
namespace {

using testing::MigrationFixture;
using objsys::NodeId;

struct PrimFixture : MigrationFixture {
  PrimFixture() : MigrationFixture{4} {
    policy = make_policy(PolicyKind::Placement, manager);
    prims.emplace(manager, *policy, invoker);
  }
  std::unique_ptr<MigrationPolicy> policy;
  std::optional<Primitives> prims;
};

TEST(PrimitivesTest, FixUnfixRefixRoundTrip) {
  PrimFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  EXPECT_FALSE(f.prims->is_fixed(o));
  f.prims->fix(o);
  EXPECT_TRUE(f.prims->is_fixed(o));
  f.prims->unfix(o);
  f.prims->refix(o);
  EXPECT_TRUE(f.prims->is_fixed(o));
}

TEST(PrimitivesTest, LocationInterrogation) {
  PrimFixture f;
  const ObjectId o = f.registry.create("o", f.node(3));
  EXPECT_EQ(f.prims->location_of(o), f.node(3));
  EXPECT_TRUE(f.prims->is_resident(o, f.node(3)));
  EXPECT_FALSE(f.prims->is_resident(o, f.node(0)));
}

TEST(PrimitivesTest, RawMigrate) {
  PrimFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  f.engine.spawn(f.prims->migrate(o, f.node(1)));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(o), f.node(1));
}

TEST(PrimitivesTest, MigrateToObjectCollocates) {
  PrimFixture f;
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(2));
  f.engine.spawn(f.prims->migrate_to_object(a, b));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(a), f.node(2));
}

TEST(PrimitivesTest, MigrateDragsAttachments) {
  PrimFixture f;
  const ObjectId a = f.registry.create("a", f.node(0));
  const ObjectId b = f.registry.create("b", f.node(0));
  EXPECT_TRUE(f.prims->attach(a, b));
  f.engine.spawn(f.prims->migrate(a, f.node(1)));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(b), f.node(1));
  EXPECT_TRUE(f.prims->detach(a, b));
  f.engine.spawn(f.prims->migrate(a, f.node(2)));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(a), f.node(2));
  EXPECT_EQ(f.prims->location_of(b), f.node(1));  // detached: stays
}

sim::Task move_call_end(PrimFixture& f, ObjectId target, NodeId me,
                        int calls, double& elapsed) {
  MoveBlock blk = f.prims->move(me, target);
  const sim::SimTime start = f.engine.now();
  co_await f.prims->begin(blk);
  for (int i = 0; i < calls; ++i) co_await f.prims->call(me, target);
  f.prims->end(blk);
  elapsed = f.engine.now() - start;
}

TEST(PrimitivesTest, MoveBlockRoundTrip) {
  PrimFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  double elapsed = -1.0;
  f.engine.spawn(move_call_end(f, o, f.node(2), 5, elapsed));
  f.engine.run();
  // Request (1) + migration (6); the 5 calls are local and free.
  EXPECT_DOUBLE_EQ(elapsed, 7.0);
  EXPECT_EQ(f.prims->location_of(o), f.node(2));
  EXPECT_FALSE(f.manager.protocol().is_locked(o));  // end released the lock
}

sim::Task visit_block(PrimFixture& f, ObjectId target, NodeId me) {
  MoveBlock blk = f.prims->visit(me, target);
  co_await f.prims->begin(blk);
  co_await f.prims->call(me, target);
  f.prims->end(blk);
}

TEST(PrimitivesTest, VisitReturnsObject) {
  PrimFixture f;
  const ObjectId o = f.registry.create("o", f.node(0));
  f.engine.spawn(visit_block(f, o, f.node(2)));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(o), f.node(0));
  EXPECT_EQ(f.registry.migrations(), 2u);  // there and back
}

sim::Task do_call_by_move(PrimFixture& f, NodeId caller, ObjectId callee,
                          ObjectId param, bool visit) {
  if (visit) {
    co_await f.prims->call_by_visit(caller, callee, param);
  } else {
    co_await f.prims->call_by_move(caller, callee, param);
  }
}

TEST(PrimitivesTest, CallByMoveBringsParameterToCallee) {
  // Figure 1: "declare assign: … move schedule" — the schedule migrates to
  // the tool for the call and stays there.
  PrimFixture f;
  const ObjectId tool = f.registry.create("tool", f.node(2));
  const ObjectId schedule = f.registry.create("schedule", f.node(0));
  f.engine.spawn(do_call_by_move(f, f.node(1), tool, schedule, false));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(schedule), f.node(2));  // with the callee
  EXPECT_EQ(f.registry.migrations(), 1u);
}

TEST(PrimitivesTest, CallByVisitReturnsParameter) {
  // Figure 1: "visit job" — the job comes to the tool and goes back.
  PrimFixture f;
  const ObjectId tool = f.registry.create("tool", f.node(2));
  const ObjectId job = f.registry.create("job", f.node(0));
  f.engine.spawn(do_call_by_move(f, f.node(1), tool, job, true));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(job), f.node(0));  // back home
  EXPECT_EQ(f.registry.migrations(), 2u);
}

TEST(PrimitivesTest, CallByMoveRespectsThePolicy) {
  // A conflicting placement lock on the parameter: the implicit move is
  // refused, the call still runs, the parameter stays put.
  PrimFixture f;
  const ObjectId tool = f.registry.create("tool", f.node(2));
  const ObjectId param = f.registry.create("param", f.node(0));
  const MoveBlock holder = f.manager.new_block(f.node(3), param);
  ASSERT_TRUE(f.manager.protocol().try_lock(param, holder.id));
  f.engine.spawn(do_call_by_move(f, f.node(1), tool, param, false));
  f.engine.run();
  EXPECT_EQ(f.prims->location_of(param), f.node(0));  // refused: stayed
  EXPECT_EQ(f.registry.migrations(), 0u);
}

TEST(PrimitivesTest, CallFromObject) {
  PrimFixture f;
  const ObjectId a = f.registry.create("a", f.node(1));
  const ObjectId b = f.registry.create("b", f.node(1));
  bool done = false;
  struct Helper {
    static sim::Task run(PrimFixture& f, ObjectId a, ObjectId b,
                         bool& done) {
      co_await f.prims->call_from_object(a, b);
      done = true;
    }
  };
  f.engine.spawn(Helper::run(f, a, b, done));
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.engine.now(), 0.0);  // collocated: free
}

}  // namespace
}  // namespace omig::migration
