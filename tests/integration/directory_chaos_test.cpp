// Chaos coverage for the sharded directory in the live runtime: a crashed
// shard owner must not strand lookups — resolution falls back to the
// coordinator map (counted), retries ride the existing backoff discipline,
// and after the owner recovers its slice is re-seeded and serves again. A
// lookup never settles on a dead host as its final answer, so an invoke
// whose host is down sends nothing until the host is back. The other two
// consistency strategies run here too, on both transports: an eager
// migration drops warm entries, and an aged lease goes back to the owner.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "objsys/directory_core.hpp"
#include "runtime/live_system.hpp"

namespace omig::runtime {
namespace {

ObjectFactory counter_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("inc", [](ObjectState& self, const std::string&) {
      self.fields["value"] =
          std::to_string(std::stoi(self.fields["value"]) + 1);
      return self.fields["value"];
    });
    obj->register_method("get", [](ObjectState& self, const std::string&) {
      return self.fields["value"];
    });
    return obj;
  };
}

ObjectState counter_state() {
  ObjectState s;
  s.type = "counter";
  s.fields["value"] = "0";
  return s;
}

LiveSystem::Options sharded_options(std::size_t nodes) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.directory = objsys::DirectoryKind::Sharded;
  opts.dir_strategy = objsys::ConsistencyStrategy::LazyForward;
  opts.max_retries = 6;
  opts.retry_backoff = std::chrono::milliseconds{1};
  return opts;
}

TEST(DirectoryChaosTest, OwnerCrashFallsBackThenRecoveredOwnerServes) {
  auto sys = std::make_unique<LiveSystem>(sharded_options(6));
  sys->register_type("counter", counter_factory());
  sys->start();

  // Host the object away from its shard owner, so crashing the owner
  // kills the directory slice but not the object.
  const std::size_t owner = sys->directory_shard_owner("obj");
  const std::size_t host = (owner + 1) % 6;
  ASSERT_TRUE(sys->create("obj", counter_state(), host));

  sys->crash_node(owner);
  // Cold lookup with the owner down: the chase has nowhere to start and
  // the slice is gone — resolution must fall back, never hang or settle
  // on the dead owner.
  const auto r = sys->invoke("obj", "inc", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_GE(sys->dir_fallbacks(), 1u);
  ASSERT_TRUE(sys->location("obj").has_value());
  EXPECT_TRUE(sys->node_up(*sys->location("obj")));

  // Recovery re-seeds the slice; the owner serves lookups again and a
  // fresh caller (no warm cache for this name) resolves through it.
  sys->restart_node(owner);
  const std::uint64_t fallbacks_after_restart = sys->dir_fallbacks();
  const std::size_t host2 = (owner + 2) % 6;
  ASSERT_TRUE(sys->migrate("obj", host2));
  const auto r2 = sys->invoke("obj", "get", "");
  ASSERT_TRUE(r2.ok) << r2.value;
  EXPECT_EQ(r2.value, "1");
  EXPECT_EQ(sys->dir_fallbacks(), fallbacks_after_restart);
}

TEST(DirectoryChaosTest, StaleCacheHealsThroughForwardingAfterMigrations) {
  auto sys = std::make_unique<LiveSystem>(sharded_options(5));
  sys->register_type("counter", counter_factory());
  sys->start();
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  ASSERT_TRUE(sys->invoke("c", "inc", "").ok);  // warm the external cache
  const std::uint64_t hits = sys->dir_cache_hits();
  ASSERT_TRUE(sys->invoke("c", "inc", "").ok);
  EXPECT_GT(sys->dir_cache_hits(), hits);  // served from the cache

  // Two hops behind: 0 -> 1 -> 2. The stale cached location bounces, the
  // forwarding hints heal the cache, and the call still lands.
  ASSERT_TRUE(sys->migrate("c", 1));
  ASSERT_TRUE(sys->migrate("c", 2));
  const auto r = sys->invoke("c", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "2");
  EXPECT_GE(sys->dir_stale_hits() + sys->dir_invalidations(), 1u);
}

TEST(DirectoryChaosTest, FaultPlanOwnerCrashResolvesAfterRecovery) {
  // Same owner-crash scenario, but driven by a declarative FaultPlan with
  // message drops on every link: lookups and updates retry with backoff
  // under loss, and once the scheduled restart lands every call resolves.
  // The shard mapping is deterministic, so a probe system (same node
  // count) reveals the owner before the faulty run is configured.
  std::size_t owner = 0;
  {
    auto probe = std::make_unique<LiveSystem>(sharded_options(4));
    probe->register_type("counter", counter_factory());
    probe->start();
    owner = probe->directory_shard_owner("hot");
  }

  LiveSystem::Options opts = sharded_options(4);
  opts.fault_plan = fault::parse_plan_text(
      "seed 11\n"
      "drop * * 0.10\n"
      "crash " + std::to_string(owner) + " 30 60\n");
  opts.reply_timeout = std::chrono::milliseconds{200};
  auto sys = std::make_unique<LiveSystem>(std::move(opts));
  sys->register_type("counter", counter_factory());
  sys->start();

  const std::size_t host = (owner + 1) % 4;
  ASSERT_TRUE(sys->create("hot", counter_state(), host));
  // Keep traffic flowing across the crash window; under faults an invoke
  // may report the node unreachable — what must never happen is a hang or
  // a success against a dead host.
  for (int i = 0; i < 10; ++i) {
    (void)sys->invoke("hot", "inc", "");
    std::this_thread::sleep_for(std::chrono::milliseconds{15});
  }
  // Past the restart: the system must have healed completely.
  InvokeResult r;
  for (int attempt = 0; attempt < 50; ++attempt) {
    r = sys->invoke("hot", "get", "");
    if (r.ok) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  ASSERT_TRUE(sys->location("hot").has_value());
  EXPECT_TRUE(sys->node_up(*sys->location("hot")));
}

class DirectoryChaosBackend : public ::testing::TestWithParam<TransportKind> {
protected:
  std::unique_ptr<LiveSystem> start(objsys::ConsistencyStrategy strategy) {
    LiveSystem::Options opts = sharded_options(4);
    opts.dir_strategy = strategy;
    opts.transport = GetParam();
    auto sys = std::make_unique<LiveSystem>(std::move(opts));
    sys->register_type("counter", counter_factory());
    sys->start();
    return sys;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, DirectoryChaosBackend,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         [](const auto& info) {
                           return info.param == TransportKind::InProc
                                      ? "InProc"
                                      : "AsyncTcp";
                         });

TEST_P(DirectoryChaosBackend, EagerMigrationDropsAWarmEntry) {
  auto sys = start(objsys::ConsistencyStrategy::EagerInvalidate);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  ASSERT_TRUE(sys->invoke_from(2, "c", "inc", "").ok);  // warm node 2's cache
  const std::uint64_t hits = sys->dir_cache_hits();
  ASSERT_TRUE(sys->invoke_from(2, "c", "inc", "").ok);
  ASSERT_GT(sys->dir_cache_hits(), hits);

  const std::uint64_t invalidations = sys->dir_invalidations();
  ASSERT_TRUE(sys->migrate("c", 1));
  EXPECT_GT(sys->dir_invalidations(), invalidations);
  // The entry is gone, so the next invoke asks the owner instead of
  // calling the old host: no stale hit.
  const std::uint64_t stale = sys->dir_stale_hits();
  const auto r = sys->invoke_from(2, "c", "get", "");
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "2");
  EXPECT_EQ(sys->dir_stale_hits(), stale);
}

TEST_P(DirectoryChaosBackend, AgedLeaseGoesBackToTheOwner) {
  auto sys = start(objsys::ConsistencyStrategy::LeaseTtl);
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  ASSERT_TRUE(sys->create("d", counter_state(), 2));
  ASSERT_TRUE(sys->invoke_from(3, "c", "inc", "").ok);  // warm
  std::uint64_t hits = sys->dir_cache_hits();
  ASSERT_TRUE(sys->invoke_from(3, "c", "inc", "").ok);
  ASSERT_EQ(sys->dir_cache_hits(), hits + 1);  // within the lease

  // Age the entry: every directory operation ticks the lease.
  for (std::uint64_t i = 0; i < objsys::DirectoryCore::kLeaseOps; ++i) {
    ASSERT_TRUE(sys->invoke_from(0, "d", "inc", "").ok);
  }
  std::vector<objsys::DirectoryStep> log;
  sys->set_directory_log(&log);
  hits = sys->dir_cache_hits();
  const auto r = sys->invoke_from(3, "c", "get", "");
  sys->set_directory_log(nullptr);
  ASSERT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "2");
  EXPECT_EQ(sys->dir_cache_hits(), hits);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].request.target.value(), sys->directory_shard_owner("c"));
}

TEST_P(DirectoryChaosBackend, DeadOwnerAndHostGetNoMessages) {
  LiveSystem::Options opts = sharded_options(4);
  opts.transport = GetParam();
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{2};
  auto sys = std::make_unique<LiveSystem>(std::move(opts));
  sys->register_type("counter", counter_factory());
  sys->start();
  // An object on node 3 whose shard node 2 owns.
  std::string name = "obj";
  for (int k = 0; sys->directory_shard_owner(name) != 2; ++k) {
    name = "obj" + std::to_string(k);
  }
  ASSERT_TRUE(sys->create(name, counter_state(), 3));
  ASSERT_TRUE(sys->invoke(name, "inc", "").ok);
  sys->crash_node(2);
  sys->crash_node(3);

  // The lookup settles on no host, so the invoke backs off and gives up
  // without sending a message to the dead host.
  const std::uint64_t retries = sys->retries();
  const std::uint64_t rejections = sys->send_rejections();
  const auto dead = sys->invoke(name, "get", "");
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(sys->retries(), retries);
  EXPECT_EQ(sys->send_rejections(), rejections);

  // A host that restarts within the invoke's budget serves it.
  auto pending = std::async(std::launch::async,
                            [&] { return sys->invoke(name, "get", ""); });
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  sys->restart_node(3);
  const auto back = pending.get();
  ASSERT_TRUE(back.ok) << back.value;
  EXPECT_EQ(back.value, "0");  // reinstalled from its creation checkpoint
}

}  // namespace
}  // namespace omig::runtime
