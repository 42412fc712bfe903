// Fault tolerance of the live threaded runtime: lossy links, duplicate
// suppression, crash/restart checkpoint recovery, and lock leases.
//
// The message-level cases run on both transport backends: in-process
// mailbox delivery, and every request encoded into a wire frame and sent
// over a localhost socket by the event-loop client.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "fault/fault_plan.hpp"
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

std::unique_ptr<LiveSystem> make_system(
    LiveSystem::Options opts, TransportKind transport = TransportKind::InProc) {
  opts.transport = transport;
  auto sys = std::make_unique<LiveSystem>(std::move(opts));
  sys->register_type("counter", counter_factory());
  sys->start();
  return sys;
}

/// Polls `pred` until it holds or `limit` passes.
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return pred();
}

class LiveFaultBackend : public ::testing::TestWithParam<TransportKind> {
protected:
  std::unique_ptr<LiveSystem> make(LiveSystem::Options opts) {
    return make_system(std::move(opts), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveFaultBackend,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         [](const auto& info) {
                           return info.param == TransportKind::InProc
                                      ? "InProc"
                                      : "AsyncTcp";
                         });

TEST_P(LiveFaultBackend, LossyLinksEveryInvokeStillSucceeds) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.fault_plan = fault::parse_plan_text("seed 7\ndrop * * 0.25\n");
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  constexpr int kCalls = 60;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  }
  // At-most-once delivery: despite retransmissions the method ran exactly
  // once per logical request.
  EXPECT_EQ(sys->invoke("c", "get", "").value, std::to_string(kCalls));
  EXPECT_GT(sys->dropped_messages(), 0u);
  EXPECT_GT(sys->retries(), 0u);
}

TEST_P(LiveFaultBackend, DuplicatesAreDeduplicated) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("seed 3\ndup * * 1.0\n");
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  constexpr int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  }
  // Every message was delivered twice, yet each increment applied once.
  EXPECT_EQ(sys->invoke("c", "get", "").value, std::to_string(kCalls));
  EXPECT_GT(sys->duplicated_messages(),
            static_cast<std::uint64_t>(kCalls) - 1);
  EXPECT_GT(sys->deduplicated_messages(), 0u);
}

TEST_P(LiveFaultBackend, DelaysSlowDeliveryWithoutBreakingIt) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("delay * * 5\n");
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Five deliveries at >= 5 ms of injected latency each.
  EXPECT_GE(elapsed, std::chrono::milliseconds{25});
  EXPECT_EQ(sys->invoke("c", "get", "").value, "5");
}

TEST_P(LiveFaultBackend, CrashLosesUpdatesRestartRecoversCheckpoint) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  for (int i = 0; i < 3; ++i) sys->invoke("c", "inc", "");
  sys->crash_node(1);
  EXPECT_FALSE(sys->node_up(1));
  sys->restart_node(1);
  EXPECT_TRUE(sys->node_up(1));
  // Degraded mode: the creation-time checkpoint comes back — updates since
  // are lost, but the object itself survives the crash.
  const auto r = sys->invoke("c", "get", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "0");
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  EXPECT_EQ(sys->recoveries(), 1u);
}

TEST_P(LiveFaultBackend, MigrationRefreshesTheCheckpoint) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->invoke("c", "inc", "");
  sys->invoke("c", "inc", "");
  ASSERT_TRUE(sys->migrate("c", 1));  // checkpoint now carries value = 2
  sys->invoke("c", "inc", "");        // post-checkpoint update, will be lost
  sys->crash_node(1);
  sys->restart_node(1);
  EXPECT_EQ(sys->invoke("c", "get", "").value, "2");
}

TEST_P(LiveFaultBackend, MigrationPullsCheckpointOffDeadNode) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.max_retries = 2;
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  sys->invoke("c", "inc", "");
  sys->crash_node(1);
  // The source is dead: eviction fails, the move falls back to the last
  // checkpoint and the object lands at the destination anyway.
  ASSERT_TRUE(sys->migrate("c", 0));
  EXPECT_EQ(sys->location("c"), 0u);
  const auto r = sys->invoke("c", "get", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "0");  // checkpoint state; the inc was lost
  EXPECT_GE(sys->recoveries(), 1u);
}

TEST_P(LiveFaultBackend, MoveOffAKnownDeadSourceSendsNoEvict) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  ASSERT_TRUE(sys->invoke("c", "inc", "").ok);  // lost with the node
  sys->crash_node(0);
  // The coordinator knows the source is down, so the member settles from
  // its checkpoint at once: no evict is sent that the in-proc node could
  // only reject, or that a dead socket peer would let time out through
  // the whole retry budget.
  ASSERT_TRUE(sys->migrate("c", 1));
  EXPECT_EQ(sys->location("c"), 1u);
  EXPECT_EQ(sys->invoke("c", "get", "").value, "0");
  EXPECT_EQ(sys->recoveries(), 1u);
  EXPECT_EQ(sys->retries(), 0u);
  EXPECT_EQ(sys->send_rejections(), 0u);
}

/// Three attached counters homed on nodes 0, 1 and 2, each incremented
/// once since its creation-time checkpoint.
void make_cluster(LiveSystem& sys) {
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = "m" + std::to_string(i);
    ASSERT_TRUE(sys.create(name, counter_state(), i));
    ASSERT_TRUE(sys.invoke(name, "inc", "").ok);
  }
  ASSERT_TRUE(sys.attach("m0", "m1"));
  ASSERT_TRUE(sys.attach("m1", "m2"));
}

TEST_P(LiveFaultBackend, ClusterMoveWithADeadSource) {
  LiveSystem::Options opts;
  opts.nodes = 4;
  opts.max_retries = 2;
  auto sys = make(std::move(opts));
  ASSERT_NO_FATAL_FAILURE(make_cluster(*sys));
  sys->crash_node(1);
  // One transfer, failure handled per member: the dead source's member is
  // recovered from its checkpoint, the others keep their updates.
  ASSERT_TRUE(sys->migrate("m0", 3));
  for (const char* name : {"m0", "m1", "m2"}) {
    EXPECT_EQ(sys->location(name), 3u) << name;
  }
  EXPECT_EQ(sys->invoke("m0", "get", "").value, "1");
  EXPECT_EQ(sys->invoke("m1", "get", "").value, "0");
  EXPECT_EQ(sys->invoke("m2", "get", "").value, "1");
  EXPECT_EQ(sys->recoveries(), 1u);
}

TEST_P(LiveFaultBackend, ClusterMoveToADeadDestinationStaysHome) {
  LiveSystem::Options opts;
  opts.nodes = 4;
  opts.max_retries = 2;
  auto sys = make(std::move(opts));
  ASSERT_NO_FATAL_FAILURE(make_cluster(*sys));
  sys->crash_node(3);
  // Every install fails, so each member goes back on its own source.
  ASSERT_TRUE(sys->migrate("m0", 3));
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = "m" + std::to_string(i);
    EXPECT_EQ(sys->location(name), i) << name;
    EXPECT_EQ(sys->invoke(name, "get", "").value, "1") << name;
  }
  EXPECT_EQ(sys->migrations(), 0u);
  sys->restart_node(3);
  ASSERT_TRUE(sys->migrate("m0", 3));
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = "m" + std::to_string(i);
    EXPECT_EQ(sys->location(name), 3u) << name;
    EXPECT_EQ(sys->invoke(name, "get", "").value, "1") << name;
  }
  EXPECT_EQ(sys->recoveries(), 0u);
}

TEST_P(LiveFaultBackend, FailedPutBackIsReinstalled) {
  // Every message 0 -> 1 is lost and half of those 1 -> 0 are: the moved
  // counter's install at node 1 always fails, and on some seeds its
  // put-back on node 0 fails too. The counter then sits on no node until
  // the next invoke reinstalls it from the checkpoint.
  int reinstalled = 0;
  for (int seed = 1; seed <= 20; ++seed) {
    LiveSystem::Options opts;
    opts.nodes = 3;
    opts.max_retries = 1;
    opts.fault_plan = fault::parse_plan_text(
        "seed " + std::to_string(seed) + "\ndrop 0 1 1.0\ndrop 1 0 0.5\n");
    auto sys = make(std::move(opts));
    ASSERT_TRUE(sys->create("c", counter_state(), 0));
    ASSERT_TRUE(sys->migrate("c", 1));
    const auto home = sys->location("c");
    ASSERT_TRUE(home.has_value()) << "seed " << seed;
    const std::uint64_t recoveries = sys->recoveries();
    const std::uint64_t remote = sys->remote_invocations();
    // Invoked from the node location() names: a local call, so that node
    // is the one that answered.
    const auto r = sys->invoke_from(*home, "c", "inc", "");
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.value;
    EXPECT_EQ(r.value, "1") << "seed " << seed;
    EXPECT_EQ(sys->remote_invocations(), remote) << "seed " << seed;
    EXPECT_EQ(sys->location("c"), home) << "seed " << seed;
    if (sys->recoveries() > recoveries) ++reinstalled;
  }
  EXPECT_GT(reinstalled, 0);  // some seeds lost the put-back
}

TEST_P(LiveFaultBackend, PartitionedMoveKeepsTheResidentCopy) {
  // Nodes 0 and 1 cannot reach each other: the evict, the install and the
  // put-back are all lost, so the counter is marked lost at node 0. Node 0
  // never gave its copy up, though, and external calls still reach it:
  // the copy keeps every acked update and is never overwritten.
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.max_retries = 1;
  opts.fault_plan = fault::parse_plan_text("drop 0 1 1.0\ndrop 1 0 1.0\n");
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sys->invoke("c", "inc", "").ok);
  ASSERT_TRUE(sys->migrate("c", 1));
  EXPECT_EQ(sys->location("c"), 0u);
  const auto r = sys->invoke("c", "inc", "");
  EXPECT_TRUE(r.ok) << r.value;
  EXPECT_EQ(r.value, "4");
  EXPECT_EQ(sys->recoveries(), 1u);  // the evict's checkpoint fallback only
}

TEST_P(LiveFaultBackend, CrashedNodeWithoutRestartFailsBounded) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{1};
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  sys->crash_node(1);
  // No hang: the retry budget runs out and the failure is reported.
  const auto r = sys->invoke("c", "inc", "");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.value.find("unreachable"), std::string::npos);
  // After a restart the object is reachable again.
  sys->restart_node(1);
  EXPECT_TRUE(sys->invoke("c", "get", "").ok);
}

TEST(LiveFaultTest, LeaseExpiryReleasesLocksOfADeadBlock) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.lock_lease = std::chrono::milliseconds{60};
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto holder = sys->move("c", 1);
  ASSERT_TRUE(holder.granted);
  // While the lease is fresh the lock refuses a conflicting move.
  auto early = sys->move("c", 2);
  EXPECT_FALSE(early.granted);
  EXPECT_EQ(sys->refused_moves(), 1u);
  // The holding block never ends (it "died"); once the lease runs out the
  // lock expires and the object is movable again.
  std::this_thread::sleep_for(std::chrono::milliseconds{150});
  auto late = sys->move("c", 2);
  EXPECT_TRUE(late.granted);
  EXPECT_EQ(sys->location("c"), 2u);
  EXPECT_EQ(sys->lease_expiries(), 1u);
  sys->end(late);
  sys->end(holder);  // stale token: releases nothing, must not throw
}

TEST(LiveFaultTest, InfiniteLeaseKeepsPaperSemantics) {
  LiveSystem::Options opts;
  opts.nodes = 3;  // lock_lease stays 0: locks never expire
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto holder = sys->move("c", 1);
  ASSERT_TRUE(holder.granted);
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  auto second = sys->move("c", 2);
  EXPECT_FALSE(second.granted);  // still refused, no matter how long ago
  EXPECT_EQ(sys->lease_expiries(), 0u);
  sys->end(holder);
}

TEST_P(LiveFaultBackend, PlanDrivenCrashScheduleRuns) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.fault_plan = fault::parse_plan_text("crash 1 20 60\n");  // millis
  auto sys = make(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  EXPECT_TRUE(eventually([&] { return !sys->node_up(1); },
                         std::chrono::seconds{5}));
  EXPECT_TRUE(eventually([&] { return sys->node_up(1); },
                         std::chrono::seconds{5}));
  EXPECT_EQ(sys->crashes(), 1u);
  EXPECT_EQ(sys->restarts(), 1u);
  // The untouched node kept serving throughout.
  EXPECT_TRUE(sys->invoke("c", "get", "").ok);
}

TEST(LiveFaultTest, StopMidScheduleDoesNotHang) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  // A crash scheduled far in the future: stop() must not wait for it.
  opts.fault_plan = fault::parse_plan_text("crash 1 600000\n");
  auto sys = make_system(std::move(opts));
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->stop();  // returns promptly; destructor's second stop() is a no-op
}

TEST(LiveFaultTest, CrashScheduleOutsideNodeRangeIsRejected) {
  LiveSystem::Options opts;
  opts.nodes = 2;
  opts.fault_plan = fault::parse_plan_text("crash 7 10\n");
  LiveSystem sys{opts};
  sys.register_type("counter", counter_factory());
  EXPECT_THROW(sys.start(), std::exception);
}

}  // namespace
}  // namespace omig::runtime
