// Adaptive placement on the live runtime (docs/policies.md): the same
// EMA + hysteresis decision the simulator makes, on real threads — plus
// the transport-parity check that one workload yields one protocol trace
// whether the messages travel in-process or over TCP.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/live_system.hpp"
#include "trace/log.hpp"

namespace omig::runtime {
namespace {

using migration::PolicyKind;

ObjectFactory counter_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("add", [](ObjectState& self, const std::string&) {
      self.fields["count"] += "x";
      return self.fields["count"];
    });
    return obj;
  };
}

ObjectState counter_state() {
  ObjectState s;
  s.type = "counter";
  s.fields["count"] = "";
  return s;
}

LiveSystem::Options adaptive_opts(PolicyKind policy, std::size_t nodes = 3) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.policy = policy;
  return opts;
}

TEST(LiveAdaptiveTest, MovesTowardTheDominantCallerNotTheRequestedDest) {
  LiveSystem sys{adaptive_opts(PolicyKind::Adaptive)};
  sys.register_type("counter", counter_factory());
  sys.start();
  ASSERT_TRUE(sys.create("obj", counter_state(), 0));
  for (int i = 0; i < 8; ++i) sys.invoke_from(2, "obj", "add", "");

  // Node 1 asks for the object; the EMA says node 2 is where it belongs.
  auto token = sys.move("obj", 1);
  EXPECT_TRUE(token.granted);
  EXPECT_EQ(sys.location("obj"), std::size_t{2});
  EXPECT_EQ(sys.policy_counters().migrations_triggered, 1u);
  EXPECT_EQ(sys.policy_counters().suppressed_hysteresis, 0u);
  EXPECT_EQ(sys.ema_updates(), 8u);
  sys.end(token);
  sys.stop();
}

TEST(LiveAdaptiveTest, HysteresisKeepsAnEvenlySharedObjectHome) {
  LiveSystem sys{adaptive_opts(PolicyKind::Adaptive)};
  sys.register_type("counter", counter_factory());
  sys.start();
  // The object lives with one of its two callers, who take strict turns:
  // the other caller's EMA lead (~0.05) never clears the 0.2 band.
  ASSERT_TRUE(sys.create("obj", counter_state(), 1));
  for (int i = 0; i < 12; ++i) {
    sys.invoke_from(1 + static_cast<std::size_t>(i % 2), "obj", "add", "");
  }
  auto token = sys.move("obj", 2);
  EXPECT_TRUE(token.granted);  // the block itself proceeds (remote calls)
  EXPECT_EQ(sys.location("obj"), std::size_t{1});
  EXPECT_EQ(sys.policy_counters().migrations_triggered, 0u);
  EXPECT_GE(sys.policy_counters().suppressed_hysteresis, 1u);
  sys.end(token);

  // Keep alternating move()s from both callers: the object must not
  // ping-pong (the satellite regression, live edition).
  for (int round = 0; round < 8; ++round) {
    const std::size_t caller = 1 + static_cast<std::size_t>(round % 2);
    sys.invoke_from(caller, "obj", "add", "");
    auto t = sys.move("obj", caller);
    sys.end(t);
  }
  EXPECT_EQ(sys.policy_counters().migrations_triggered, 0u);
  EXPECT_EQ(sys.policy_counters().pingpong_reversals, 0u);
  EXPECT_EQ(sys.location("obj"), std::size_t{1});
  sys.stop();
}

TEST(LiveAdaptiveTest, LoadVetoSuppressesMovesIntoACrowdedNode) {
  LiveSystem sys{adaptive_opts(PolicyKind::AdaptiveLoad)};
  sys.register_type("counter", counter_factory());
  sys.start();
  ASSERT_TRUE(sys.create("obj", counter_state(), 0));
  // 8 bystanders on node 2: 9 objects over 3 nodes, mean 3, cap 6 — node 2
  // would host 9 > 6 after the move.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        sys.create("ballast" + std::to_string(i), counter_state(), 2));
  }
  for (int i = 0; i < 8; ++i) sys.invoke_from(2, "obj", "add", "");
  auto token = sys.move("obj", 2);
  EXPECT_EQ(sys.location("obj"), std::size_t{0});
  EXPECT_GE(sys.policy_counters().suppressed_load, 1u);
  EXPECT_EQ(sys.policy_counters().migrations_triggered, 0u);
  sys.end(token);
  sys.stop();
}

// One single-threaded workload, recorded at the directory layer on the
// logical clock, must yield the identical protocol trace under the InProc
// and the AsyncTcp transport (live_system.hpp's determinism contract) — now
// including the adaptive decision events (refusals, EMA-directed
// migrations).
std::vector<trace::Event> traced_workload(TransportKind transport) {
  trace::TraceLog log;
  LiveSystem::Options opts = adaptive_opts(PolicyKind::Adaptive);
  opts.transport = transport;
  opts.trace = &log;
  LiveSystem sys{opts};
  sys.register_type("counter", counter_factory());
  sys.start();
  sys.create("obj", counter_state(), 0);
  sys.create("peer", counter_state(), 1);
  sys.attach("obj", "peer");
  for (int i = 0; i < 3; ++i) sys.invoke_from(2, "obj", "add", "");
  auto refused = sys.move("obj", 1);  // EMA weight still below the gate...
  sys.end(refused);
  for (int i = 0; i < 6; ++i) sys.invoke_from(2, "obj", "add", "");
  auto granted = sys.move("obj", 1);  // ...then the EMA sends it to node 2
  for (int i = 0; i < 2; ++i) sys.invoke_from(2, "obj", "add", "");
  sys.end(granted);
  sys.stop();
  return log.events();
}

TEST(LiveAdaptiveTest, TraceIsIdenticalAcrossTransports) {
  const std::vector<trace::Event> inproc = traced_workload(TransportKind::InProc);
  const std::vector<trace::Event> tcp =
      traced_workload(TransportKind::AsyncTcp);
  ASSERT_FALSE(inproc.empty());
  ASSERT_EQ(inproc.size(), tcp.size());
  for (std::size_t i = 0; i < inproc.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "event " << i);
    EXPECT_EQ(inproc[i].time, tcp[i].time);
    EXPECT_EQ(inproc[i].kind, tcp[i].kind);
    EXPECT_EQ(inproc[i].object, tcp[i].object);
    EXPECT_EQ(inproc[i].node, tcp[i].node);
    EXPECT_EQ(inproc[i].block, tcp[i].block);
  }
  // The workload drove real adaptive decisions, not an empty trace.
  std::size_t migrations = 0;
  for (const trace::Event& e : inproc) {
    if (e.kind == trace::EventKind::MigrationEnd) ++migrations;
  }
  EXPECT_GE(migrations, 1u);
}

}  // namespace
}  // namespace omig::runtime
