// Transport backends: where each backend delivers a reply, typed send
// errors, TCP reconnect after a reset, and the core equivalence property —
// the same workflow with the same FaultPlan produces the same
// protocol-event trace whether the traffic stays in-process or takes the
// full wire round trip.
#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/live_system.hpp"
#include "trace/log.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"

namespace omig::transport {
namespace {

using runtime::LiveSystem;
using runtime::TransportKind;

constexpr std::size_t kSender = 99;

// --- the socket transport against one real node ---------------------------
//
// The link-behaviour suite for the event-loop AsyncTcpTransport. It accepts
// the send and breaks the reply where a failure is only learnt
// asynchronously, instead of returning a typed rejection.

class TcpLink : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    factories_ = runtime::demo_factories();
    node_ = std::make_unique<runtime::LiveNode>(0, &factories_);
    node_->start();
    server_ = std::make_unique<NodeServer>([this](Frame frame) {
      return serve_on_mailbox(node_->mailbox(), std::move(frame));
    });
    port_ = server_->start();
    ASSERT_NE(port_, 0);
    AsyncTcpTransport::Options opts;
    opts.peers = {Peer{"127.0.0.1", port_}};
    opts.max_connect_attempts = 2;
    opts.connect_backoff = std::chrono::milliseconds{1};
    tcp_ = std::make_unique<AsyncTcpTransport>(std::move(opts), nullptr);
  }

  void TearDown() override {
    tcp_.reset();
    server_->stop();
    node_->stop();
  }

  bool install(const std::string& name, runtime::ObjectState state) {
    WireInstall msg;
    msg.seq = next_seq_++;
    msg.name = name;
    msg.state = std::move(state);
    std::future<bool> done;
    if (tcp_->send_install(kSender, 0, msg, done) != SendStatus::Ok) {
      return false;
    }
    return done.get();
  }

  std::unordered_map<std::string, runtime::ObjectFactory> factories_;
  std::unique_ptr<runtime::LiveNode> node_;
  std::unique_ptr<NodeServer> server_;
  std::unique_ptr<AsyncTcpTransport> tcp_;
  std::uint16_t port_ = 0;
  std::uint64_t next_seq_ = 1;
};

INSTANTIATE_TEST_SUITE_P(Backends, TcpLink,
                         ::testing::Values(TransportKind::AsyncTcp),
                         [](const auto&) { return "AsyncTcp"; });

TEST_P(TcpLink, RequestReplyRoundTrip) {
  ASSERT_TRUE(install("c", runtime::make_state("counter", {{"count", "5"}})));

  WireInvoke msg;
  msg.seq = next_seq_++;
  msg.object = "c";
  msg.method = "add";
  msg.argument = "3";
  std::future<runtime::InvokeResult> reply;
  ASSERT_EQ(tcp_->send_invoke(kSender, 0, msg, reply), SendStatus::Ok);
  const runtime::InvokeResult result = reply.get();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.value, "8");

  WireEvict evict;
  evict.seq = next_seq_++;
  evict.name = "c";
  std::future<runtime::ObjectState> state;
  ASSERT_EQ(tcp_->send(kSender, 0, evict, state), SendStatus::Ok);
  const runtime::ObjectState evicted = state.get();
  EXPECT_EQ(evicted.type, "counter");
  EXPECT_EQ(evicted.fields.at("count"), "8");
}

TEST_P(TcpLink, AnswerArrivesThroughTheDeferredFuture) {
  ASSERT_TRUE(install("c", runtime::make_state("counter", {{"count", "2"}})));
  WireInvoke msg;
  msg.seq = next_seq_++;
  msg.object = "c";
  msg.method = "get";
  runtime::ReplySlot<runtime::InvokeResult> slot;
  ASSERT_EQ(tcp_->send(kSender, 0, msg, slot), SendStatus::Ok);
  // The envelope outlives send(): its answer was deferred, never written
  // into the slot itself.
  EXPECT_FALSE(slot.value.has_value());
  ASSERT_TRUE(slot.deferred.valid());
  EXPECT_EQ(slot.deferred.get().value, "2");
  EXPECT_FALSE(slot.value.has_value());
}

TEST_P(TcpLink, ManyInFlightRequestsDemultiplexByCorrelation) {
  ASSERT_TRUE(install("c", runtime::make_state("counter", {{"count", "0"}})));
  // Issue a burst of invokes before reading any reply: every future must
  // get *its* answer back (correlation IDs, not ordering luck).
  constexpr int kBurst = 64;
  std::vector<std::future<runtime::InvokeResult>> replies(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    WireInvoke msg;
    msg.seq = next_seq_++;
    msg.object = "c";
    msg.method = "add";
    msg.argument = "1";
    ASSERT_EQ(tcp_->send_invoke(kSender, 0, msg, replies[i]), SendStatus::Ok);
  }
  std::vector<std::string> values;
  for (auto& reply : replies) {
    const runtime::InvokeResult result = reply.get();
    ASSERT_TRUE(result.ok);
    values.push_back(result.value);
  }
  // The node serves one connection in order, so the final count is exact.
  EXPECT_EQ(values.back(), std::to_string(kBurst));
}

TEST_P(TcpLink, UnknownPeerIsUnreachable) {
  WireInvoke msg;
  msg.object = "c";
  std::future<runtime::InvokeResult> reply;
  EXPECT_EQ(tcp_->send_invoke(kSender, 7, msg, reply),
            SendStatus::Unreachable);
}

TEST_P(TcpLink, DeadListenerIsUnreachableAndRecoversOnRestart) {
  ASSERT_TRUE(install("c", runtime::make_state("counter", {{"count", "1"}})));
  server_->stop();

  WireInvoke msg;
  msg.seq = next_seq_++;
  msg.object = "c";
  msg.method = "get";
  std::future<runtime::InvokeResult> reply;
  // The transport accepts every send; a dead peer surfaces as the
  // broken-promise "lost in flight" signal once the connect budget is
  // exhausted — never as a hang.
  ASSERT_EQ(tcp_->send_invoke(kSender, 0, msg, reply), SendStatus::Ok);
  EXPECT_THROW(reply.get(), std::future_error);

  // Restart on the same port (the node itself kept running, so the object
  // is still there) — the transport reconnects transparently.
  ASSERT_EQ(server_->start(port_), port_);
  std::future<runtime::InvokeResult> after;
  ASSERT_EQ(tcp_->send_invoke(kSender, 0, msg, after), SendStatus::Ok);
  EXPECT_EQ(after.get().value, "1");
  EXPECT_GE(tcp_->reconnects(), 1u);
}

TEST_P(TcpLink, OversizedFrameIsRejectedWithoutKillingTheLink) {
  ASSERT_TRUE(install("c", runtime::make_state("counter", {{"count", "1"}})));
  WireInstall big;
  big.seq = next_seq_++;
  big.name = "blob";
  big.state.type = "counter";
  big.state.fields["payload"] = std::string(kMaxFramePayload + 1, 'x');
  std::future<bool> done;
  EXPECT_EQ(tcp_->send_install(kSender, 0, big, done), SendStatus::Oversized);
  EXPECT_THROW(done.get(), std::future_error);  // reply broke, typed status

  // The connection survived: normal traffic still flows.
  WireInvoke msg;
  msg.seq = next_seq_++;
  msg.object = "c";
  msg.method = "get";
  std::future<runtime::InvokeResult> reply;
  ASSERT_EQ(tcp_->send_invoke(kSender, 0, msg, reply), SendStatus::Ok);
  EXPECT_EQ(reply.get().value, "1");
}

// --- in-proc reply delivery and typed errors --------------------------------

/// A node hosting counter "c", served in-process through `injector`.
class InProcReplies : public ::testing::Test {
protected:
  void SetUp() override {
    factories_ = runtime::demo_factories();
    node_ = std::make_unique<runtime::LiveNode>(0, &factories_);
    node_->open();
    WireInstall install{.seq = 1,
                        .name = "c",
                        .state = runtime::make_state("counter",
                                                     {{"count", "0"}})};
    ASSERT_EQ(node_->serve(install), std::optional<bool>{true});
  }
  void TearDown() override { node_->stop(); }

  InProcTransport transport(fault::FaultInjector* injector = nullptr) {
    return InProcTransport{
        [this](std::size_t to) { return to == 0 ? node_.get() : nullptr; },
        injector};
  }
  static WireInvoke add(std::uint64_t seq) {
    return WireInvoke{.seq = seq, .object = "c", .method = "add",
                      .argument = "1"};
  }

  std::unordered_map<std::string, runtime::ObjectFactory> factories_;
  std::unique_ptr<runtime::LiveNode> node_;
};

TEST_F(InProcReplies, AnswerLandsInTheSendersSlotBeforeSendReturns) {
  InProcTransport inproc = transport();
  runtime::ReplySlot<runtime::InvokeResult> slot;
  ASSERT_EQ(inproc.send(kSender, 0, add(2), slot), SendStatus::Ok);
  ASSERT_TRUE(slot.value.has_value());
  EXPECT_TRUE(slot.value->ok);
  EXPECT_EQ(slot.value->value, "1");
  EXPECT_FALSE(slot.deferred.valid());  // no promise, no future
}

TEST_F(InProcReplies, InjectedDropLeavesTheSlotEmpty) {
  fault::FaultInjector injector{fault::parse_plan_text("drop * * 1.0\n")};
  InProcTransport inproc = transport(&injector);
  runtime::ReplySlot<runtime::InvokeResult> slot;
  ASSERT_EQ(inproc.send(kSender, 0, add(2), slot), SendStatus::Ok);
  EXPECT_FALSE(slot.value.has_value());
  EXPECT_FALSE(slot.deferred.valid());
  EXPECT_EQ(node_->processed(), 1u);  // only the set-up install
}

TEST_F(InProcReplies, DuplicateIsServedFirstAndTheOriginalIsTheDedupHit) {
  fault::FaultInjector injector{fault::parse_plan_text("dup * * 1.0\n")};
  InProcTransport inproc = transport(&injector);
  runtime::ReplySlot<runtime::InvokeResult> slot;
  // Without a seq both copies run: the original's answer shows that the
  // copy ran before it.
  ASSERT_EQ(inproc.send(kSender, 0, add(0), slot), SendStatus::Ok);
  ASSERT_TRUE(slot.value.has_value());
  EXPECT_EQ(slot.value->value, "2");
  EXPECT_EQ(node_->deduplicated(), 0u);
  // Under a seq the copy runs and the original is answered from the
  // node's reply cache.
  ASSERT_EQ(inproc.send(kSender, 0, add(3), slot), SendStatus::Ok);
  ASSERT_TRUE(slot.value.has_value());
  EXPECT_EQ(slot.value->value, "3");
  EXPECT_EQ(node_->deduplicated(), 1u);
}

TEST_F(InProcReplies, DownNodeIsClosedWithAnEmptySlot) {
  InProcTransport inproc = transport();
  runtime::ReplySlot<runtime::InvokeResult> slot;
  EXPECT_EQ(inproc.send(kSender, 3, add(2), slot), SendStatus::Closed);
  EXPECT_FALSE(slot.value.has_value());  // no such node
  node_->crash();
  EXPECT_EQ(inproc.send(kSender, 0, add(2), slot), SendStatus::Closed);
  EXPECT_FALSE(slot.value.has_value());
  EXPECT_FALSE(slot.deferred.valid());
}

TEST_F(InProcReplies, FutureShorthandsDeferUpFront) {
  InProcTransport inproc = transport();
  std::future<bool> installed;
  ASSERT_EQ(inproc.send_install(
                kSender, 0,
                WireInstall{.seq = 2,
                            .name = "d",
                            .state = runtime::make_state("counter",
                                                         {{"count", "4"}})},
                installed),
            SendStatus::Ok);
  // Served on this thread: the future is ready when send() returns.
  ASSERT_EQ(installed.wait_for(std::chrono::seconds{0}),
            std::future_status::ready);
  EXPECT_TRUE(installed.get());
  std::future<runtime::InvokeResult> reply;
  ASSERT_EQ(inproc.send_invoke(kSender, 0,
                               WireInvoke{.seq = 3, .object = "d",
                                          .method = "get", .argument = ""},
                               reply),
            SendStatus::Ok);
  ASSERT_EQ(reply.wait_for(std::chrono::seconds{0}),
            std::future_status::ready);
  EXPECT_EQ(reply.get().value, "4");
}

TEST(InProcTransportTest, DownNodeYieldsTypedError) {
  auto factories = runtime::demo_factories();
  runtime::LiveNode node{0, &factories};
  node.start();
  InProcTransport transport{
      [&](std::size_t to) { return to == 0 ? &node : nullptr; }, nullptr};

  WireInvoke msg;
  msg.seq = 1;
  msg.object = "nothing";
  msg.method = "get";
  std::future<runtime::InvokeResult> reply;
  EXPECT_EQ(transport.send_invoke(kSender, 0, msg, reply), SendStatus::Ok);
  EXPECT_FALSE(reply.get().ok);  // unknown object, but delivered

  EXPECT_EQ(transport.send_invoke(kSender, 3, msg, reply),
            SendStatus::Closed);  // no such node

  node.crash();
  EXPECT_EQ(transport.send_invoke(kSender, 0, msg, reply),
            SendStatus::Closed);  // crashed: the node rejects
  node.stop();
}

// --- LiveSystem over both backends ------------------------------------------

LiveSystem::Options system_options(TransportKind kind, std::size_t nodes,
                                   trace::TraceLog* trace = nullptr) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.transport = kind;
  opts.trace = trace;
  opts.max_retries = 8;
  opts.retry_backoff = std::chrono::milliseconds{1};
  return opts;
}

/// The deterministic mini-workflow used for the equivalence checks: one
/// driver thread, so directory events are totally ordered.
void run_workflow(LiveSystem& sys) {
  runtime::register_demo_types(sys);
  sys.start();
  ASSERT_TRUE(
      sys.create("case-1", runtime::make_state("case-file", {{"log", ""}}),
                 0));
  ASSERT_TRUE(sys.create(
      "ledger", runtime::make_state("ledger", {{"total", "0"}}), 2));
  ASSERT_TRUE(sys.attach("case-1", "ledger", "billing"));

  auto intake = sys.visit("case-1", 1, "intake");
  ASSERT_TRUE(intake.granted);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys.invoke_from(1, "case-1", "append", "intake").ok);
  }
  sys.end(intake);

  auto billing = sys.move("case-1", 2, "billing");
  ASSERT_TRUE(billing.granted);
  ASSERT_TRUE(sys.invoke_from(2, "ledger", "bill", "").ok);
  ASSERT_TRUE(sys.invoke_from(2, "case-1", "append", "billed").ok);
  auto conflicting = sys.move("case-1", 0, "archive");
  EXPECT_FALSE(conflicting.granted);
  sys.end(conflicting);
  sys.end(billing);

  sys.fix("ledger");
  auto pinned = sys.move("case-1", 0, "billing");
  ASSERT_TRUE(pinned.granted);
  sys.end(pinned);
  sys.unfix("ledger");

  EXPECT_EQ(sys.invoke("case-1", "entries", "").value, "5");
  EXPECT_EQ(sys.invoke("ledger", "total", "").value, "10");
}

TEST(TransportEquivalence, TcpBackendRunsTheWorkflowIdentically) {
  for (const TransportKind kind :
       {TransportKind::InProc, TransportKind::AsyncTcp}) {
    LiveSystem sys{system_options(kind, 3)};
    run_workflow(sys);
    EXPECT_EQ(sys.refused_moves(), 1u);
    EXPECT_EQ(sys.send_rejections(), 0u);
    sys.stop();
  }
}

TEST(TransportEquivalence, ProtocolTracesMatchAcrossBackends) {
  trace::TraceLog inproc_trace;
  trace::TraceLog async_trace;
  {
    LiveSystem sys{system_options(TransportKind::InProc, 3, &inproc_trace)};
    run_workflow(sys);
    sys.stop();
  }
  {
    LiveSystem sys{system_options(TransportKind::AsyncTcp, 3, &async_trace)};
    run_workflow(sys);
    sys.stop();
  }
  ASSERT_GT(inproc_trace.size(), 0u);
  // Identical protocol history, event for event, on the logical clock —
  // whether traffic stays in-process or multiplexes through the proactor
  // loop.
  EXPECT_EQ(inproc_trace.render(10'000), async_trace.render(10'000));
  // And the history is not just equal but *valid*.
  EXPECT_EQ(trace::check::locks_balance(inproc_trace), "");
  EXPECT_EQ(trace::check::transits_alternate(inproc_trace), "");
  EXPECT_EQ(trace::check::refused_blocks_never_migrate(inproc_trace), "");
}

TEST(TransportEquivalence, TracesMatchUnderTheSameFaultPlan) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.links.push_back(fault::LinkFault{fault::kAnyNode, fault::kAnyNode,
                                        0.10, 0.10, 0.1});
  auto run = [&](TransportKind kind, trace::TraceLog* log) {
    LiveSystem::Options opts = system_options(kind, 3, log);
    opts.fault_plan = plan;
    LiveSystem sys{opts};
    run_workflow(sys);
    const std::uint64_t dropped = sys.dropped_messages();
    sys.stop();
    return dropped;
  };
  trace::TraceLog inproc_trace;
  trace::TraceLog async_trace;
  const std::uint64_t inproc_dropped = run(TransportKind::InProc,
                                           &inproc_trace);
  const std::uint64_t async_dropped = run(TransportKind::AsyncTcp,
                                          &async_trace);
  // Same seed, same delivery order, same injector stream: identical fault
  // sequences and identical protocol histories on every backend. The
  // async backend consumes the injector stream on the caller's thread
  // precisely so this holds.
  EXPECT_EQ(inproc_dropped, async_dropped);
  EXPECT_EQ(inproc_trace.render(10'000), async_trace.render(10'000));
  EXPECT_EQ(trace::check::locks_balance(async_trace), "");
  EXPECT_EQ(trace::check::transits_alternate(async_trace), "");
}

TEST(TransportFaults, CrashedNodeCountsTypedRejections) {
  LiveSystem::Options opts = system_options(TransportKind::InProc, 2);
  opts.max_retries = 2;
  LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();
  ASSERT_TRUE(
      sys.create("c", runtime::make_state("counter", {{"count", "0"}}), 1));
  sys.crash_node(1);
  const runtime::InvokeResult result = sys.invoke("c", "add", "1");
  EXPECT_FALSE(result.ok);
  // Every delivery attempt was rejected by the closed mailbox — counted,
  // not inferred from broken promises.
  EXPECT_GE(sys.send_rejections(), 3u);
  sys.stop();
}

TEST(TransportFaults, AsyncTcpCrashRestartRecoversObjects) {
  LiveSystem::Options opts = system_options(TransportKind::AsyncTcp, 2);
  opts.max_retries = 4;
  LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();
  ASSERT_TRUE(
      sys.create("c", runtime::make_state("counter", {{"count", "0"}}), 1));
  ASSERT_TRUE(sys.invoke("c", "add", "5").ok);

  sys.crash_node(1);
  EXPECT_FALSE(sys.node_up(1));
  // The async backend accepts the sends and breaks the replies once the
  // reconnect budget runs dry; the retry layer turns that into a failed
  // invoke, not a hang. (No typed-rejection count here: every send
  // returned Ok — the loss is asynchronous by design.)
  EXPECT_FALSE(sys.invoke("c", "get", "").ok);

  sys.restart_node(1);
  EXPECT_TRUE(sys.node_up(1));
  const runtime::InvokeResult result = sys.invoke("c", "get", "");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.value, "0");
  EXPECT_EQ(sys.recoveries(), 1u);
  EXPECT_GE(sys.transport_reconnects(), 1u);
  sys.stop();
}

}  // namespace
}  // namespace omig::transport
