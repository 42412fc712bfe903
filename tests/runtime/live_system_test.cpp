#include "runtime/live_system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/demo_types.hpp"
#include "trace/log.hpp"

namespace omig::runtime {
namespace {

using migration::PolicyKind;

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

std::unique_ptr<LiveSystem> make_system(std::size_t nodes,
                                        bool placement = true,
                                        bool a_transitive = false) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.policy = placement ? PolicyKind::Placement : PolicyKind::Conventional;
  opts.a_transitive_attachments = a_transitive;
  auto sys = std::make_unique<LiveSystem>(opts);
  sys->register_type("counter", counter_factory());
  sys->start();
  return sys;
}

TEST(LiveSystemTest, CreateAndInvoke) {
  auto sys = make_system(2);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  EXPECT_EQ(sys->location("c"), 0u);
  auto r = sys->invoke("c", "inc", "");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, "1");
  EXPECT_EQ(sys->invoke("c", "get", "").value, "1");
  EXPECT_EQ(sys->invocations(), 2u);
}

TEST(LiveSystemTest, DuplicateCreateFails) {
  auto sys = make_system(2);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  EXPECT_FALSE(sys->create("c", counter_state(), 1));
}

TEST(LiveSystemTest, UnknownTypeFails) {
  auto sys = make_system(2);
  ObjectState s;
  s.type = "nonsense";
  EXPECT_FALSE(sys->create("x", s, 0));
}

TEST(LiveSystemTest, UnknownObjectInvokeFails) {
  auto sys = make_system(2);
  const auto r = sys->invoke("ghost", "get", "");
  EXPECT_FALSE(r.ok);
}

TEST(LiveSystemTest, MigrationPreservesState) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->invoke("c", "inc", "");
  sys->invoke("c", "inc", "");
  ASSERT_TRUE(sys->migrate("c", 2));
  EXPECT_EQ(sys->location("c"), 2u);
  EXPECT_EQ(sys->invoke("c", "get", "").value, "2");
  EXPECT_EQ(sys->migrations(), 1u);
}

TEST(LiveSystemTest, FixPreventsMigration) {
  auto sys = make_system(2);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  sys->fix("c");
  EXPECT_TRUE(sys->is_fixed("c"));
  sys->migrate("c", 1);
  EXPECT_EQ(sys->location("c"), 0u);  // stayed
  sys->unfix("c");
  sys->migrate("c", 1);
  EXPECT_EQ(sys->location("c"), 1u);
}

TEST(LiveSystemTest, AttachmentsMigrateTogether) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("a", counter_state(), 0));
  ASSERT_TRUE(sys->create("b", counter_state(), 1));
  EXPECT_TRUE(sys->attach("a", "b"));
  EXPECT_FALSE(sys->attach("a", "b"));  // duplicate ignored
  sys->migrate("a", 2);
  EXPECT_EQ(sys->location("a"), 2u);
  EXPECT_EQ(sys->location("b"), 2u);
  EXPECT_TRUE(sys->detach("a", "b"));
  sys->migrate("a", 0);
  EXPECT_EQ(sys->location("b"), 2u);  // no longer dragged
}

TEST(LiveSystemTest, ATransitiveAttachmentRestriction) {
  auto sys = make_system(3, /*placement=*/true, /*a_transitive=*/true);
  ASSERT_TRUE(sys->create("s", counter_state(), 0));
  ASSERT_TRUE(sys->create("mine", counter_state(), 0));
  ASSERT_TRUE(sys->create("foreign", counter_state(), 0));
  sys->attach("s", "mine", "my-alliance");
  sys->attach("s", "foreign", "their-alliance");
  sys->migrate("s", 2, "my-alliance");
  EXPECT_EQ(sys->location("s"), 2u);
  EXPECT_EQ(sys->location("mine"), 2u);
  EXPECT_EQ(sys->location("foreign"), 0u);  // other context: not dragged
}

TEST(LiveSystemTest, PlacementRefusesConflictingMove) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto first = sys->move("c", 1);
  EXPECT_TRUE(first.granted);
  EXPECT_EQ(sys->location("c"), 1u);
  auto second = sys->move("c", 2);
  EXPECT_FALSE(second.granted);  // transient placement: refused
  EXPECT_EQ(sys->location("c"), 1u);
  EXPECT_EQ(sys->refused_moves(), 1u);
  sys->end(first);
  auto third = sys->move("c", 2);
  EXPECT_TRUE(third.granted);
  EXPECT_EQ(sys->location("c"), 2u);
  sys->end(third);
}

TEST(LiveSystemTest, ConventionalMoveAlwaysSteals) {
  auto sys = make_system(3, /*placement=*/false);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto first = sys->move("c", 1);
  auto second = sys->move("c", 2);
  EXPECT_TRUE(first.granted);
  EXPECT_TRUE(second.granted);
  EXPECT_EQ(sys->location("c"), 2u);  // stolen
  EXPECT_EQ(sys->refused_moves(), 0u);
}

TEST(LiveSystemTest, VisitMigratesBack) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto token = sys->visit("c", 2);
  ASSERT_TRUE(token.granted);
  EXPECT_EQ(sys->location("c"), 2u);
  sys->invoke_from(2, "c", "inc", "");
  sys->end(token);
  EXPECT_EQ(sys->location("c"), 0u);  // back home
  EXPECT_EQ(sys->invoke("c", "get", "").value, "1");  // state survived both trips
  EXPECT_EQ(sys->migrations(), 2u);
}

TEST(LiveSystemTest, VisitOfClusterReturnsEveryMember) {
  auto sys = make_system(4);
  ASSERT_TRUE(sys->create("a", counter_state(), 0));
  ASSERT_TRUE(sys->create("b", counter_state(), 1));
  sys->attach("a", "b");
  auto token = sys->visit("a", 3);
  EXPECT_EQ(sys->location("a"), 3u);
  EXPECT_EQ(sys->location("b"), 3u);
  sys->end(token);
  EXPECT_EQ(sys->location("a"), 0u);
  EXPECT_EQ(sys->location("b"), 1u);  // each member returns to ITS origin
}

TEST(LiveSystemTest, ClusterTransferIsOnePhase) {
  // A transfer moves its members in parallel (docs/MODEL.md §5): it claims
  // them all, then settles them all. The visit's return trips go to three
  // different origins, yet they too are one transfer.
  trace::TraceLog log;
  LiveSystem::Options opts;
  opts.nodes = 4;
  opts.trace = &log;
  LiveSystem sys{opts};
  sys.register_type("counter", counter_factory());
  sys.start();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(sys.create("m" + std::to_string(i), counter_state(), i));
  }
  sys.attach("m0", "m1");
  sys.attach("m1", "m2");
  auto token = sys.visit("m0", 3);
  ASSERT_TRUE(token.granted);
  sys.end(token);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sys.location("m" + std::to_string(i)), i);
  }
  // S = MigrationStart, E = MigrationEnd, | = the end-request.
  std::string phases;
  for (const trace::Event& e : log.events()) {
    if (e.kind == trace::EventKind::MigrationStart) phases += 'S';
    if (e.kind == trace::EventKind::MigrationEnd) phases += 'E';
    if (e.kind == trace::EventKind::BlockEnd) phases += '|';
  }
  EXPECT_EQ(phases, "SSSEEE|SSSEEE");
}

TEST(LiveSystemTest, RemoteLatencyIsPaidOncePerTransfer) {
  LiveSystem::Options opts;
  opts.nodes = 4;
  opts.remote_latency = std::chrono::milliseconds{20};
  LiveSystem sys{opts};
  sys.register_type("counter", counter_factory());
  sys.start();
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(sys.create("m" + std::to_string(i), counter_state(), i % 3));
    if (i > 0) sys.attach("m0", "m" + std::to_string(i));
  }
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(sys.migrate("m0", 3));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sys.location("m" + std::to_string(i)), 3u);
  }
  // The members move in parallel: one member's latency, not six.
  EXPECT_GE(elapsed, std::chrono::milliseconds{20});
  EXPECT_LT(elapsed, std::chrono::milliseconds{60});
}

TEST(LiveSystemTest, RefusedVisitDoesNothingOnEnd) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto holder = sys->move("c", 1);
  auto refused = sys->visit("c", 2);
  EXPECT_FALSE(refused.granted);
  sys->end(refused);
  EXPECT_EQ(sys->location("c"), 1u);  // untouched
  sys->end(holder);
}

TEST(LiveSystemTest, ConcurrentInvokersSeeConsistentCounter) {
  auto sys = make_system(4);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sys] {
      for (int i = 0; i < kPerThread; ++i) sys->invoke("c", "inc", "");
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(sys->invoke("c", "get", "").value,
            std::to_string(kThreads * kPerThread));
}

TEST(LiveSystemTest, InvokeDuringMigrationNeverFails) {
  auto sys = make_system(4);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread invoker{[&] {
    while (!stop.load()) {
      if (!sys->invoke("c", "inc", "").ok) failures.fetch_add(1);
    }
  }};
  // Bounce the object around while it is being invoked.
  for (int i = 0; i < 50; ++i) sys->migrate("c", i % 4);
  stop.store(true);
  invoker.join();
  EXPECT_EQ(failures.load(), 0);
  // Only the very first migrate (0 → 0) is a no-op; the rest all relocate.
  EXPECT_EQ(sys->migrations(), 49u);
}

// The live runtime runs the simulator's protocol core, so every PolicyKind
// works here too — not only the placement pair.
std::unique_ptr<LiveSystem> make_system(std::size_t nodes,
                                        PolicyKind policy) {
  LiveSystem::Options opts;
  opts.nodes = nodes;
  opts.policy = policy;
  auto sys = std::make_unique<LiveSystem>(opts);
  sys->register_type("counter", counter_factory());
  sys->start();
  return sys;
}

TEST(LiveSystemTest, SedentaryNeverMoves) {
  auto sys = make_system(3, PolicyKind::Sedentary);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  auto token = sys->visit("c", 2);
  EXPECT_TRUE(token.granted);
  EXPECT_EQ(sys->location("c"), 0u);
  sys->end(token);
  EXPECT_EQ(sys->location("c"), 0u);
  EXPECT_EQ(sys->migrations(), 0u);
}

TEST(LiveSystemTest, LoadShareMovesToTheLeastLoadedNode) {
  auto sys = make_system(3, PolicyKind::LoadShare);
  ASSERT_TRUE(sys->create("a", counter_state(), 0));
  ASSERT_TRUE(sys->create("b", counter_state(), 0));
  ASSERT_TRUE(sys->create("c", counter_state(), 1));
  // Node 1 asks; node 2 hosts nothing, so that is where "a" goes.
  auto token = sys->move("a", 1);
  EXPECT_EQ(sys->location("a"), 2u);
  sys->end(token);
}

TEST(LiveSystemTest, ComparingNodesMovesOnStrictMajorities) {
  for (const auto kind : {PolicyKind::CompareNodes,
                          PolicyKind::CompareReinstantiate}) {
    auto sys = make_system(3, kind);
    ASSERT_TRUE(sys->create("c", counter_state(), 0));
    auto x1 = sys->move("c", 1);  // 1 open request beats 0: migrates
    auto x2 = sys->move("c", 1);
    EXPECT_EQ(sys->location("c"), 1u);
    auto y1 = sys->move("c", 2);  // 1 vs 2 open requests: stays
    auto y2 = sys->move("c", 2);  // 2 vs 2: still no strict majority
    EXPECT_TRUE(y2.granted);
    EXPECT_EQ(sys->location("c"), 1u);
    // This end leaves node 2 with a clear majority (2 vs 1): only
    // comparing-and-reinstantiation acts on it.
    sys->end(x1);
    EXPECT_EQ(sys->location("c"),
              kind == PolicyKind::CompareReinstantiate ? 2u : 1u);
    sys->end(x2);
    sys->end(y1);
    sys->end(y2);
  }
}

std::string this_thread_name() {
  std::ostringstream id;
  id << std::this_thread::get_id();
  return id.str();
}

/// A type whose "where" method names the thread that runs it.
ObjectFactory thread_probe_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("where", [](ObjectState&, const std::string&) {
      return this_thread_name();
    });
    return obj;
  };
}

const char* backend_name(TransportKind kind) {
  return kind == TransportKind::InProc ? "InProc" : "AsyncTcp";
}

TEST(LiveSystemTest, HandlersRunOnTheCallerInProcAndOnTheLoopOverTcp) {
  for (const TransportKind kind :
       {TransportKind::InProc, TransportKind::AsyncTcp}) {
    SCOPED_TRACE(backend_name(kind));
    LiveSystem::Options opts;
    opts.nodes = 3;
    opts.transport = kind;
    LiveSystem sys{opts};
    sys.register_type("probe", thread_probe_factory());
    sys.start();
    std::set<std::string> runners;
    for (std::size_t node = 0; node < 3; ++node) {
      const std::string name = "p" + std::to_string(node);
      ASSERT_TRUE(
          sys.create(name, ObjectState{.type = "probe", .fields = {}}, node));
      const InvokeResult r = sys.invoke_from(node, name, "where", "");
      ASSERT_TRUE(r.ok);
      runners.insert(r.value);
    }
    std::string other_caller;
    std::string other_runner;
    std::thread other{[&] {
      other_caller = this_thread_name();
      other_runner = sys.invoke("p0", "where", "").value;
    }};
    other.join();
    // In process each node runs the method on whichever thread invokes it;
    // over a socket every node's handler runs on the one event loop.
    ASSERT_EQ(runners.size(), 1u);
    if (kind == TransportKind::InProc) {
      EXPECT_EQ(*runners.begin(), this_thread_name());
      EXPECT_EQ(other_runner, other_caller);
    } else {
      EXPECT_NE(*runners.begin(), this_thread_name());
      EXPECT_EQ(other_runner, *runners.begin());
    }
  }
}

TEST(LiveSystemTest, ConcurrentCallersAndMigrationsConserveCounters) {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kCounters = 16;
  constexpr int kCallers = 4;
  constexpr int kAddsPerCaller = 500;
  for (const TransportKind kind :
       {TransportKind::InProc, TransportKind::AsyncTcp}) {
    SCOPED_TRACE(backend_name(kind));
    LiveSystem::Options opts;
    opts.nodes = kNodes;
    opts.transport = kind;
    LiveSystem sys{opts};
    register_demo_types(sys);
    sys.start();
    const auto name = [](std::size_t i) { return "c" + std::to_string(i); };
    // Four clusters of four counters, each cluster spread over all nodes.
    for (std::size_t i = 0; i < kCounters; ++i) {
      ASSERT_TRUE(
          sys.create(name(i), make_state("counter", {{"count", "0"}}),
                     i % kNodes));
      if (i >= kNodes) {
        ASSERT_TRUE(sys.attach(name(i - kNodes), name(i)));
      }
    }
    std::array<std::atomic<int>, kCounters> acked{};
    std::atomic<bool> done{false};
    std::thread migrator{[&] {
      for (std::size_t round = 0; !done.load() || round < 8; ++round) {
        sys.migrate(name(round % kNodes), (round / kNodes + 1) % kNodes);
      }
    }};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < kAddsPerCaller; ++i) {
          const std::size_t c = static_cast<std::size_t>(t * 7 + i) % kCounters;
          const auto from = static_cast<std::size_t>(t + i) % kNodes;
          if (sys.invoke_from(from, name(c), "add", "1").ok) ++acked[c];
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    done.store(true);
    migrator.join();
    EXPECT_GT(sys.migrations(), 0u);
    // Every counter holds exactly its acked adds, and answers a local
    // invoke at the node the directory names.
    int total = 0;
    const std::uint64_t remote_before = sys.remote_invocations();
    for (std::size_t i = 0; i < kCounters; ++i) {
      const std::optional<std::size_t> at = sys.location(name(i));
      ASSERT_TRUE(at.has_value());
      const InvokeResult r = sys.invoke_from(*at, name(i), "get", "");
      ASSERT_TRUE(r.ok) << name(i);
      EXPECT_EQ(r.value, std::to_string(acked[i].load())) << name(i);
      total += acked[i].load();
    }
    EXPECT_EQ(sys.remote_invocations(), remote_before);
    EXPECT_EQ(total, kCallers * kAddsPerCaller);
  }
}

TEST(LiveSystemTest, AThrowingMethodFailsOnlyItsCall) {
  for (const TransportKind kind :
       {TransportKind::InProc, TransportKind::AsyncTcp}) {
    SCOPED_TRACE(backend_name(kind));
    LiveSystem::Options opts;
    opts.nodes = 2;
    opts.transport = kind;
    LiveSystem sys{opts};
    register_demo_types(sys);
    sys.start();
    ASSERT_TRUE(sys.create("c", make_state("counter", {{"count", "0"}}), 1));
    // The demo counter parses its argument, so a bad one throws inside the
    // handler — on the caller's thread in process, on the loop over TCP.
    const InvokeResult bad = sys.invoke_from(0, "c", "add", "many");
    EXPECT_FALSE(bad.ok);
    EXPECT_TRUE(bad.value.starts_with("method add failed: ")) << bad.value;
    EXPECT_EQ(sys.invoke_from(0, "c", "add", "2").value, "2");
  }
}

TEST(LiveNodeTest, DoubleStartAndDoubleStopAreIdempotent) {
  const std::unordered_map<std::string, ObjectFactory> factories;
  LiveNode node{0, &factories};
  EXPECT_FALSE(node.running());
  node.start();
  node.start();  // no-op
  EXPECT_TRUE(node.running());
  node.stop();
  node.stop();  // no-op
  EXPECT_FALSE(node.running());
  node.start();  // restartable after a graceful stop
  EXPECT_TRUE(node.running());
}

TEST(LiveNodeTest, ConcurrentStartStopCyclesAreSafe) {
  const std::unordered_map<std::string, ObjectFactory> factories;
  LiveNode node{0, &factories};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&node] {
      for (int i = 0; i < 25; ++i) {
        node.start();
        node.stop();
      }
    });
  }
  for (auto& t : threads) t.join();
  node.stop();
  EXPECT_FALSE(node.running());
}

TEST(LiveNodeTest, CrashAndRestartOnStoppedNodeAreNoops) {
  const std::unordered_map<std::string, ObjectFactory> factories;
  LiveNode node{0, &factories};
  node.crash();  // not running: nothing to kill
  EXPECT_FALSE(node.running());
  node.start();
  node.restart();  // still running: nothing to do
  EXPECT_TRUE(node.running());
  node.crash();
  EXPECT_FALSE(node.running());
  node.restart();
  EXPECT_TRUE(node.running());
  EXPECT_EQ(node.hosted_objects(), 0u);  // crash dropped all state
}

TEST(LiveNodeTest, ReplacingInstallCountsTheObjectOnce) {
  const std::unordered_map<std::string, ObjectFactory> factories{
      {"counter", counter_factory()}};
  LiveNode node{0, &factories};
  node.start();
  // Two installs of one name (a put-back onto a source that kept its
  // copy): the node hosts one object.
  for (const std::uint64_t seq : {1u, 2u}) {
    std::future<bool> installed;
    ASSERT_EQ(node.mailbox().push(envelop(
                  transport::WireInstall{
                      .seq = seq, .name = "c", .state = counter_state()},
                  installed)),
              PushStatus::Ok);
    EXPECT_TRUE(installed.get());
  }
  EXPECT_EQ(node.hosted_objects(), 1u);
  node.stop();
}

TEST(LiveNodeTest, DuplicateEvictAnswersTheFirstDeliveryState) {
  const std::unordered_map<std::string, ObjectFactory> factories{
      {"counter", counter_factory()}};
  LiveNode node{0, &factories};
  node.open();
  transport::WireInstall install{
      .seq = 1, .name = "c", .state = counter_state()};
  ASSERT_EQ(node.serve(install), std::optional<bool>{true});
  transport::WireInvoke inc{
      .seq = 2, .object = "c", .method = "inc", .argument = ""};
  ASSERT_EQ(node.serve(inc)->value, "1");

  transport::WireEvict evict{.seq = 3, .name = "c"};
  const std::optional<ObjectState> first = node.serve(evict);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fields.at("value"), "1");
  EXPECT_EQ(node.hosted_objects(), 0u);
  // The same evict again: the object is gone, and the answer is the state
  // the first delivery captured.
  EXPECT_EQ(node.serve(evict), first);
  EXPECT_EQ(node.deduplicated(), 1u);

  // The object comes back and moves on; a stale duplicate of the old
  // evict still answers the old state and leaves the resident copy alone.
  transport::WireInstall back{.seq = 4, .name = "c", .state = *first};
  ASSERT_EQ(node.serve(back), std::optional<bool>{true});
  inc.seq = 5;
  ASSERT_EQ(node.serve(inc)->value, "2");
  EXPECT_EQ(node.serve(evict), first);
  EXPECT_EQ(node.deduplicated(), 2u);
  EXPECT_EQ(node.hosted_objects(), 1u);
  transport::WireInvoke get{
      .seq = 6, .object = "c", .method = "get", .argument = ""};
  EXPECT_EQ(node.serve(get)->value, "2");
  node.stop();
}

TEST(LiveNodeTest, ACrashedNodeRejectsDirectRequestsUntilRestart) {
  const std::unordered_map<std::string, ObjectFactory> factories{
      {"counter", counter_factory()}};
  LiveNode node{0, &factories};
  node.open();
  transport::WireInstall install{
      .seq = 1, .name = "c", .state = counter_state()};
  ASSERT_EQ(node.serve(install), std::optional<bool>{true});
  node.crash();
  const transport::WireInvoke get{
      .seq = 2, .object = "c", .method = "get", .argument = ""};
  std::future<InvokeResult> reply;
  EXPECT_EQ(node.serve(envelop(get, reply)), PushStatus::Closed);
  EXPECT_THROW(reply.get(), std::future_error);  // the reply broke
  node.restart();
  EXPECT_EQ(node.serve(envelop(get, reply)), PushStatus::Ok);
  const InvokeResult served = reply.get();
  EXPECT_FALSE(served.ok);  // answered: the crash lost the object
  EXPECT_EQ(served.value, "object not resident: c");
}

TEST(LiveNodeTest, MailboxAndDirectCallsShareOneHandler) {
  const std::unordered_map<std::string, ObjectFactory> factories{
      {"counter", counter_factory()}};
  LiveNode node{0, &factories};
  node.start();
  transport::WireInstall install{
      .seq = 1, .name = "c", .state = counter_state()};
  ASSERT_EQ(node.serve(install), std::optional<bool>{true});
  std::future<InvokeResult> pushed;
  const transport::WireInvoke inc{
      .seq = 2, .object = "c", .method = "inc", .argument = ""};
  ASSERT_EQ(node.mailbox().push(envelop(inc, pushed)), PushStatus::Ok);
  EXPECT_EQ(pushed.get().value, "1");
  transport::WireInvoke get{
      .seq = 3, .object = "c", .method = "get", .argument = ""};
  const std::optional<InvokeResult> direct = node.serve(get);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->value, "1");
  EXPECT_EQ(node.processed(), 3u);
  node.stop();
}

TEST(LiveSystemTest, StopIsIdempotentAndConcurrent) {
  auto sys = make_system(3);
  ASSERT_TRUE(sys->create("c", counter_state(), 0));
  EXPECT_TRUE(sys->invoke("c", "inc", "").ok);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&sys] { sys->stop(); });
  }
  for (auto& t : stoppers) t.join();
  sys->stop();  // and once more for good measure
  sys.reset();  // destructor's stop() is also a no-op
}

}  // namespace
}  // namespace omig::runtime
