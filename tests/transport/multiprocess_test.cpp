// Multi-process integration: real omig_node OS processes coordinated over
// TCP by a remote LiveSystem. The headline scenario kills a node process
// with SIGKILL while its object is wanted elsewhere and verifies the
// migration recovers the object from its directory checkpoint, then
// restarts the process and moves the object back onto it.
//
// The omig_node binary is located through the OMIG_NODE_BIN environment
// variable, falling back to the build-time path the test target compiles
// in (OMIG_NODE_BIN_DEFAULT).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "transport/transport.hpp"

namespace omig::transport {
namespace {

std::string node_binary() {
  if (const char* env = std::getenv("OMIG_NODE_BIN")) return env;
#ifdef OMIG_NODE_BIN_DEFAULT
  return OMIG_NODE_BIN_DEFAULT;
#else
  return "omig_node";
#endif
}

/// One omig_node child process; knows how to (re)spawn itself and read the
/// ephemeral port it published.
struct NodeProcess {
  std::size_t id = 0;
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string port_file;

  bool spawn() {
    std::error_code ec;
    std::filesystem::remove(port_file, ec);  // a fresh launch = a fresh port
    const std::string exe = node_binary();
    const std::string id_arg = std::to_string(id);
    pid = fork();
    if (pid == 0) {
      execl(exe.c_str(), exe.c_str(), "--serve", "--id", id_arg.c_str(),
            "--port-file", port_file.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    if (pid < 0) return false;
    // Wait (bounded) for the port file the child publishes via rename.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    port = 0;
    while (port == 0) {
      std::ifstream in{port_file};
      if (in >> port && port != 0) break;
      port = 0;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    return true;
  }

  void kill_hard() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }

  /// Reaps the child, expecting a clean exit (after a Shutdown frame).
  [[nodiscard]] bool reap_clean() {
    if (pid <= 0) return true;
    int status = 0;
    const bool ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    pid = -1;
    return ok;
  }
};

class MultiProcess : public ::testing::Test {
protected:
  void SetUp() override {
    ASSERT_TRUE(std::filesystem::exists(node_binary()))
        << "omig_node binary not found at " << node_binary()
        << " (set OMIG_NODE_BIN)";
    char dir_template[] = "/tmp/omig-mp-test-XXXXXX";
    ASSERT_NE(mkdtemp(dir_template), nullptr);
    dir_ = dir_template;
  }

  void TearDown() override {
    for (NodeProcess& node : nodes_) node.kill_hard();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void spawn_cluster(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      NodeProcess node;
      node.id = i;
      node.port_file = dir_ + "/node-" + std::to_string(i) + ".port";
      ASSERT_TRUE(node.spawn()) << "node " << i << " did not come up";
      nodes_.push_back(std::move(node));
    }
  }

  [[nodiscard]] std::vector<Peer> peers() const {
    std::vector<Peer> result;
    for (const NodeProcess& node : nodes_) {
      result.push_back(Peer{"127.0.0.1", node.port});
    }
    return result;
  }

  std::string dir_;
  std::vector<NodeProcess> nodes_;
};

TEST_F(MultiProcess, OfficeWorkflowAcrossThreeProcesses) {
  spawn_cluster(3);
  runtime::LiveSystem::Options opts;
  opts.remote_nodes = peers();
  runtime::LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();

  ASSERT_TRUE(sys.create(
      "case-1", runtime::make_state("case-file", {{"log", ""}}), 0));
  ASSERT_TRUE(sys.create(
      "ledger", runtime::make_state("ledger", {{"total", "0"}}), 2));
  ASSERT_TRUE(sys.attach("case-1", "ledger", "billing"));

  auto intake = sys.visit("case-1", 1, "intake");
  ASSERT_TRUE(intake.granted);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sys.invoke_from(1, "case-1", "append", "intake").ok);
  }
  sys.end(intake);

  auto billing = sys.move("case-1", 2, "billing");
  ASSERT_TRUE(billing.granted);
  ASSERT_TRUE(sys.invoke_from(2, "ledger", "bill", "").ok);
  ASSERT_TRUE(sys.invoke_from(2, "case-1", "append", "billed").ok);
  sys.end(billing);

  EXPECT_EQ(sys.invoke("case-1", "entries", "").value, "4");
  EXPECT_EQ(sys.invoke("ledger", "total", "").value, "10");
  EXPECT_GE(sys.migrations(), 3u);  // visit there + back, move
  EXPECT_EQ(sys.send_rejections(), 0u);

  sys.shutdown_remote_nodes();
  for (NodeProcess& node : nodes_) EXPECT_TRUE(node.reap_clean());
  sys.stop();
}

TEST_F(MultiProcess, KilledNodeLosesLiveStateButMigrationRecoversCheckpoint) {
  spawn_cluster(2);
  runtime::LiveSystem::Options opts;
  opts.remote_nodes = peers();
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::milliseconds{1};
  runtime::LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();

  // The object lives on node 1 with post-checkpoint updates (+5).
  ASSERT_TRUE(sys.create(
      "c", runtime::make_state("counter", {{"count", "0"}}), 1));
  ASSERT_TRUE(sys.invoke("c", "add", "5").ok);
  ASSERT_EQ(sys.invoke("c", "get", "").value, "5");

  // SIGKILL the hosting process: live state is gone, the OS resets the
  // coordinator's connection. crash_node records the death in remote mode.
  nodes_[1].kill_hard();
  sys.crash_node(1);
  EXPECT_FALSE(sys.node_up(1));
  EXPECT_FALSE(sys.invoke("c", "get", "").ok);
  EXPECT_GE(sys.retries(), 1u);

  // Migrate the object off the dead node: the evict cannot reach node 1,
  // so the migration recovers the creation checkpoint and installs it on
  // node 0 — degraded (the +5 is lost) but never lost entirely.
  ASSERT_TRUE(sys.migrate("c", 0));
  EXPECT_GE(sys.recoveries(), 1u);
  ASSERT_EQ(sys.location("c"), std::size_t{0});
  EXPECT_EQ(sys.invoke("c", "get", "").value, "0");
  ASSERT_TRUE(sys.invoke("c", "add", "7").ok);

  // Relaunch the node process (fresh port), re-point the transport, and
  // declare it restarted; then the object migrates back onto it with its
  // current state and keeps working.
  ASSERT_TRUE(nodes_[1].spawn());
  sys.set_remote_peer(1, Peer{"127.0.0.1", nodes_[1].port});
  sys.restart_node(1);
  EXPECT_TRUE(sys.node_up(1));

  ASSERT_TRUE(sys.migrate("c", 1));
  ASSERT_EQ(sys.location("c"), std::size_t{1});
  EXPECT_EQ(sys.invoke("c", "get", "").value, "7");
  EXPECT_GE(sys.transport_reconnects(), 0u);
  EXPECT_EQ(sys.crashes(), 1u);
  EXPECT_EQ(sys.restarts(), 1u);

  sys.shutdown_remote_nodes();
  for (NodeProcess& node : nodes_) EXPECT_TRUE(node.reap_clean());
  sys.stop();
}

TEST_F(MultiProcess, ShutdownFramesStopEveryProcess) {
  spawn_cluster(2);
  {
    runtime::LiveSystem::Options opts;
    opts.remote_nodes = peers();
    runtime::LiveSystem sys{opts};
    runtime::register_demo_types(sys);
    sys.start();
    ASSERT_TRUE(sys.create(
        "c", runtime::make_state("counter", {{"count", "1"}}), 0));
    EXPECT_EQ(sys.invoke("c", "get", "").value, "1");
    sys.shutdown_remote_nodes();
    sys.stop();
  }
  for (NodeProcess& node : nodes_) EXPECT_TRUE(node.reap_clean());
}

}  // namespace
}  // namespace omig::transport
