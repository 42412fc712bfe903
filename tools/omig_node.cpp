// omig_node: one live node as a real OS process, plus a cluster launcher.
//
//   omig_node --serve --id N [--port P] [--port-file FILE]
//             [--data-dir DIR] [--fault-plan FILE]
//             [--metrics-port P [--metrics-port-file FILE]]
//             [--metrics-log-ms N]
//       Hosts node N: a LiveNode served on the event-loop thread of a
//       loopback frame server (transport/wire). All demo object types are
//       compiled in, so any coordinator can create and migrate demo
//       objects here. The process exits when it receives a Shutdown
//       frame. The bound port is printed to stdout and, with --port-file,
//       written to FILE (atomically, via rename), which is how a launcher
//       discovers an ephemeral port.
//       --data-dir attaches a durable store (docs/durability.md): installs
//       append fsynced WAL checkpoints before they are acked, and a
//       relaunch on the same directory recovers every acked object —
//       hosted state survives SIGKILL. --fault-plan loads a fault plan
//       whose disk directives (torn-write / short-write / fsync-fail /
//       wal-kill) perturb that store; injected power losses SIGKILL this
//       process at the scheduled point, which is how the crash matrix
//       rehearses kill-between-fsyncs.
//       --metrics-port additionally serves the process's metric registry
//       in Prometheus text format over HTTP (0 = ephemeral; docs/metrics.md),
//       and --metrics-log-ms logs snapshot deltas to stderr on that cadence.
//
//   omig_node --cluster N [--scenario NAME [--sources S] [--objects K]
//             [--bursts B] [--seed X] [--threads T]]
//             [--policy sedentary|conventional|placement|compare-nodes|
//                       compare-reinstantiate|load-share|adaptive|
//                       adaptive-load]
//             [--hysteresis X]
//       Spawns N child node processes and coordinates them as a remote
//       LiveSystem. Without --scenario it drives the office workflow
//       (docs/transport.md); with --scenario it replays the named
//       scenario-pack workload (docs/scenarios.md) across the cluster —
//       the same burst streams the simulator measures, on N+1 real
//       processes over TCP. --policy selects the coordinator's move()
//       semantics (docs/policies.md); the adaptive kinds print one line
//       of policy telemetry at the end of the run.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "net/event_loop.hpp"
#include "obs/delta_logger.hpp"
#include "obs/families.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "scenario/live_driver.hpp"
#include "scenario/scenario.hpp"
#include "store/store.hpp"
#include "transport/metrics_exporter.hpp"
#include "transport/node_server.hpp"

namespace {

using namespace omig;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --serve --id N [--port P] [--port-file FILE]\n"
               "              [--data-dir DIR] [--fault-plan FILE]\n"
               "              [--metrics-port P [--metrics-port-file FILE]]\n"
               "              [--metrics-log-ms N]\n"
               "       %s --cluster N [--scenario NAME [--sources S]\n"
               "              [--objects K] [--bursts B] [--seed X]\n"
               "              [--threads T]]\n"
               "              [--policy sedentary|conventional|placement|"
               "compare-nodes|\n"
               "                        compare-reinstantiate|load-share|"
               "adaptive|adaptive-load]\n"
               "              [--hysteresis X]\n",
               argv0, argv0);
  return 2;
}

/// --serve options beyond the frame-server basics.
struct ServeOptions {
  int metrics_port = -1;  ///< -1 = no exporter; 0 = ephemeral
  std::string metrics_port_file;
  long metrics_log_ms = 0;  ///< 0 = no delta logging
  std::string data_dir;     ///< durable store directory; empty = volatile
  std::string fault_plan;   ///< plan file with disk directives; empty = none
};

/// Publishes the bound port for the launcher: write-then-rename, so a
/// reader never sees a half-written file.
bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) return false;
    out << port << "\n";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

int serve(std::size_t id, std::uint16_t port, const std::string& port_file,
          const ServeOptions& serve_opts) {
  // Declared before the node: LiveNode::set_store requires the store to
  // outlive the node. Destruction order (server, loop, node, then
  // store/injector) is what makes every `return` below safe: no handler
  // runs once the server is gone.
  std::unique_ptr<fault::FaultInjector> injector;
  store::DurableStore durable;
  const auto factories = runtime::demo_factories();
  runtime::LiveNode node{id, &factories};

  // Durable store: open (recovering any previous incarnation's state)
  // and preload the hosted objects before the listener comes up, so the
  // coordinator never races an empty node.
  if (!serve_opts.data_dir.empty()) {
    if (!serve_opts.fault_plan.empty()) {
      try {
        injector = std::make_unique<fault::FaultInjector>(
            fault::load_plan(serve_opts.fault_plan));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "omig_node %zu: bad fault plan: %s\n", id,
                     e.what());
        return 1;
      }
    }
    store::DurableStore::OpenOptions sopts;
    sopts.dir = serve_opts.data_dir;
    sopts.injector = injector.get();
    sopts.node = id;
    sopts.process_kill = true;  // injected power loss = SIGKILL, for real
    if (!durable.open(std::move(sopts))) {
      std::fprintf(stderr, "omig_node %zu: cannot open data dir %s\n", id,
                   serve_opts.data_dir.c_str());
      return 1;
    }
    node.set_store(&durable);
    const std::size_t restored = node.preload_from_store();
    const auto info = durable.recovery();
    std::printf(
        "omig_node %zu recovered %zu objects (snapshot=%d, wal records=%llu, "
        "torn tails=%llu)\n",
        id, restored, info.snapshot_loaded ? 1 : 0,
        static_cast<unsigned long long>(info.replayed_records),
        static_cast<unsigned long long>(info.truncations));
    std::fflush(stdout);
  }
  node.open();

  // One proactor loop carries all of this process's socket I/O: the frame
  // server's connections and the metrics scrape endpoint. Declared before
  // the exporter and server so it outlives both (their teardown posts
  // final tasks onto it).
  net::EventLoop loop;
  loop.start();

  // Pre-register every standard family so a scrape on a fresh node shows
  // the complete schema at zero instead of an empty page.
  obs::register_standard_metrics();
  transport::MetricsExporter exporter{obs::MetricsRegistry::global(), &loop};
  if (serve_opts.metrics_port >= 0) {
    const std::uint16_t bound = exporter.start(
        static_cast<std::uint16_t>(serve_opts.metrics_port));
    if (bound == 0) {
      std::fprintf(stderr, "omig_node %zu: cannot bind metrics port %d\n", id,
                   serve_opts.metrics_port);
      return 1;
    }
    if (!serve_opts.metrics_port_file.empty() &&
        !write_port_file(serve_opts.metrics_port_file, bound)) {
      std::fprintf(stderr, "omig_node %zu: cannot write %s\n", id,
                   serve_opts.metrics_port_file.c_str());
      return 1;
    }
    std::printf("omig_node %zu metrics on http://127.0.0.1:%u/metrics\n", id,
                bound);
    std::fflush(stdout);
  }
  obs::DeltaLogger delta_logger{obs::MetricsRegistry::global(), std::cerr};
  if (serve_opts.metrics_log_ms > 0) {
    delta_logger.start(std::chrono::milliseconds{serve_opts.metrics_log_ms});
  }

  // The loop thread serves every request frame on the node and flags the
  // Shutdown frame, so main can exit.
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  transport::NodeServer server{
      [&](transport::Frame frame) {
        if (std::holds_alternative<transport::WireShutdown>(frame.payload)) {
          {
            std::lock_guard lock{mutex};
            stopping = true;
          }
          cv.notify_all();
        }
        return node.serve_frame(std::move(frame));
      },
      &loop};

  const std::uint16_t bound = server.start(port);
  if (bound == 0) {
    std::fprintf(stderr, "omig_node %zu: cannot bind port %u\n", id, port);
    return 1;
  }
  if (!port_file.empty() && !write_port_file(port_file, bound)) {
    std::fprintf(stderr, "omig_node %zu: cannot write %s\n", id,
                 port_file.c_str());
    return 1;
  }
  std::printf("omig_node %zu listening on 127.0.0.1:%u\n", id, bound);
  std::fflush(stdout);

  {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return stopping; });
  }
  node.stop();
  server.stop();
  std::printf("omig_node %zu: processed %llu messages, bye\n", id,
              static_cast<unsigned long long>(node.processed()));
  return 0;
}

/// Path of this binary, for re-exec'ing children.
std::string self_exe(const char* argv0) {
  std::error_code ec;
  auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string{argv0} : path.string();
}

struct Child {
  pid_t pid = -1;
  std::string port_file;
};

void kill_children(const std::vector<Child>& children) {
  for (const Child& child : children) {
    if (child.pid > 0) kill(child.pid, SIGKILL);
  }
  for (const Child& child : children) {
    if (child.pid > 0) waitpid(child.pid, nullptr, 0);
  }
}

/// --cluster options: which workload the coordinator drives.
struct ClusterOptions {
  std::string scenario;  ///< empty = the office workflow demo
  int sources = 8;
  int objects = 24;
  int bursts = 10;       ///< bursts per source
  int threads = 4;
  std::uint64_t seed = 1;
  /// move()/visit() semantics of the coordinator (docs/policies.md).
  migration::PolicyKind policy = migration::PolicyKind::Placement;
  double hysteresis = 0.2;  ///< adaptive kinds: EMA share margin
};

/// One line of adaptive-policy telemetry, when the run collected any.
void print_policy_stats(const runtime::LiveSystem& sys,
                        migration::PolicyKind policy) {
  if (sys.ema_updates() == 0) return;
  const migration::PolicyCounters c = sys.policy_counters();
  std::printf(
      "cluster policy %s: migrations=%llu suppressed=%llu/%llu "
      "reversals=%llu ema-updates=%llu\n",
      std::string{migration::to_string(policy)}.c_str(),
      static_cast<unsigned long long>(c.migrations_triggered),
      static_cast<unsigned long long>(c.suppressed_hysteresis),
      static_cast<unsigned long long>(c.suppressed_load),
      static_cast<unsigned long long>(c.pingpong_reversals),
      static_cast<unsigned long long>(sys.ema_updates()));
}

/// Replays a scenario-pack workload across the remote cluster. Returns 0
/// when every burst completed without a failed invocation.
int run_cluster_scenario(runtime::LiveSystem& sys, std::size_t count,
                         const ClusterOptions& copts) {
  scenario::ScenarioOptions sopts;
  sopts.name = copts.scenario;
  sopts.nodes = static_cast<int>(count);
  sopts.sources = copts.sources;
  sopts.objects = copts.objects;
  const auto scen = scenario::make_scenario(sopts);

  scenario::LiveScenarioOptions lopts;
  lopts.bursts_per_source = copts.bursts;
  lopts.threads = copts.threads;
  lopts.seed = copts.seed;
  const scenario::LiveScenarioResult r =
      scenario::run_live_scenario(sys, *scen, lopts);

  std::printf(
      "cluster scenario %s: bursts=%llu ops=%llu moves=%llu visits=%llu "
      "refusals=%llu failures=%llu ops/s=%.0f migrations=%llu\n",
      copts.scenario.c_str(), static_cast<unsigned long long>(r.bursts),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.moves),
      static_cast<unsigned long long>(r.visits),
      static_cast<unsigned long long>(r.refusals),
      static_cast<unsigned long long>(r.failures), r.ops_per_sec,
      static_cast<unsigned long long>(sys.migrations()));
  if (r.failures != 0) {
    std::fprintf(stderr, "cluster: scenario had failed operations\n");
    return 1;
  }
  return 0;
}

int cluster(const char* argv0, std::size_t count,
            const ClusterOptions& copts) {
  char dir_template[] = "omig-cluster-XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;
  const std::string exe = self_exe(argv0);

  // Launch the node processes; they pick ephemeral ports and publish them.
  std::vector<Child> children;
  for (std::size_t i = 0; i < count; ++i) {
    Child child;
    child.port_file = dir + "/node-" + std::to_string(i) + ".port";
    const std::string id = std::to_string(i);
    child.pid = fork();
    if (child.pid == 0) {
      execl(exe.c_str(), exe.c_str(), "--serve", "--id", id.c_str(),
            "--port-file", child.port_file.c_str(),
            static_cast<char*>(nullptr));
      std::perror("execl");
      _exit(127);
    }
    if (child.pid < 0) {
      std::perror("fork");
      kill_children(children);
      return 1;
    }
    children.push_back(std::move(child));
  }

  // Wait for every port file (bounded).
  std::vector<transport::Peer> peers;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  for (const Child& child : children) {
    std::uint16_t port = 0;
    while (port == 0) {
      std::ifstream in{child.port_file};
      if (!(in >> port) || port == 0) {
        port = 0;
        if (std::chrono::steady_clock::now() > deadline) {
          std::fprintf(stderr, "cluster: node did not come up\n");
          kill_children(children);
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
      }
    }
    peers.push_back(transport::Peer{"127.0.0.1", port});
  }
  std::printf("cluster: %zu node processes up\n", count);

  // Drive the chosen workload as a remote coordinator: a scenario-pack
  // replay when --scenario was given, the office workflow demo otherwise.
  int rc = 0;
  if (!copts.scenario.empty()) {
    runtime::LiveSystem::Options opts;
    opts.remote_nodes = peers;
    opts.policy = copts.policy;
    opts.hysteresis_band = copts.hysteresis;
    runtime::LiveSystem sys{opts};
    runtime::register_demo_types(sys);
    sys.start();
    rc = run_cluster_scenario(sys, count, copts);
    print_policy_stats(sys, copts.policy);
    sys.shutdown_remote_nodes();
    sys.stop();
  } else {
    runtime::LiveSystem::Options opts;
    opts.remote_nodes = peers;
    opts.policy = copts.policy;
    opts.hysteresis_band = copts.hysteresis;
    runtime::LiveSystem sys{opts};
    runtime::register_demo_types(sys);
    sys.start();

    bool ok = sys.create("case-1",
                         runtime::make_state("case-file", {{"log", ""}}), 0);
    ok = sys.create("ledger",
                    runtime::make_state("ledger", {{"total", "0"}}),
                    count - 1) &&
         ok;
    ok = ok && sys.attach("case-1", "ledger", "billing");
    if (ok) {
      auto intake = sys.visit("case-1", 1 % count, "intake");
      for (int i = 0; i < 5; ++i) {
        ok = sys.invoke_from(1 % count, "case-1", "append", "intake").ok && ok;
      }
      sys.end(intake);
      auto billing = sys.move("case-1", 2 % count, "billing");
      ok = billing.granted && ok;
      ok = sys.invoke_from(2 % count, "ledger", "bill", "").ok && ok;
      ok = sys.invoke_from(2 % count, "case-1", "append", "billed").ok && ok;
      sys.end(billing);
      const auto entries = sys.invoke("case-1", "entries", "");
      const auto total = sys.invoke("ledger", "total", "");
      ok = ok && entries.ok && entries.value == "6" && total.ok &&
           total.value == "10";
      std::printf(
          "cluster: entries=%s total=%s migrations=%llu invocations=%llu\n",
          entries.value.c_str(), total.value.c_str(),
          static_cast<unsigned long long>(sys.migrations()),
          static_cast<unsigned long long>(sys.invocations()));
      print_policy_stats(sys, copts.policy);
    }
    if (!ok) {
      std::fprintf(stderr, "cluster: workflow FAILED\n");
      rc = 1;
    }
    sys.shutdown_remote_nodes();
    sys.stop();
  }

  // The shutdown frames make every child exit on its own; reap them.
  for (const Child& child : children) {
    int status = 0;
    if (waitpid(child.pid, &status, 0) != child.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "cluster: node process exited abnormally\n");
      rc = 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (rc == 0) std::printf("cluster: all node processes exited cleanly\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve_mode = false;
  std::size_t id = 0;
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t cluster_count = 0;
  ServeOptions serve_opts;
  ClusterOptions cluster_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--id") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      id = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      port_file = v;
    } else if (arg == "--metrics-port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_opts.metrics_port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--metrics-port-file") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_opts.metrics_port_file = v;
    } else if (arg == "--metrics-log-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_opts.metrics_log_ms = std::strtol(v, nullptr, 10);
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_opts.data_dir = v;
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      serve_opts.fault_plan = v;
    } else if (arg == "--cluster") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_count = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.scenario = v;
    } else if (arg == "--sources") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.sources = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--objects") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.objects = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--bursts") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.bursts = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.threads = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const auto policy = core::policy_from_string(v);
      if (!policy.has_value()) {
        std::fprintf(stderr, "unknown policy '%s'\n", v);
        return usage(argv[0]);
      }
      cluster_opts.policy = *policy;
    } else if (arg == "--hysteresis") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cluster_opts.hysteresis = std::strtod(v, nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  if (serve_mode) return serve(id, port, port_file, serve_opts);
  if (cluster_count >= 2) {
    return cluster(argv[0], cluster_count, cluster_opts);
  }
  return usage(argv[0]);
}
