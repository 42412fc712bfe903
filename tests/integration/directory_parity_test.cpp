// Sim-vs-live directory parity: one op script, both backends.
//
// The sharded directory's protocol exists once (objsys::DirectoryCore).
// The simulator's LocationService answers its requests from in-memory
// node tables; the live runtime sends them as DirLookup/DirUpdate frames
// to its nodes. This suite replays the same seeded script of creations,
// migrations, invocations from a node, crashes and restarts — long enough
// for LeaseTtl entries to expire — on both, for every consistency
// strategy, and requires the same directory requests (kind, target,
// object, value) with the same answers, op for op, and the same counters
// at the end. Both sides get the same owner mapping: each live object is
// named so that its name hashes to the owner the simulator's id hash
// picks.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "migration/alliance.hpp"
#include "migration/attachment.hpp"
#include "migration/manager.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "objsys/directory_core.hpp"
#include "objsys/invocation.hpp"
#include "objsys/location_service.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "sim/random.hpp"

namespace omig::objsys {

void PrintTo(const DirectoryStep& step, std::ostream* os) {
  *os << (step.request.kind == DirectoryRequest::Kind::Lookup ? "lookup"
                                                              : "update")
      << "(to " << step.request.target.value() << ", obj "
      << step.request.object.value();
  if (step.request.node.valid()) *os << ", node " << step.request.node.value();
  *os << ")";
  if (step.answer.has_value()) {
    switch (step.answer->kind) {
      case DirectoryAnswer::Kind::Entry:
        *os << " -> " << step.answer->node.value();
        break;
      case DirectoryAnswer::Kind::NoEntry:
        *os << " -> none";
        break;
      case DirectoryAnswer::Kind::Unreachable:
        *os << " -> unreachable";
        break;
    }
  }
}

}  // namespace omig::objsys

namespace omig {
namespace {

using objsys::ConsistencyStrategy;
using objsys::DirectoryStep;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kObjects = 6;

struct Op {
  enum Kind { Create, Move, Invoke, Crash, Restart } kind;
  std::size_t node = 0;    ///< home, destination, caller, or the node
  std::size_t object = 0;  ///< Create, Move, Invoke
};

std::ostream& operator<<(std::ostream& os, const Op& op) {
  static const char* const kNames[] = {"create", "move", "invoke", "crash",
                                       "restart"};
  os << kNames[op.kind];
  if (op.kind == Op::Create || op.kind == Op::Move || op.kind == Op::Invoke) {
    os << " obj" << op.object;
  }
  return os << " node " << op.node;
}

/// A seeded 200-op script over a small cluster. It tracks where every
/// object is and which nodes are up, so that it only creates on and moves
/// to nodes that are up, invokes from them objects whose host is up (an
/// invoke whose host is down backs off on wall time), and keeps two nodes
/// up. Often more than a lease's worth of directory operations pass
/// between two calls from one node to one object, so LeaseTtl entries
/// expire.
std::vector<Op> make_script(std::uint64_t seed) {
  sim::Rng rng{seed, 7};
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  std::vector<Op> ops;
  std::vector<std::size_t> at;  // per created object
  std::vector<bool> up(kNodes, true);
  std::size_t down = 0;
  auto random_up = [&] {
    for (;;) {
      const std::size_t n = pick(kNodes);
      if (up[n]) return n;
    }
  };
  while (ops.size() < 200) {
    const std::size_t roll = pick(20);
    if (at.size() < kObjects && (at.empty() || roll == 0)) {
      at.push_back(random_up());
      ops.push_back({Op::Create, at.back(), at.size() - 1});
    } else if (roll < 10) {
      const std::size_t obj = pick(at.size());
      if (!up[at[obj]]) continue;
      ops.push_back({Op::Invoke, random_up(), obj});
    } else if (roll < 15) {
      const std::size_t obj = pick(at.size());
      const std::size_t dest = random_up();
      if (dest == at[obj]) continue;
      at[obj] = dest;
      ops.push_back({Op::Move, dest, obj});
    } else if (roll < 17) {
      if (down + 2 >= kNodes) continue;
      const std::size_t n = random_up();
      up[n] = false;
      ++down;
      ops.push_back({Op::Crash, n});
    } else {
      const std::size_t n = pick(kNodes);
      if (up[n]) continue;
      up[n] = true;
      --down;
      ops.push_back({Op::Restart, n});
    }
  }
  return ops;
}

std::string describe(std::uint64_t seed, const std::vector<Op>& script) {
  std::ostringstream os;
  os << "script seed " << seed << ":";
  for (std::size_t i = 0; i < script.size(); ++i) {
    os << (i % 8 == 0 ? "\n  " : "; ") << i << ": " << script[i];
  }
  return os.str();
}

/// What one backend did: per op, the directory steps it took and where
/// every created object is afterwards; then the core's counters.
struct Run {
  std::vector<std::vector<DirectoryStep>> steps;
  std::vector<std::vector<std::size_t>> locations;
  objsys::DirectoryStats stats;
};

Run run_sim(ConsistencyStrategy strategy, const std::vector<Op>& script) {
  sim::Engine engine;
  net::FullMesh mesh{kNodes};
  net::LatencyModel latency{mesh, net::LatencyMode::Fixed, 1.0};
  objsys::ObjectRegistry registry{engine, kNodes};
  sim::Rng net_rng{1, 0};
  sim::Rng mgr_rng{1, 1};
  objsys::Invoker invoker{engine, registry, latency, net_rng};
  objsys::LocationService service{engine, registry, latency, mgr_rng,
                                  objsys::LocationScheme::None};
  service.enable_sharded(strategy);
  invoker.set_location_service(&service);
  migration::AttachmentGraph attachments;
  migration::AllianceRegistry alliances;
  migration::MigrationManager manager{engine,      registry,  latency, mgr_rng,
                                      attachments, alliances, {}};
  manager.set_location_service(&service);
  std::vector<DirectoryStep> log;
  service.sharded()->set_log(&log);

  Run run;
  std::vector<objsys::ObjectId> ids;
  for (const Op& op : script) {
    const objsys::NodeId node{static_cast<objsys::NodeId::value_type>(op.node)};
    switch (op.kind) {
      case Op::Create:
        ids.push_back(registry.create("obj" + std::to_string(op.object), node));
        service.register_object(ids.back());
        break;
      case Op::Move:
        engine.spawn(manager.transfer({ids[op.object]}, node, nullptr));
        break;
      case Op::Invoke:
        engine.spawn(invoker.invoke(node, ids[op.object]));
        break;
      case Op::Crash:
        service.crash_node(node);
        break;
      case Op::Restart:
        service.restart_node(node);
        break;
    }
    engine.run();
    run.steps.push_back(std::move(log));
    log.clear();
    std::vector<std::size_t> where;
    for (const objsys::ObjectId id : ids) {
      where.push_back(registry.location(id).value());
    }
    run.locations.push_back(std::move(where));
  }
  run.stats = service.sharded()->stats();
  return run;
}

/// A live name for object `i` whose FNV-1a shard owner is the node the
/// simulator's id hash gives object `i`.
std::string live_name(const runtime::LiveSystem& sys, std::size_t i) {
  const std::size_t owner =
      objsys::hashed_owner(objsys::ObjectId{static_cast<std::uint32_t>(i)},
                           kNodes)
          .value();
  for (int k = 0;; ++k) {
    std::string name = "obj" + std::to_string(i) + "-" + std::to_string(k);
    if (sys.directory_shard_owner(name) == owner) return name;
  }
}

Run run_live(ConsistencyStrategy strategy, runtime::TransportKind transport,
             const std::vector<Op>& script) {
  runtime::LiveSystem::Options opts;
  opts.nodes = kNodes;
  opts.directory = objsys::DirectoryKind::Sharded;
  opts.dir_strategy = strategy;
  opts.transport = transport;
  runtime::LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();
  std::vector<DirectoryStep> log;
  sys.set_directory_log(&log);

  Run run;
  std::vector<std::string> names;
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::Create:
        names.push_back(live_name(sys, op.object));
        EXPECT_TRUE(sys.create(names.back(),
                               runtime::make_state("counter", {{"count", "0"}}),
                               op.node));
        break;
      case Op::Move:
        EXPECT_TRUE(sys.migrate(names[op.object], op.node));
        break;
      case Op::Invoke: {
        const runtime::InvokeResult r =
            sys.invoke_from(op.node, names[op.object], "get", "");
        EXPECT_TRUE(r.ok) << r.value;
        break;
      }
      case Op::Crash:
        sys.crash_node(op.node);
        break;
      case Op::Restart:
        sys.restart_node(op.node);
        break;
    }
    run.steps.push_back(std::move(log));
    log.clear();
    std::vector<std::size_t> where;
    for (const std::string& name : names) where.push_back(*sys.location(name));
    run.locations.push_back(std::move(where));
  }
  sys.set_directory_log(nullptr);
  run.stats = objsys::DirectoryStats{
      .lookups = sys.dir_lookups(),
      .cache_hits = sys.dir_cache_hits(),
      .stale_hits = sys.dir_stale_hits(),
      .forward_hops = sys.dir_forward_hops(),
      .updates = sys.dir_updates(),
      .invalidations = sys.dir_invalidations(),
      .fallbacks = sys.dir_fallbacks()};
  sys.stop();
  return run;
}

/// Replays script `seed` on both sides and returns the simulator's counters.
objsys::DirectoryStats expect_parity(ConsistencyStrategy strategy,
                                     runtime::TransportKind transport,
                                     std::uint64_t seed) {
  const std::vector<Op> script = make_script(seed);
  SCOPED_TRACE(describe(seed, script));
  const Run sim = run_sim(strategy, script);
  const Run live = run_live(strategy, transport, script);
  EXPECT_EQ(sim.steps.size(), live.steps.size());
  for (std::size_t i = 0; i < script.size() && i < live.steps.size(); ++i) {
    if (sim.steps[i] != live.steps[i] ||
        sim.locations[i] != live.locations[i]) {
      ADD_FAILURE() << "seed " << seed << ", op " << i << ": " << script[i]
                    << "\n  sim:  " << testing::PrintToString(sim.steps[i])
                    << "\n  live: " << testing::PrintToString(live.steps[i]);
      return sim.stats;
    }
  }
  // The live accessors do not report unresolved lookups; the script makes
  // none.
  objsys::DirectoryStats expected = sim.stats;
  EXPECT_EQ(expected.unresolved, 0u);
  expected.unresolved = 0;
  EXPECT_EQ(expected, live.stats) << "seed " << seed;
  return sim.stats;
}

class DirectoryParityTest
    : public ::testing::TestWithParam<ConsistencyStrategy> {};

TEST_P(DirectoryParityTest, SimAndInProcSendTheSameRequests) {
  objsys::DirectoryStats total;
  std::uint64_t lazy_hits = 0;  // what the same scripts hit without a lease
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const objsys::DirectoryStats s =
        expect_parity(GetParam(), runtime::TransportKind::InProc, seed);
    total.cache_hits += s.cache_hits;
    total.stale_hits += s.stale_hits;
    total.forward_hops += s.forward_hops;
    total.invalidations += s.invalidations;
    total.fallbacks += s.fallbacks;
    if (GetParam() == ConsistencyStrategy::LeaseTtl) {
      lazy_hits += run_sim(ConsistencyStrategy::LazyForward, make_script(seed))
                       .stats.cache_hits;
    }
  }
  // The scripts reached every path: the authoritative map past a dead
  // owner, stale rounds where the strategy allows them, and each
  // strategy's own mechanism.
  EXPECT_GT(total.fallbacks, 0u);
  switch (GetParam()) {
    case ConsistencyStrategy::EagerInvalidate:
      EXPECT_GT(total.invalidations, 0u);
      EXPECT_EQ(total.stale_hits, 0u);  // played one op at a time
      break;
    case ConsistencyStrategy::LazyForward:
      EXPECT_GT(total.stale_hits, 0u);
      EXPECT_GT(total.forward_hops, 0u);
      break;
    case ConsistencyStrategy::LeaseTtl:
      EXPECT_GT(total.stale_hits, 0u);
      EXPECT_LT(total.cache_hits, lazy_hits);  // entries expired
      break;
  }
}

TEST_P(DirectoryParityTest, SimAndAsyncTcpSendTheSameRequests) {
  expect_parity(GetParam(), runtime::TransportKind::AsyncTcp, 101);
}

INSTANTIATE_TEST_SUITE_P(
    EveryStrategy, DirectoryParityTest,
    ::testing::Values(ConsistencyStrategy::EagerInvalidate,
                      ConsistencyStrategy::LazyForward,
                      ConsistencyStrategy::LeaseTtl),
    [](const auto& info) {
      std::string name = objsys::to_string(info.param);
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace omig
