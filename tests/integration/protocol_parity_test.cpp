// Sim-vs-live decision parity: one op script, both backends.
//
// The placement protocol exists once (migration::ProtocolCore); the
// simulator charges sim time around its decisions and the live runtime
// carries them out over real node threads. This suite replays the same
// single-threaded script of invocations, move()/visit()/end() blocks and
// fix()/unfix() calls on both, for every PolicyKind under both attachment
// transitivities, and requires the same outcome op for op: the same grants
// and refusals, the same protocol decisions in the trace, and every object
// on the same node afterwards. The backends feed the core their own object
// tables, locality EMAs and loads, so agreement here means they also agree
// on every input the decisions read.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "migration/manager.hpp"
#include "migration/policy.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "objsys/invocation.hpp"
#include "objsys/locality.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"
#include "sim/random.hpp"
#include "trace/log.hpp"

namespace omig {
namespace {

using migration::AttachTransitivity;
using migration::PolicyKind;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kObjects = 12;

struct Op {
  enum Kind { Invoke, Move, Visit, End, Fix, Unfix } kind;
  std::size_t node = 0;    ///< caller / requester (Invoke, Move, Visit)
  std::size_t object = 0;  ///< target (all but End)
  std::size_t block = 0;   ///< End: index of the block to close
  bool in_alliance = false;  ///< Move/Visit: name the "crew" alliance
};

struct Script {
  std::vector<std::size_t> homes;  ///< per object
  /// (a, b, in_alliance) attachment edges.
  std::vector<std::tuple<std::size_t, std::size_t, bool>> edges;
  std::vector<Op> ops;
};

/// A seeded random script: a small attached population and a few hundred
/// ops, with overlapping blocks so conflicts, partial moves and majority
/// shifts actually happen. Every block is closed by the end.
Script make_script(std::uint64_t seed) {
  sim::Rng rng{seed, 0};
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  Script s;
  for (std::size_t o = 0; o < kObjects; ++o) s.homes.push_back(pick(kNodes));
  for (std::size_t o = 0; o + 1 < kObjects; o += 2) {
    s.edges.emplace_back(o, o + 1, true);  // pairs within the alliance
  }
  s.edges.emplace_back(1, 2, false);  // and bridges outside it
  s.edges.emplace_back(5, 6, false);
  std::vector<std::size_t> open;
  std::size_t blocks = 0;
  for (int i = 0; i < 300; ++i) {
    const std::size_t roll = pick(20);
    Op op{Op::Invoke};
    if (roll < 9) {
      // Callers skewed toward one node per object, so the locality EMA
      // finds dominant nodes.
      op.object = pick(kObjects);
      op.node = pick(3) == 0 ? pick(kNodes) : (op.object + 1) % kNodes;
    } else if (roll < 14) {
      op.kind = roll < 12 ? Op::Move : Op::Visit;
      op.node = pick(kNodes);
      op.object = pick(kObjects);
      op.in_alliance = pick(2) == 0;
      open.push_back(blocks++);
    } else if (roll < 19) {
      if (open.empty()) continue;
      const std::size_t at = pick(open.size());
      op.kind = Op::End;
      op.block = open[at];
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      op.kind = pick(2) == 0 ? Op::Fix : Op::Unfix;
      op.object = pick(kObjects);
    }
    s.ops.push_back(op);
  }
  for (const std::size_t b : open) s.ops.push_back(Op{Op::End, 0, 0, b});
  return s;
}

/// What one op left behind: the grant of a move/visit (always true for
/// other ops) and where every object is.
struct Step {
  bool granted = true;
  std::vector<std::size_t> locations;
  bool operator==(const Step&) const = default;
};

void PrintTo(const Step& step, std::ostream* os) {
  *os << (step.granted ? "granted" : "refused") << ", at";
  for (const std::size_t node : step.locations) *os << ' ' << node;
}

struct Outcome {
  std::vector<Step> steps;
  /// The protocol's decision events, in order (their times are each
  /// backend's own clock and are not compared).
  std::vector<trace::Event> decisions;
  /// Completed object relocations.
  std::size_t migrations = 0;
};

void summarise(const trace::TraceLog& log, Outcome& out) {
  for (const trace::Event& e : log.events()) {
    switch (e.kind) {
      case trace::EventKind::BlockBegin:
      case trace::EventKind::BlockEnd:
      case trace::EventKind::MoveRefused:
      case trace::EventKind::Lock:
      case trace::EventKind::Unlock:
        out.decisions.push_back(e);
        break;
      case trace::EventKind::MigrationEnd:
        ++out.migrations;
        break;
      default:
        break;
    }
  }
}

std::string name_of(std::size_t object) {
  return "obj" + std::to_string(object);
}

Outcome run_sim(PolicyKind kind, AttachTransitivity transitivity,
            const Script& script) {
  sim::Engine engine;
  net::FullMesh mesh{kNodes};
  net::LatencyModel latency{mesh, net::LatencyMode::Fixed, 1.0};
  objsys::ObjectRegistry registry{engine, kNodes};
  sim::Rng net_rng{1, 0};
  sim::Rng mgr_rng{1, 1};
  objsys::Invoker invoker{engine, registry, latency, net_rng};
  objsys::LocalityTracker tracker{kNodes};
  invoker.set_locality_tracker(&tracker);
  migration::AttachmentGraph attachments;
  migration::AllianceRegistry alliances;
  migration::ManagerOptions opts;
  opts.transitivity = transitivity;
  migration::MigrationManager manager{engine,      registry,  latency, mgr_rng,
                                      attachments, alliances, opts};
  manager.protocol().set_locality(&tracker);
  trace::TraceLog log;
  manager.set_trace(&log);
  const auto policy = migration::make_policy(kind, manager);
  const objsys::AllianceId crew = alliances.create("crew");

  std::vector<objsys::ObjectId> ids;
  for (std::size_t o = 0; o < kObjects; ++o) {
    ids.push_back(registry.create(
        name_of(o), objsys::NodeId{static_cast<std::uint32_t>(
                        script.homes[o])}));
  }
  for (const auto& [a, b, in_alliance] : script.edges) {
    attachments.attach(ids[a], ids[b],
                       in_alliance ? crew : objsys::AllianceId::invalid());
  }

  Outcome run;
  std::deque<migration::MoveBlock> blocks;  // stable for the coroutines
  for (const Op& op : script.ops) {
    const objsys::NodeId node{static_cast<std::uint32_t>(op.node)};
    Step step;
    switch (op.kind) {
      case Op::Invoke:
        engine.spawn(invoker.invoke(node, ids[op.object]));
        break;
      case Op::Move:
      case Op::Visit:
        blocks.push_back(manager.new_block(
            node, ids[op.object],
            op.in_alliance ? crew : objsys::AllianceId::invalid(),
            op.kind == Op::Visit));
        engine.spawn(policy->begin_block(blocks.back()));
        break;
      case Op::End:
        policy->end_block(blocks[op.block]);
        break;
      case Op::Fix:
        registry.fix(ids[op.object]);
        break;
      case Op::Unfix:
        registry.unfix(ids[op.object]);
        break;
    }
    engine.run();
    if (op.kind == Op::Move || op.kind == Op::Visit) {
      step.granted = blocks.back().granted;
    }
    for (const objsys::ObjectId id : ids) {
      step.locations.push_back(registry.location(id).value());
    }
    run.steps.push_back(std::move(step));
  }
  summarise(log, run);
  return run;
}

Outcome run_live(PolicyKind kind, AttachTransitivity transitivity,
             const Script& script) {
  trace::TraceLog log;
  runtime::LiveSystem::Options opts;
  opts.nodes = kNodes;
  opts.policy = kind;
  opts.a_transitive_attachments =
      transitivity == AttachTransitivity::ATransitive;
  opts.trace = &log;
  runtime::LiveSystem sys{opts};
  runtime::register_demo_types(sys);
  sys.start();
  for (std::size_t o = 0; o < kObjects; ++o) {
    EXPECT_TRUE(sys.create(name_of(o),
                           runtime::make_state("counter", {{"count", "0"}}),
                           script.homes[o]));
  }
  for (const auto& [a, b, in_alliance] : script.edges) {
    sys.attach(name_of(a), name_of(b), in_alliance ? "crew" : "");
  }

  Outcome run;
  std::vector<runtime::LiveSystem::MoveToken> tokens;
  for (const Op& op : script.ops) {
    Step step;
    const std::string& alliance = op.in_alliance ? "crew" : "";
    switch (op.kind) {
      case Op::Invoke:
        EXPECT_TRUE(sys.invoke_from(op.node, name_of(op.object), "get", "").ok);
        break;
      case Op::Move:
        tokens.push_back(sys.move(name_of(op.object), op.node, alliance));
        step.granted = tokens.back().granted;
        break;
      case Op::Visit:
        tokens.push_back(sys.visit(name_of(op.object), op.node, alliance));
        step.granted = tokens.back().granted;
        break;
      case Op::End:
        sys.end(tokens[op.block]);
        break;
      case Op::Fix:
        sys.fix(name_of(op.object));
        break;
      case Op::Unfix:
        sys.unfix(name_of(op.object));
        break;
    }
    for (std::size_t o = 0; o < kObjects; ++o) {
      step.locations.push_back(sys.location(name_of(o)).value());
    }
    run.steps.push_back(std::move(step));
  }
  sys.stop();
  summarise(log, run);
  return run;
}

class ProtocolParity
    : public ::testing::TestWithParam<
          std::tuple<PolicyKind, AttachTransitivity>> {};

TEST_P(ProtocolParity, SimAndLiveDecideIdentically) {
  const auto [kind, transitivity] = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "script seed " << seed);
    const Script script = make_script(seed);
    const Outcome sim = run_sim(kind, transitivity, script);
    const Outcome live = run_live(kind, transitivity, script);
    ASSERT_EQ(sim.steps.size(), live.steps.size());
    for (std::size_t i = 0; i < sim.steps.size(); ++i) {
      ASSERT_EQ(sim.steps[i], live.steps[i]) << "after op " << i;
    }
    EXPECT_EQ(sim.migrations, live.migrations);
    // The script exercised the policy: objects moved, and the kinds that
    // can turn a move down did.
    const auto refusals = std::count_if(
        sim.decisions.begin(), sim.decisions.end(), [](const auto& e) {
          return e.kind == trace::EventKind::MoveRefused;
        });
    if (kind != PolicyKind::Sedentary) {
      EXPECT_GT(sim.migrations, 0u);
    }
    if (kind != PolicyKind::Sedentary && kind != PolicyKind::Conventional &&
        kind != PolicyKind::LoadShare) {
      EXPECT_GT(refusals, 0);
    }
    ASSERT_EQ(sim.decisions.size(), live.decisions.size());
    for (std::size_t i = 0; i < sim.decisions.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "decision event " << i);
      EXPECT_EQ(sim.decisions[i].kind, live.decisions[i].kind);
      EXPECT_EQ(sim.decisions[i].object, live.decisions[i].object);
      EXPECT_EQ(sim.decisions[i].node, live.decisions[i].node);
      EXPECT_EQ(sim.decisions[i].block, live.decisions[i].block);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, ProtocolParity,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Sedentary, PolicyKind::Conventional,
                          PolicyKind::Placement, PolicyKind::CompareNodes,
                          PolicyKind::CompareReinstantiate,
                          PolicyKind::LoadShare, PolicyKind::Adaptive,
                          PolicyKind::AdaptiveLoad),
        ::testing::Values(AttachTransitivity::Unrestricted,
                          AttachTransitivity::ATransitive)),
    [](const auto& info) {
      std::string name{migration::to_string(std::get<0>(info.param))};
      std::erase(name, '-');
      return name + (std::get<1>(info.param) == AttachTransitivity::ATransitive
                         ? "_ATransitive"
                         : "_Unrestricted");
    });

}  // namespace
}  // namespace omig
