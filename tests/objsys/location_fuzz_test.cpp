// Property fuzz for the LocationService history cursors (Forwarding
// scheme): random migration histories interleaved with resolves from
// random nodes, 32 seeds. Invariants: a resolve chases at most the
// migrations it has not yet seen (cursors are monotonic — no forwarding
// cycle can re-charge old hops), an immediate second resolve is free (the
// cursor caught up: no lookup miss), and after quiescence every node
// resolves every object for free.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "objsys/location_service.hpp"

namespace omig::objsys {
namespace {

struct Fixture {
  explicit Fixture(std::size_t nodes)
      : mesh{nodes}, latency{mesh, net::LatencyMode::Uniform, 1.0},
        registry{engine, nodes}, rng{99, 1} {}
  sim::Engine engine;
  net::FullMesh mesh;
  net::LatencyModel latency;
  ObjectRegistry registry;
  sim::Rng rng;
};

sim::Task resolve_once(Fixture& f, LocationService& svc, NodeId from,
                       ObjectId obj, double& duration) {
  const sim::SimTime start = f.engine.now();
  co_await svc.resolve(from, obj);
  duration = f.engine.now() - start;
}

/// Runs one resolve to completion and returns (messages charged, duration).
std::pair<std::uint64_t, double> resolve_cost(Fixture& f,
                                              LocationService& svc,
                                              NodeId from, ObjectId obj) {
  const std::uint64_t before = svc.messages();
  double duration = -1.0;
  f.engine.spawn(resolve_once(f, svc, from, obj, duration));
  f.engine.run();
  EXPECT_GE(duration, 0.0);  // the coroutine completed — no cycle, no hang
  return {svc.messages() - before, duration};
}

TEST(LocationFuzzTest, ForwardingCursorsStayMonotoneAcrossRandomHistories) {
  constexpr std::uint64_t kSeeds = 32;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{seed};
    const std::size_t nodes = 3 + rng() % 8;
    Fixture f{nodes};
    LocationService svc{f.engine, f.registry, f.latency, f.rng,
                        LocationScheme::Forwarding};

    const std::uint32_t objects = 1 + static_cast<std::uint32_t>(rng() % 6);
    std::vector<ObjectId> ids;
    for (std::uint32_t i = 0; i < objects; ++i) {
      ids.push_back(f.registry.create(
          "o" + std::to_string(i),
          NodeId{static_cast<NodeId::value_type>(rng() % nodes)}));
    }

    for (int round = 0; round < 24; ++round) {
      // A burst of migrations extends some histories...
      const int moves = static_cast<int>(rng() % 4);
      for (int m = 0; m < moves; ++m) {
        const ObjectId obj = ids[rng() % ids.size()];
        f.registry.begin_transit(obj);
        f.registry.finish_transit(
            obj, NodeId{static_cast<NodeId::value_type>(rng() % nodes)});
      }
      // ...then a random node resolves a random object.
      const ObjectId obj = ids[rng() % ids.size()];
      const NodeId from{static_cast<NodeId::value_type>(rng() % nodes)};
      const std::size_t history = f.registry.history(obj).size();
      const auto [msgs, duration] = resolve_cost(f, svc, from, obj);
      // The chase is bounded by the entire history — a cycle would charge
      // more hops than migrations ever happened.
      ASSERT_LT(msgs, history) << "seed " << seed << " round " << round;
      // The cursor advanced to the head: resolving again is free.
      const auto [again, dup_duration] = resolve_cost(f, svc, from, obj);
      ASSERT_EQ(again, 0u) << "seed " << seed << " round " << round;
      ASSERT_DOUBLE_EQ(dup_duration, 0.0);
    }

    // Quiescence: everyone resolves everything once; afterwards every
    // cursor is at head, so a full re-sweep charges zero messages.
    for (std::size_t n = 0; n < nodes; ++n) {
      for (const ObjectId obj : ids) {
        (void)resolve_cost(f, svc, NodeId{static_cast<NodeId::value_type>(n)},
                           obj);
      }
    }
    const std::uint64_t settled = svc.messages();
    for (std::size_t n = 0; n < nodes; ++n) {
      for (const ObjectId obj : ids) {
        (void)resolve_cost(f, svc, NodeId{static_cast<NodeId::value_type>(n)},
                           obj);
      }
    }
    EXPECT_EQ(svc.messages(), settled) << "seed " << seed;
  }
}

/// Runs one sharded lookup to completion and returns the host it named.
NodeId locate(Fixture& f, LocationService& svc, NodeId from, ObjectId obj,
              NodeId stale = NodeId::invalid()) {
  NodeId host;
  f.engine.spawn(svc.lookup(from, obj, stale, host));
  f.engine.run();
  return host;
}

TEST(LocationFuzzTest, ShardedDirectoryTracksRegistryUnderRandomTraffic) {
  // The sharded directory inside a LocationService must track the
  // registry: after any interleaving of migrations and lookups, a lookup
  // names the registry's location, or a stale host whose failed call
  // sends one more lookup straight there.
  constexpr std::uint64_t kSeeds = 32;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{seed};
    const std::size_t nodes = 3 + rng() % 8;
    Fixture f{nodes};
    LocationService svc{f.engine, f.registry, f.latency, f.rng,
                        LocationScheme::None};
    svc.enable_sharded(static_cast<ConsistencyStrategy>(seed % 3));
    ASSERT_EQ(svc.directory(), DirectoryKind::Sharded);

    std::vector<ObjectId> ids;
    for (std::uint32_t i = 0; i < 4; ++i) {
      ids.push_back(f.registry.create(
          "s" + std::to_string(i),
          NodeId{static_cast<NodeId::value_type>(rng() % nodes)}));
    }
    auto settles = [&](NodeId from, ObjectId obj) {
      const NodeId named = locate(f, svc, from, obj);
      const NodeId truth = f.registry.location(obj);
      return named == truth || locate(f, svc, from, obj, named) == truth;
    };
    for (int op = 0; op < 60; ++op) {
      const ObjectId obj = ids[rng() % ids.size()];
      if (rng() % 2 == 0) {
        const NodeId dest{static_cast<NodeId::value_type>(rng() % nodes)};
        const NodeId from = f.registry.location(obj);
        (void)svc.migration_overhead(obj, from, dest, true);
        f.registry.begin_transit(obj);
        f.registry.finish_transit(obj, dest);
      } else {
        const NodeId from{static_cast<NodeId::value_type>(rng() % nodes)};
        ASSERT_TRUE(settles(from, obj)) << "seed " << seed << " op " << op;
      }
    }
    for (const ObjectId obj : ids) {
      for (std::size_t n = 0; n < nodes; ++n) {
        EXPECT_TRUE(settles(NodeId{static_cast<NodeId::value_type>(n)}, obj))
            << "seed " << seed;
      }
    }
    EXPECT_EQ(svc.sharded()->stats().unresolved, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace omig::objsys
