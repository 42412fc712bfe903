#include "objsys/location_service.hpp"

#include <gtest/gtest.h>

#include <string>

namespace omig::objsys {
namespace {

struct Fixture {
  sim::Engine engine;
  net::FullMesh mesh{4};
  net::LatencyModel latency{mesh, net::LatencyMode::Uniform, 1.0};
  ObjectRegistry registry{engine, 4};
  sim::Rng rng{7, 0};
};

sim::Task resolve_once(Fixture& f, LocationService& svc, NodeId from,
                       ObjectId obj, double& duration) {
  const sim::SimTime start = f.engine.now();
  co_await svc.resolve(from, obj);
  duration = f.engine.now() - start;
}

TEST(LocationServiceTest, NoneIsFree) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::None};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d));
  f.engine.run();
  EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_EQ(svc.messages(), 0u);
}

TEST(LocationServiceTest, NameServerRoundTrip) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::NameServer, NodeId{0}};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{2}, obj, d));
  f.engine.run();
  EXPECT_GT(d, 0.0);
  EXPECT_EQ(svc.messages(), 2u);
}

TEST(LocationServiceTest, NameServerLocalLookupFree) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::NameServer, NodeId{0}};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d));
  f.engine.run();
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(LocationServiceTest, ForwardingFreeWhenCurrent) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::Forwarding};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d));
  f.engine.run();
  EXPECT_DOUBLE_EQ(d, 0.0);  // no migrations yet: cache index 0 is current
}

TEST(LocationServiceTest, ForwardingChasesChain) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::Forwarding};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  // Prime the cache at index 0.
  double d0 = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d0));
  f.engine.run();
  // Two migrations behind: resolving costs two chain messages.
  f.registry.begin_transit(obj);
  f.registry.finish_transit(obj, NodeId{2});
  f.registry.begin_transit(obj);
  f.registry.finish_transit(obj, NodeId{3});
  double d1 = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d1));
  f.engine.run();
  EXPECT_GT(d1, 0.0);
  EXPECT_EQ(svc.messages(), 2u);
  // Cache updated: immediately resolving again is free.
  double d2 = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{0}, obj, d2));
  f.engine.run();
  EXPECT_DOUBLE_EQ(d2, 0.0);
}

TEST(LocationServiceTest, BroadcastCostsQueryAndAnswer) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::Broadcast};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{2}, obj, d));
  f.engine.run();
  EXPECT_GT(d, 0.0);
  EXPECT_EQ(svc.messages(), 2u);
}

TEST(LocationServiceTest, ImmediateUpdatePaysOnMigration) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::ImmediateUpdate};
  const ObjectId obj = f.registry.create("o", NodeId{1});
  double d = -1.0;
  f.engine.spawn(resolve_once(f, svc, NodeId{2}, obj, d));
  f.engine.run();
  EXPECT_DOUBLE_EQ(d, 0.0);  // resolve is free
  const double overhead =
      svc.migration_overhead(obj, NodeId{1}, NodeId{2}, true);
  EXPECT_GT(overhead, 0.0);  // fan-out to the other nodes
  EXPECT_EQ(svc.messages(), 3u);
}

TEST(LocationServiceTest, RestartChargesOneMessagePerReseedUpdate) {
  Fixture f;
  LocationService svc{f.engine, f.registry, f.latency, f.rng,
                      LocationScheme::None};
  svc.enable_sharded(ConsistencyStrategy::LazyForward);
  const NodeId victim{1};
  std::uint64_t reseeded = 0;  // entries node 1 serves: slice + self
  for (std::uint32_t i = 0; i < 12; ++i) {
    const NodeId home{i % 4};
    const ObjectId obj = f.registry.create("o" + std::to_string(i), home);
    svc.register_object(obj);  // creation is setup: no message
    if (hashed_owner(obj, 4) == victim || home == victim) ++reseeded;
  }
  ASSERT_EQ(svc.messages(), 0u);
  svc.crash_node(victim);
  EXPECT_EQ(svc.messages(), 0u);
  svc.restart_node(victim);
  EXPECT_GT(reseeded, 0u);
  EXPECT_EQ(svc.messages(), reseeded);
}

TEST(LocationServiceTest, ToStringCoversAllSchemes) {
  EXPECT_STREQ(to_string(LocationScheme::None), "none");
  EXPECT_STREQ(to_string(LocationScheme::NameServer), "name-server");
  EXPECT_STREQ(to_string(LocationScheme::Forwarding), "forwarding");
  EXPECT_STREQ(to_string(LocationScheme::Broadcast), "broadcast");
  EXPECT_STREQ(to_string(LocationScheme::ImmediateUpdate),
               "immediate-update");
}

}  // namespace
}  // namespace omig::objsys
