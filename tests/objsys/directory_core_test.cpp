// Sharded location directory: unit coverage of objsys::DirectoryCore, a
// randomized property sweep (64 seeds) that plays every call against the
// authoritative map, and a Central-vs-Sharded trace-parity check on a
// 100-node live system (docs/directory.md).
#include "objsys/directory_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/live_system.hpp"
#include "trace/log.hpp"

namespace omig {
namespace {

using objsys::ConsistencyStrategy;
using objsys::DirectoryAnswer;
using objsys::DirectoryCore;
using objsys::DirectoryKind;
using objsys::DirectoryLookup;
using objsys::DirectoryMove;
using objsys::DirectoryRequest;
using objsys::NodeId;
using objsys::ObjectId;

NodeId node(std::size_t n) {
  return NodeId{static_cast<NodeId::value_type>(n)};
}

/// A deployment in memory: the authoritative map, which nodes are up, and
/// each node's entry table. It answers the core's requests from the
/// tables and plays each call against the authoritative map, so the core
/// learns of a stale entry only when a call to it fails.
class Deployment final : public objsys::DirectoryView {
public:
  Deployment(std::size_t nodes, ConsistencyStrategy strategy)
      : up_(nodes, true), tables_(nodes), core_{*this, nodes, strategy} {}

  [[nodiscard]] NodeId owner(ObjectId obj) const override {
    return objsys::hashed_owner(obj, up_.size());
  }
  [[nodiscard]] bool up(NodeId n) const override { return up_[n.value()]; }
  [[nodiscard]] NodeId host(ObjectId obj) const override {
    return truth_[obj.value()];
  }
  [[nodiscard]] std::size_t object_bound() const override {
    return truth_.size();
  }

  DirectoryCore& core() { return core_; }
  std::size_t nodes() const { return up_.size(); }

  ObjectId create(NodeId home) {
    const ObjectId obj{static_cast<ObjectId::value_type>(truth_.size())};
    truth_.push_back(home);
    const DirectoryMove created{obj, home, home};
    apply(core_.publish({&created, 1}));
    return obj;
  }
  void move(ObjectId obj, NodeId dest) {
    const DirectoryMove moved{obj, truth_[obj.value()], dest};
    truth_[obj.value()] = dest;
    apply(core_.publish({&moved, 1}));
  }
  void crash(NodeId n) {
    up_[n.value()] = false;
    tables_[n.value()].clear();
    core_.crash(n);
  }
  void recover(NodeId n) {
    up_[n.value()] = true;
    apply(core_.reseed(n));
  }
  /// Sets `n`'s table entry directly (a hint that raced, a corrupt reply).
  void plant(NodeId n, ObjectId obj, NodeId entry) {
    tables_[n.value()][obj.value()] = entry;
  }

  /// One lookup, run to completion.
  DirectoryLookup lookup(NodeId from, ObjectId obj,
                         NodeId stale = NodeId::invalid()) {
    DirectoryLookup l = core_.lookup(from, obj, stale);
    while (!l.done()) {
      const DirectoryRequest& ask = l.request();
      EXPECT_EQ(ask.kind, DirectoryRequest::Kind::Lookup);
      EXPECT_TRUE(up(ask.target)) << "a request to a node that is down";
      ++sent_;
      const auto& table = tables_[ask.target.value()];
      const auto it = table.find(obj.value());
      core_.answer(l, it == table.end()
                          ? DirectoryAnswer{DirectoryAnswer::Kind::NoEntry,
                                            NodeId::invalid()}
                          : DirectoryAnswer{DirectoryAnswer::Kind::Entry,
                                            it->second});
    }
    return l;
  }

  /// What a call from `from` came to after its stale rounds.
  struct Call {
    NodeId host;  ///< invalid = unresolved
    int rounds = 0;
    std::vector<DirectoryLookup> lookups;
  };
  /// Calls the host each lookup names; a host without the object sends
  /// the caller round again with that host as stale.
  Call call(NodeId from, ObjectId obj) {
    Call c;
    NodeId stale = NodeId::invalid();
    for (; c.rounds < 4 * static_cast<int>(nodes()); ++c.rounds) {
      c.lookups.push_back(lookup(from, obj, stale));
      c.host = c.lookups.back().host();
      if (!c.host.valid() || c.host == host(obj)) return c;
      stale = c.host;
    }
    ADD_FAILURE() << "a call did not settle";
    return c;
  }

  std::uint64_t sent() const { return sent_; }

private:
  void apply(const std::vector<DirectoryRequest>& updates) {
    for (const DirectoryRequest& u : updates) {
      EXPECT_EQ(u.kind, DirectoryRequest::Kind::Update);
      EXPECT_TRUE(up(u.target)) << "an update to a node that is down";
      tables_[u.target.value()][u.object.value()] = u.node;
    }
  }

  std::vector<bool> up_;
  std::vector<NodeId> truth_;
  std::vector<std::unordered_map<std::uint32_t, NodeId>> tables_;
  DirectoryCore core_;
  std::uint64_t sent_ = 0;
};

/// A new object on `home` whose shard `owner` serves.
ObjectId create_owned(Deployment& d, NodeId owner, NodeId home) {
  for (;;) {
    const ObjectId obj = d.create(home);
    if (d.owner(obj) == owner) return obj;
  }
}

TEST(DirectoryCoreTest, StringRoundTrips) {
  EXPECT_EQ(objsys::to_string(DirectoryKind::Central), "central");
  EXPECT_EQ(objsys::to_string(DirectoryKind::Sharded), "sharded");
  EXPECT_EQ(objsys::directory_from_string("sharded"), DirectoryKind::Sharded);
  EXPECT_EQ(objsys::directory_from_string("nope"), std::nullopt);
  EXPECT_EQ(objsys::to_string(ConsistencyStrategy::LazyForward),
            "lazy-forward");
  EXPECT_EQ(objsys::strategy_from_string("eager-invalidate"),
            ConsistencyStrategy::EagerInvalidate);
  EXPECT_EQ(objsys::strategy_from_string("lease-ttl"),
            ConsistencyStrategy::LeaseTtl);
  EXPECT_EQ(objsys::strategy_from_string("bogus"), std::nullopt);
}

TEST(DirectoryCoreTest, ColdLookupAsksTheOwner) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = d.create(node(2));
  DirectoryLookup l = d.core().lookup(node(1), obj);
  ASSERT_FALSE(l.done());  // nothing cached yet
  EXPECT_EQ(l.request(), (DirectoryRequest{DirectoryRequest::Kind::Lookup,
                                           d.owner(obj), obj,
                                           NodeId::invalid()}));
  d.core().answer(l, {DirectoryAnswer::Kind::Entry, node(2)});
  ASSERT_TRUE(l.done());
  EXPECT_EQ(l.host(), node(2));
  EXPECT_FALSE(l.cache_hit());
}

TEST(DirectoryCoreTest, SecondLookupHitsTheCache) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = d.create(node(2));
  (void)d.lookup(node(1), obj);
  const std::uint64_t sent = d.sent();
  const DirectoryLookup l = d.core().lookup(node(1), obj);
  ASSERT_TRUE(l.done());
  EXPECT_TRUE(l.cache_hit());
  EXPECT_EQ(l.host(), node(2));
  EXPECT_EQ(d.sent(), sent);
  EXPECT_EQ(d.core().stats().cache_hits, 1u);
}

TEST(DirectoryCoreTest, StaleHostIsChasedThroughForwardingHints) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = d.create(node(2));
  (void)d.lookup(node(1), obj);  // cache: object at 2
  d.move(obj, node(3));
  // The cache still trusts 2: nothing but a failed call says otherwise.
  EXPECT_EQ(d.lookup(node(1), obj).host(), node(2));
  const DirectoryLookup l = d.lookup(node(1), obj, node(2));
  EXPECT_EQ(l.host(), node(3));
  EXPECT_GE(l.hops(), 1u);  // chased 2 -> 3
  EXPECT_LE(l.hops(), d.nodes());
  EXPECT_EQ(d.core().stats().stale_hits, 1u);
  // The chase healed the cache: the next lookup is a clean hit.
  EXPECT_TRUE(d.lookup(node(1), obj).cache_hit());
}

TEST(DirectoryCoreTest, StaleHostNeverVouchesForItself) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(0), node(1));
  d.move(obj, node(2));
  // A stale self-entry left at 1 (say, a hint that lost a race).
  d.plant(node(1), obj, node(1));
  const DirectoryLookup l = d.lookup(node(3), obj, node(1));
  EXPECT_EQ(l.host(), node(2));  // the owner answered instead
  EXPECT_EQ(l.hops(), 0u);
}

TEST(DirectoryCoreTest, ChaseIsCappedAtOneHopPerNode) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(0), node(1));
  // Hints that cycle 1 -> 2 -> 3 -> 1: the cap ends the walk and the owner
  // answers.
  d.plant(node(1), obj, node(2));
  d.plant(node(2), obj, node(3));
  d.plant(node(3), obj, node(1));
  const DirectoryLookup l = d.lookup(node(0), obj, node(1));
  EXPECT_EQ(l.hops(), d.nodes());
  EXPECT_EQ(l.host(), node(1));
}

TEST(DirectoryCoreTest, CorruptEntryIsDistrusted) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(0), node(1));
  DirectoryLookup l = d.core().lookup(node(2), obj);
  d.core().answer(l, {DirectoryAnswer::Kind::Entry, node(99)});
  ASSERT_TRUE(l.done());
  EXPECT_EQ(l.host(), node(1));  // the authoritative map
  EXPECT_EQ(d.core().stats().fallbacks, 1u);
}

TEST(DirectoryCoreTest, EagerInvalidateDropsEveryCachedEntry) {
  Deployment d{4, ConsistencyStrategy::EagerInvalidate};
  const ObjectId obj = d.create(node(0));
  for (std::size_t n = 0; n < 4; ++n) (void)d.lookup(node(n), obj);
  d.move(obj, node(1));
  EXPECT_EQ(d.core().stats().invalidations, 4u);
  for (std::size_t n = 0; n < 4; ++n) {
    const DirectoryLookup l = d.lookup(node(n), obj);
    EXPECT_FALSE(l.cache_hit());
    EXPECT_EQ(l.host(), node(1));
  }
  EXPECT_EQ(d.core().stats().stale_hits, 0u);
}

TEST(DirectoryCoreTest, LeaseTtlExpiresAfterItsOperations) {
  Deployment d{4, ConsistencyStrategy::LeaseTtl};
  const ObjectId obj = d.create(node(2));
  const ObjectId other = d.create(node(3));
  (void)d.lookup(node(1), obj);
  EXPECT_TRUE(d.lookup(node(1), obj).cache_hit());
  // Age the entry: every directory operation ticks the lease.
  for (std::uint64_t i = 0; i < DirectoryCore::kLeaseOps; ++i) {
    (void)d.lookup(node(0), other);
  }
  const DirectoryLookup l = d.lookup(node(1), obj);
  EXPECT_FALSE(l.cache_hit());
  EXPECT_EQ(l.host(), node(2));
}

TEST(DirectoryCoreTest, NeverSettlesOnADeadHost) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = d.create(node(2));
  (void)d.lookup(node(1), obj);  // warm: a cached dead host must not count
  d.crash(node(2));
  EXPECT_FALSE(d.lookup(node(1), obj).host().valid());
  EXPECT_FALSE(d.lookup(node(3), obj).host().valid());
  EXPECT_EQ(d.core().stats().unresolved, 2u);
  d.recover(node(2));
  EXPECT_EQ(d.lookup(node(1), obj).host(), node(2));
}

TEST(DirectoryCoreTest, CrashedOwnerFallsBackToTheAuthoritativeMap) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(0), node(1));
  d.crash(node(0));
  const std::uint64_t sent = d.sent();
  const DirectoryLookup l = d.core().lookup(node(2), obj);
  ASSERT_TRUE(l.done());  // no request to the dead owner
  EXPECT_EQ(l.host(), node(1));
  EXPECT_EQ(d.sent(), sent);
  EXPECT_EQ(d.core().stats().fallbacks, 1u);
  // Once the owner is back, its reseeded slice answers again.
  d.recover(node(0));
  const DirectoryLookup after = d.lookup(node(3), obj);
  EXPECT_EQ(after.host(), node(1));
  EXPECT_EQ(d.core().stats().fallbacks, 1u);
}

TEST(DirectoryCoreTest, OwnerAndHostDownLeaveTheLookupUnresolved) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(2), node(3));
  d.crash(node(2));
  d.crash(node(3));
  const DirectoryLookup l = d.core().lookup(node(0), obj);
  ASSERT_TRUE(l.done());
  EXPECT_FALSE(l.host().valid());
  EXPECT_EQ(d.core().stats().unresolved, 1u);
  EXPECT_EQ(d.core().stats().fallbacks, 0u);
}

TEST(DirectoryCoreTest, PublishSendsSliceHintAndSelfEntryToLiveNodes) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId obj = create_owned(d, node(0), node(1));
  const DirectoryMove move{obj, node(1), node(2)};
  using K = DirectoryRequest::Kind;
  EXPECT_EQ(d.core().publish({&move, 1}),
            (std::vector<DirectoryRequest>{{K::Update, node(0), obj, node(2)},
                                           {K::Update, node(1), obj, node(2)},
                                           {K::Update, node(2), obj, node(2)}}));
  d.crash(node(1));
  const DirectoryMove back{obj, node(1), node(3)};
  EXPECT_EQ(d.core().publish({&back, 1}),
            (std::vector<DirectoryRequest>{{K::Update, node(0), obj, node(3)},
                                           {K::Update, node(3), obj, node(3)}}));
}

TEST(DirectoryCoreTest, ReseedRefillsTheSliceAndSelfEntries) {
  Deployment d{4, ConsistencyStrategy::LazyForward};
  const ObjectId owned = create_owned(d, node(1), node(2));
  const ObjectId hosted = create_owned(d, node(3), node(1));
  const std::vector<DirectoryRequest> seed = d.core().reseed(node(1));
  using K = DirectoryRequest::Kind;
  EXPECT_NE(std::find(seed.begin(), seed.end(),
                      DirectoryRequest{K::Update, node(1), owned, node(2)}),
            seed.end());
  EXPECT_NE(std::find(seed.begin(), seed.end(),
                      DirectoryRequest{K::Update, node(1), hosted, node(1)}),
            seed.end());
}

TEST(DirectoryCoreTest, HashedOwnerIsStableAndBounded) {
  for (std::uint32_t id = 0; id < 64; ++id) {
    const NodeId owner = objsys::hashed_owner(ObjectId{id}, 5);
    EXPECT_EQ(owner, objsys::hashed_owner(ObjectId{id}, 5));
    EXPECT_LT(owner.value(), 5u);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: random move/call/crash/recover interleavings, 64 seeds.
// The contract: a lookup follows at most one hint per node, never settles
// on a dead host, and is unresolved only while the authoritative host is
// down; a call settles on the authoritative host within a few stale
// rounds; and after quiescence (everything recovered) every call from
// every node settles with no lookup left unresolved.
// ---------------------------------------------------------------------------

void check_lookup(Deployment& d, const DirectoryLookup& l, ObjectId obj,
                  std::uint64_t seed, int op) {
  ASSERT_LE(l.hops(), d.nodes()) << "seed " << seed << " op " << op;
  if (l.host().valid()) {
    ASSERT_TRUE(d.up(l.host())) << "seed " << seed << " op " << op;
  } else {
    ASSERT_FALSE(d.up(d.host(obj))) << "seed " << seed << " op " << op;
  }
}

TEST(ShardedDirectoryPropertyTest, RandomHistoriesKeepTheContract) {
  constexpr std::uint64_t kSeeds = 64;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::mt19937_64 rng{seed};
    const std::size_t nodes = 3 + rng() % 14;
    Deployment d{nodes, static_cast<ConsistencyStrategy>(seed % 3)};
    const std::uint32_t objects =
        1 + static_cast<std::uint32_t>(rng() % 24);
    for (std::uint32_t id = 0; id < objects; ++id) {
      (void)d.create(node(rng() % nodes));
    }
    auto random_node = [&] { return node(rng() % nodes); };
    auto random_obj = [&] {
      return ObjectId{static_cast<ObjectId::value_type>(rng() % objects)};
    };

    for (int op = 0; op < 300; ++op) {
      const std::uint64_t dice = rng() % 100;
      if (dice < 52) {
        const ObjectId obj = random_obj();
        const Deployment::Call c = d.call(random_node(), obj);
        for (const DirectoryLookup& l : c.lookups) {
          check_lookup(d, l, obj, seed, op);
        }
        if (c.host.valid()) {
          ASSERT_EQ(c.host, d.host(obj)) << "seed " << seed << " op " << op;
        }
      } else if (dice < 82) {
        // Migrate to a live node (migrations never target dead hosts).
        const NodeId dest = random_node();
        if (d.up(dest)) d.move(random_obj(), dest);
      } else if (dice < 90) {
        const NodeId victim = random_node();
        if (d.up(victim)) d.crash(victim);
      } else {
        const NodeId back = random_node();
        if (!d.up(back)) d.recover(back);
      }
    }

    // Quiescence: recover everything, then every call from every node
    // settles on the current host — zero unresolved.
    for (std::size_t n = 0; n < nodes; ++n) {
      if (!d.up(node(n))) d.recover(node(n));
    }
    const std::uint64_t unresolved_before = d.core().stats().unresolved;
    for (std::uint32_t id = 0; id < objects; ++id) {
      for (std::size_t n = 0; n < nodes; ++n) {
        const Deployment::Call c = d.call(node(n), ObjectId{id});
        ASSERT_EQ(c.host, d.host(ObjectId{id})) << "seed " << seed;
        for (const DirectoryLookup& l : c.lookups) {
          ASSERT_LE(l.hops(), nodes) << "seed " << seed;
        }
      }
    }
    EXPECT_EQ(d.core().stats().unresolved, unresolved_before)
        << "seed " << seed;
  }
}

TEST(ShardedDirectoryPropertyTest, EagerInvalidateStaleFreeWithoutCrashes) {
  // Crash-free runs under EagerInvalidate never serve a stale cache entry:
  // every migration drops the entry everywhere, so every lookup names the
  // current host the first time and no call needs a stale round.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng{seed};
    const std::size_t nodes = 2 + rng() % 10;
    Deployment d{nodes, ConsistencyStrategy::EagerInvalidate};
    const std::uint32_t objects =
        1 + static_cast<std::uint32_t>(rng() % 12);
    for (std::uint32_t id = 0; id < objects; ++id) {
      (void)d.create(node(rng() % nodes));
    }
    for (int op = 0; op < 200; ++op) {
      const ObjectId obj{static_cast<ObjectId::value_type>(rng() % objects)};
      const NodeId at = node(rng() % nodes);
      if (rng() % 2 == 0) {
        const DirectoryLookup l = d.lookup(at, obj);
        ASSERT_EQ(l.host(), d.host(obj)) << "seed " << seed << " op " << op;
      } else {
        d.move(obj, at);
      }
    }
    EXPECT_EQ(d.core().stats().stale_hits, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Cross-backend parity: the same office-style workflow on a 100-node live
// system must record the identical logical trace under Central and Sharded
// directories — sharding changes where lookups go, never what the protocol
// decides.
// ---------------------------------------------------------------------------

runtime::ObjectFactory doc_factory() {
  return [](std::string name, runtime::ObjectState state) {
    auto obj = std::make_unique<runtime::LiveObject>(std::move(name),
                                                     std::move(state));
    obj->register_method(
        "edit", [](runtime::ObjectState& self, const std::string& text) {
          self.fields["body"] += text;
          return self.fields["body"];
        });
    obj->register_method(
        "read", [](runtime::ObjectState& self, const std::string&) {
          return self.fields["body"];
        });
    return obj;
  };
}

runtime::ObjectState doc_state() {
  runtime::ObjectState s;
  s.type = "document";
  s.fields["body"] = "";
  return s;
}

std::vector<trace::Event> run_office_workflow(
    DirectoryKind kind,
    runtime::TransportKind transport = runtime::TransportKind::InProc) {
  trace::TraceLog log;
  runtime::LiveSystem::Options opts;
  opts.nodes = 100;
  opts.trace = &log;
  opts.directory = kind;
  opts.transport = transport;
  runtime::LiveSystem sys{opts};
  sys.register_type("document", doc_factory());
  sys.start();

  for (int i = 0; i < 20; ++i) {
    const std::string name = "doc" + std::to_string(i);
    EXPECT_TRUE(sys.create(name, doc_state(), (i * 7) % 100));
  }
  for (int i = 0; i + 1 < 20; i += 2) {
    sys.attach("doc" + std::to_string(i), "doc" + std::to_string(i + 1),
               "office");
  }
  sys.fix("doc0");
  for (int i = 0; i < 20; ++i) {
    (void)sys.invoke("doc" + std::to_string(i), "edit", "a");
  }
  auto token = sys.move("doc2", 50, "office");
  (void)sys.invoke("doc2", "edit", "b");
  sys.end(token);
  auto visiting = sys.visit("doc4", 60, "office");
  (void)sys.invoke("doc4", "read", "");
  sys.end(visiting);
  (void)sys.migrate("doc6", 70);
  sys.unfix("doc0");
  (void)sys.migrate("doc0", 80);
  for (int i = 0; i < 20; ++i) {
    const auto r = sys.invoke("doc" + std::to_string(i), "read", "");
    EXPECT_TRUE(r.ok) << "doc" << i << " under " << objsys::to_string(kind);
  }
  sys.stop();
  return log.events();
}

TEST(ShardedDirectoryParityTest, CentralAndShardedTracesMatchAt100Nodes) {
  const auto central = run_office_workflow(DirectoryKind::Central);
  const auto sharded = run_office_workflow(DirectoryKind::Sharded);
  ASSERT_EQ(central.size(), sharded.size());
  ASSERT_GT(central.size(), 0u);
  for (std::size_t i = 0; i < central.size(); ++i) {
    EXPECT_EQ(central[i].time, sharded[i].time) << "event " << i;
    EXPECT_EQ(central[i].kind, sharded[i].kind) << "event " << i;
    EXPECT_EQ(central[i].object, sharded[i].object) << "event " << i;
    EXPECT_EQ(central[i].node, sharded[i].node) << "event " << i;
    EXPECT_EQ(central[i].block, sharded[i].block) << "event " << i;
  }
}

// The same parity contract must survive the wire: Central vs Sharded over
// the event-loop TCP backend (100 nodes = 100 NodeServers plus the client
// transport's 100 links, all on one shared loop) produces the identical
// protocol trace — and the identical trace to the in-process run, so the
// directory choice and the transport choice are independently invisible.
TEST(ShardedDirectoryParityTest, CentralAndShardedTracesMatchOverAsyncTcp) {
  const auto inproc = run_office_workflow(DirectoryKind::Central);
  const auto central = run_office_workflow(DirectoryKind::Central,
                                           runtime::TransportKind::AsyncTcp);
  const auto sharded = run_office_workflow(DirectoryKind::Sharded,
                                           runtime::TransportKind::AsyncTcp);
  ASSERT_EQ(central.size(), sharded.size());
  ASSERT_EQ(central.size(), inproc.size());
  ASSERT_GT(central.size(), 0u);
  for (std::size_t i = 0; i < central.size(); ++i) {
    EXPECT_EQ(central[i].time, sharded[i].time) << "event " << i;
    EXPECT_EQ(central[i].kind, sharded[i].kind) << "event " << i;
    EXPECT_EQ(central[i].object, sharded[i].object) << "event " << i;
    EXPECT_EQ(central[i].node, sharded[i].node) << "event " << i;
    EXPECT_EQ(central[i].block, sharded[i].block) << "event " << i;
    EXPECT_EQ(central[i].kind, inproc[i].kind) << "event " << i;
    EXPECT_EQ(central[i].object, inproc[i].object) << "event " << i;
    EXPECT_EQ(central[i].node, inproc[i].node) << "event " << i;
  }
}

}  // namespace
}  // namespace omig
