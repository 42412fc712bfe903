// Object-location mechanisms.
//
// The paper (Section 4.1) deliberately neglects the cost of the different
// object-location policies — name-server lookup [ChC91], forward addressing
// [JLH+88], broadcast [DLA+91] and immediate update [Dec86] — and
// normalises a remote invocation to duration 1. We implement all four cost
// models so that this normalisation is checkable: the ablation bench shows
// the policy *ordering* is unaffected by the location scheme.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/latency.hpp"
#include "objsys/directory_core.hpp"
#include "objsys/registry.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "util/dense_table.hpp"

namespace omig::objsys {

enum class LocationScheme {
  None,             ///< paper default: location is known, no extra cost
  NameServer,       ///< lookup round-trip to a name-server node per call
  Forwarding,       ///< chase forwarding addresses left at old locations
  Broadcast,        ///< query broadcast + answer per call
  ImmediateUpdate,  ///< migrations eagerly update every node; calls free
};

[[nodiscard]] const char* to_string(LocationScheme scheme);

/// Charges the caller the location-mechanism overhead before a remote call,
/// and migrations their update overhead.
class LocationService : private DirectoryView {
public:
  LocationService(sim::Engine& engine, ObjectRegistry& registry,
                  const net::LatencyModel& latency, sim::Rng& rng,
                  LocationScheme scheme, NodeId name_server = NodeId{0});
  LocationService(const LocationService&) = delete;
  LocationService& operator=(const LocationService&) = delete;

  [[nodiscard]] LocationScheme scheme() const { return scheme_; }

  /// Switch the service to the sharded directory (DirectoryKind::Sharded):
  /// a DirectoryCore with one shard per registry node, whose requests this
  /// service answers from in-memory node tables. The invoker resolves
  /// every call through lookup(), and migrations publish their moves
  /// through migration_overhead().
  void enable_sharded(ConsistencyStrategy strategy);

  [[nodiscard]] DirectoryKind directory() const {
    return core_ ? DirectoryKind::Sharded : DirectoryKind::Central;
  }
  /// The sharded directory's core (stats, request log), or nullptr.
  [[nodiscard]] DirectoryCore* sharded() { return core_ ? &*core_ : nullptr; }
  [[nodiscard]] const DirectoryCore* sharded() const {
    return core_ ? &*core_ : nullptr;
  }

  /// Awaitable overhead paid by a remote caller at `from` before the call
  /// message for `obj` can be addressed (the central schemes).
  sim::Task resolve(NodeId from, ObjectId obj);

  /// Sharded: one directory lookup for a caller at `from`. Each request
  /// the core emits costs a round trip to its target, whose table answers.
  /// `stale` names a host a call just found without `obj`. `host` receives
  /// the answer; invalid = unresolved.
  sim::Task lookup(NodeId from, ObjectId obj, NodeId stale, NodeId& host);

  /// Sharded: announces `obj`'s creation at its registry location, once.
  /// lookup() and migration_overhead() call it on an object's first touch.
  void register_object(ObjectId obj);
  /// Sharded: `node` crashes. Its table and its lookup cache are lost, and
  /// no request is sent to it until restart_node().
  void crash_node(NodeId node);
  /// Sharded: `node` restarts, and its table is reseeded — one message
  /// per update, as a migration's published updates are charged.
  void restart_node(NodeId node);

  /// Extra duration a migration of `obj` from `from` to `dest` takes for
  /// location upkeep (name-server update, immediate update fan-out, the
  /// sharded directory's published updates). `relocates` is false for
  /// replica copies, which leave the primary location — and thus the
  /// sharded directory — untouched.
  [[nodiscard]] sim::SimTime migration_overhead(ObjectId obj, NodeId from,
                                                NodeId dest, bool relocates);

  /// Control messages generated by the scheme so far (diagnostics).
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

private:
  // DirectoryView — the registry is the authoritative map.
  [[nodiscard]] NodeId owner(ObjectId obj) const override {
    return hashed_owner(obj, registry_->node_count());
  }
  [[nodiscard]] bool up(NodeId node) const override {
    return down_[node.value()] == 0;
  }
  [[nodiscard]] NodeId host(ObjectId obj) const override {
    return registry_->location(obj);
  }
  [[nodiscard]] std::size_t object_bound() const override {
    return registry_->object_count();
  }
  /// Writes published updates into the node tables.
  void apply(const std::vector<DirectoryRequest>& updates);

  sim::Engine* engine_;
  ObjectRegistry* registry_;
  const net::LatencyModel* latency_;
  sim::Rng* rng_;
  LocationScheme scheme_;
  NodeId name_server_;
  /// Forwarding: per [node][object], index into the object's location
  /// history that the node last saw. Dense (node count is fixed at
  /// construction, object ids are registry-contiguous); 0 — the object's
  /// birth location — doubles as "never contacted", exactly what a node
  /// with no cached address would chase from.
  std::vector<std::vector<std::uint32_t>> known_;
  std::uint64_t messages_ = 0;
  /// Engaged iff DirectoryKind::Sharded.
  std::optional<DirectoryCore> core_;
  /// Sharded: each node's entry table — slice entries, forwarding hints
  /// and self-entries alike, as a live node keeps them.
  std::vector<util::DenseTable<ObjectId, NodeId>> tables_;
  std::vector<char> down_;
  /// Sharded: objects whose creation has been announced.
  util::DenseTable<ObjectId, char> registered_;
};

}  // namespace omig::objsys
