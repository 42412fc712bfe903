// Migration manager: the simulator's run-time support of Section 3.1.
//
// Migration requests are interpreted at the node of the callee instead of
// being executed blindly. The interpretation itself — clusters, placement
// locks, open-move counts, every policy's decision — is the ProtocolCore
// (migration/protocol.hpp) the live runtime runs too; the manager owns it,
// serves it the registry as its object table, and supplies the simulated
// mechanics around its decisions: control messages and physical transfers
// (closing transit gates, advancing time by M, relocating).
#pragma once

#include <functional>
#include <vector>

#include "fault/injector.hpp"
#include "migration/alliance.hpp"
#include "migration/attachment.hpp"
#include "migration/block.hpp"
#include "migration/protocol.hpp"
#include "net/latency.hpp"
#include "objsys/location_service.hpp"
#include "objsys/registry.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "trace/log.hpp"

namespace omig::migration {

using objsys::ObjectRegistry;

/// How a multi-object cluster is physically transferred.
enum class ClusterTransfer {
  Parallel,  ///< all members in flight concurrently: duration = max(M_i)
  Serial,    ///< one after another: duration = sum(M_i)
};

/// The protocol's options (ProtocolOptions, in sim time) plus the
/// simulated transfer's cost model.
struct ManagerOptions {
  /// Migration duration per unit of object size (paper: M = 6, size 1).
  double migration_duration = 6.0;
  AttachTransitivity transitivity = AttachTransitivity::Unrestricted;
  ClusterTransfer transfer = ClusterTransfer::Parallel;
  int clear_majority_minimum = 2;
  double lock_lease = 0.0;
  double hysteresis_band = 0.2;
  double adaptive_min_weight = 4.0;
  double load_factor = 2.0;
};

class MigrationManager : private ObjectView {
public:
  MigrationManager(sim::Engine& engine, ObjectRegistry& registry,
                   const net::LatencyModel& latency, sim::Rng& rng,
                   AttachmentGraph& attachments, AllianceRegistry& alliances,
                   ManagerOptions options);

  [[nodiscard]] ObjectRegistry& registry() { return *registry_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] AttachmentGraph& attachments() {
    return protocol_.attachments();
  }
  [[nodiscard]] AllianceRegistry& alliances() { return *alliances_; }
  /// The placement protocol this simulation drives.
  [[nodiscard]] ProtocolCore& protocol() { return protocol_; }
  [[nodiscard]] const ProtocolCore& protocol() const { return protocol_; }

  /// Creates a fresh move-block context.
  MoveBlock new_block(objsys::NodeId origin, ObjectId target,
                      AllianceId alliance = AllianceId::invalid(),
                      bool visit = false) {
    return protocol_.new_block(origin, target, alliance, visit);
  }

  /// One-way control message from `from` to the *current* location of
  /// `about` (e.g. a move request). Charged to `blk` (may be null).
  sim::Task control_message(objsys::NodeId from, ObjectId about,
                            MoveBlock* blk);

  /// One-way control message from the current location of `about` back to
  /// `to` (e.g. the "locked" indication of the place-policy).
  sim::Task control_reply(ObjectId about, objsys::NodeId to, MoveBlock* blk);

  /// Physically migrates `objs` to `dest`: waits for members that are in
  /// transit, drops members that are unmovable or already at `dest`, then
  /// advances time by the (parallel or serial) transfer duration and
  /// relocates. Appends the objects actually moved (with their previous
  /// locations) to blk->moved / blk->origins_of_moved and charges the
  /// duration to the block (or to the background sink if blk is null).
  sim::Task transfer(std::vector<ObjectId> objs, objsys::NodeId dest,
                     MoveBlock* blk);

  /// Sink for migration cost not attributable to any block (reinstantiation
  /// migrations triggered by end-requests run in the background).
  void set_background_cost_sink(std::function<void(double)> sink);

  /// Optional location-mechanism cost model: migrations then pay the
  /// scheme's update overhead (name-server update, immediate-update fan-out).
  /// Not owned.
  void set_location_service(objsys::LocationService* service) {
    service_ = service;
  }

  /// Optional instrumentation: all protocol events (requests, refusals,
  /// transits, locks) are recorded into `log`. Not owned; null disables.
  void set_trace(trace::TraceLog* log) { trace_ = log; }

  /// Optional fault model (docs/fault_model.md). Control messages may be
  /// dropped (charged one retry timeout per retransmission) or delayed; a
  /// transfer waits for a crashed destination to restart (the stall is
  /// charged to the block) and pulls members off a dead source from their
  /// checkpoint (counted as recoveries). Neither is owned; null disables.
  void set_fault(fault::FaultInjector* injector, fault::NodeHealth* health) {
    fault_ = injector;
    health_ = health;
  }

  /// Emits a trace event if a trace log is attached (used by policies for
  /// block-begin/end events and by the protocol for its decisions).
  void trace_event(trace::EventKind kind,
                   ObjectId object = ObjectId::invalid(),
                   objsys::NodeId node = objsys::NodeId::invalid(),
                   objsys::BlockId block = objsys::BlockId::invalid());

  [[nodiscard]] std::uint64_t transfers_started() const { return transfers_; }
  [[nodiscard]] std::uint64_t control_messages() const { return control_; }

private:
  // ObjectView: the registry, as the protocol core reads it.
  [[nodiscard]] objsys::NodeId host(ObjectId obj) const override {
    return registry_->location(obj);
  }
  [[nodiscard]] bool pinned(ObjectId obj) const override {
    return registry_->is_fixed(obj) || !registry_->descriptor(obj).mobile;
  }
  [[nodiscard]] bool immutable(ObjectId obj) const override {
    return registry_->descriptor(obj).immutable;
  }
  [[nodiscard]] bool in_transit(ObjectId obj) const override {
    return registry_->in_transit(obj);
  }
  [[nodiscard]] std::size_t hosted(objsys::NodeId node) const override {
    return registry_->objects_at(node);
  }
  [[nodiscard]] std::size_t object_count() const override {
    return registry_->object_count();
  }
  [[nodiscard]] double now() const override { return engine_->now(); }
  void record(trace::EventKind kind, ObjectId object, objsys::NodeId node,
              objsys::BlockId block) override {
    trace_event(kind, object, node, block);
  }

  void charge(MoveBlock* blk, double cost);
  /// Cost of one control-message leg including injected faults (mirrors
  /// Invoker::message_leg).
  [[nodiscard]] sim::SimTime message_cost(std::size_t from, std::size_t to);

  sim::Engine* engine_;
  ObjectRegistry* registry_;
  const net::LatencyModel* latency_;
  sim::Rng* rng_;
  AllianceRegistry* alliances_;
  ManagerOptions options_;
  ProtocolCore protocol_;

  std::function<void(double)> background_sink_;
  objsys::LocationService* service_ = nullptr;
  trace::TraceLog* trace_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  fault::NodeHealth* health_ = nullptr;
  std::uint64_t transfers_ = 0;
  std::uint64_t control_ = 0;
};

}  // namespace omig::migration
