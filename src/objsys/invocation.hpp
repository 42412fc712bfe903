// Synchronous object invocation.
//
// Calls are trapped by proxies, linearised and forwarded to the current
// location of the callee (Section 3.1). In the model this costs one call
// message plus one result message (each exp(1)); a local invocation is free
// ("about 4 orders of magnitude below the duration of a remote action").
// If the callee is in transit, the call blocks until the object is
// reinstalled — this is the mechanism that inflates call durations under
// conflicting migration policies.
#pragma once

#include <cstdint>

#include "fault/injector.hpp"
#include "net/latency.hpp"
#include "obs/metrics.hpp"
#include "objsys/registry.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace omig::objsys {

class LocationService;
class LocalityTracker;

/// Whether an invocation only observes the callee's state (Read) or
/// modifies it (Write). The paper's model does not distinguish them; the
/// distinction powers the outlook's replication mechanism: reads can be
/// served by a local copy, writes go to the primary and invalidate copies.
enum class InvocationKind { Read, Write };

/// Replication strategy for *mutable* objects (Section 5 outlook).
enum class ReplicationMode {
  None,            ///< paper default: no mutable replicas
  ReplicateOnRead, ///< a remote read installs a local copy (cost: one
                   ///< state transfer, charged into the call duration)
};

/// Executes synchronous invocations against the registry.
class Invoker {
public:
  Invoker(sim::Engine& engine, ObjectRegistry& registry,
          const net::LatencyModel& latency, sim::Rng& rng);

  /// Optional location-mechanism cost model (paper normalises this away;
  /// see `LocationService` and the ablation benches). Not owned.
  void set_location_service(LocationService* service) { service_ = service; }

  /// Optional access-locality tracker (docs/policies.md): every invocation
  /// records its caller node into the per-object EMA the adaptive policies
  /// consult. Pure arithmetic on the hot path — no RNG, no events — so
  /// attaching it cannot change any simulated outcome. Not owned; null
  /// disables (the default, and the only mode non-adaptive runs use).
  void set_locality_tracker(LocalityTracker* tracker) { locality_ = tracker; }

  /// Optional fault model (docs/fault_model.md). With an injector, each
  /// message leg may be dropped (the caller waits out its retry timeout and
  /// retransmits) or delayed; with node health, a call on an object hosted
  /// by a crashed node polls on the retry timeout until the node recovers
  /// or a migration pulls the object elsewhere. Neither is owned; null
  /// disables.
  void set_fault(fault::FaultInjector* injector, fault::NodeHealth* health) {
    fault_ = injector;
    health_ = health;
  }

  /// Configures mutable-object replication (default: None) and the state
  /// transfer duration a replicate-on-read pays (default: the migration
  /// duration M — it ships the same state).
  void set_replication(ReplicationMode mode, double copy_duration);

  /// One synchronous invocation from node `caller` on `callee`. Completes
  /// when the result message has arrived back at the caller. Writes go to
  /// the primary and invalidate read replicas; reads may be served by a
  /// local copy.
  sim::Task invoke(NodeId caller, ObjectId callee,
                   InvocationKind kind = InvocationKind::Write);

  /// Nested invocation issued *by* an object (e.g. a first-layer server
  /// calling into its working set): waits until the calling object is
  /// operational, then invokes from its current location.
  sim::Task invoke_from_object(ObjectId caller, ObjectId callee,
                               InvocationKind kind = InvocationKind::Write);

  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
  [[nodiscard]] std::uint64_t remote_invocations() const { return remote_; }
  [[nodiscard]] std::uint64_t blocked_invocations() const { return blocked_; }
  [[nodiscard]] std::uint64_t replica_hits() const { return replica_hits_; }
  [[nodiscard]] std::uint64_t invalidation_messages() const {
    return invalidation_messages_;
  }

  /// Call-duration tallies in sim-time milli-units, split local vs remote.
  /// Plain (non-atomic) accumulators — the invocation path is the sim's
  /// hottest loop and the engine is single-threaded — folded into the
  /// process-wide registry once per run (core/experiment.cpp).
  [[nodiscard]] const obs::HistogramTally& local_call_milli() const {
    return local_call_milli_;
  }
  [[nodiscard]] const obs::HistogramTally& remote_call_milli() const {
    return remote_call_milli_;
  }

private:
  /// Cost of one message leg including injected faults: a dropped leg adds
  /// the retry timeout plus the retransmission's latency; a delayed leg
  /// adds its extra delay. Faultless legs are a single latency sample.
  sim::SimTime message_leg(std::size_t from, std::size_t to);
  /// Sharded directory: resolves `callee` for `caller` until the named
  /// host holds it, and leaves that host in `host`.
  sim::Task locate(NodeId caller, ObjectId callee, NodeId& host);

  sim::Engine* engine_;
  ObjectRegistry* registry_;
  const net::LatencyModel* latency_;
  sim::Rng* rng_;
  LocationService* service_ = nullptr;
  LocalityTracker* locality_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  fault::NodeHealth* health_ = nullptr;
  ReplicationMode replication_ = ReplicationMode::None;
  double copy_duration_ = 6.0;
  std::uint64_t invocations_ = 0;
  std::uint64_t remote_ = 0;
  std::uint64_t blocked_ = 0;  ///< calls that had to wait for a migration
  std::uint64_t replica_hits_ = 0;
  std::uint64_t invalidation_messages_ = 0;
  obs::HistogramTally local_call_milli_;
  obs::HistogramTally remote_call_milli_;
};

}  // namespace omig::objsys
