#include "objsys/invocation.hpp"

#include "objsys/locality.hpp"
#include "objsys/location_service.hpp"
#include "util/assert.hpp"

namespace omig::objsys {

namespace {
/// Bound on retransmissions per message leg and on down-node polls, so a
/// plan with drop probability 1.0 (or a node that never restarts while
/// nothing relocates its objects) cannot hang the simulation.
constexpr int kMaxLegRetries = 64;
constexpr int kMaxDownPolls = 100000;
/// Bound on the sharded path's stale rounds, as in the live runtime.
constexpr int kMaxStaleRounds = 64;

/// Sim time is unit-mean message latency; histograms store integers, so
/// durations are recorded in milli-units (×1000) to keep sub-unit
/// resolution in the power-of-2 buckets.
std::uint64_t to_milli(sim::SimTime duration) {
  if (duration <= 0.0) return 0;
  return static_cast<std::uint64_t>(duration * 1000.0);
}
}  // namespace

Invoker::Invoker(sim::Engine& engine, ObjectRegistry& registry,
                 const net::LatencyModel& latency, sim::Rng& rng)
    : engine_{&engine}, registry_{&registry}, latency_{&latency}, rng_{&rng} {}

sim::SimTime Invoker::message_leg(std::size_t from, std::size_t to) {
  sim::SimTime cost = latency_->sample(*rng_, from, to);
  if (fault_ == nullptr) return cost;
  for (int attempt = 0; attempt < kMaxLegRetries; ++attempt) {
    const fault::Decision dec = fault_->on_message(from, to);
    if (!dec.drop) return cost + dec.delay;
    // Lost: the sender waits out its timeout, then retransmits.
    cost += fault_->plan().retry_timeout;
    fault_->counters().retries.fetch_add(1, std::memory_order_relaxed);
    cost += latency_->sample(*rng_, from, to);
  }
  return cost;
}

void Invoker::set_replication(ReplicationMode mode, double copy_duration) {
  OMIG_REQUIRE(copy_duration >= 0.0, "copy duration must be non-negative");
  replication_ = mode;
  copy_duration_ = copy_duration;
}

sim::Task Invoker::invoke(NodeId caller, ObjectId callee,
                          InvocationKind kind) {
  const sim::SimTime start = engine_->now();
  // "When the object migrates at the moment of the invocation, the call is
  // blocked until the object is operational once again" (Section 4.1).
  if (registry_->in_transit(callee)) {
    ++blocked_;
    while (registry_->in_transit(callee)) {
      co_await registry_->transit_gate(callee).wait();
    }
  }
  // Callee hosted by a crashed node: the caller's messages go unanswered,
  // so it retries on its timeout until the node recovers or a migration
  // pulls the object elsewhere (checkpoint recovery makes it reachable
  // again). Caller processes themselves ride out crashes — the fault
  // model perturbs object availability, not client code.
  if (health_ != nullptr) {
    NodeId where = registry_->location(callee);
    if (where.valid() && !health_->up(where.value())) {
      ++blocked_;
      const double timeout = fault_ ? fault_->plan().retry_timeout : 1.0;
      for (int polls = 0;
           where.valid() && !health_->up(where.value()) &&
           polls < kMaxDownPolls;
           ++polls) {
        if (fault_ != nullptr) {
          fault_->counters().retries.fetch_add(1, std::memory_order_relaxed);
        }
        co_await engine_->delay(timeout);
        where = registry_->location(callee);
      }
    }
  }
  ++invocations_;
  if (locality_ != nullptr) locality_->record(callee, caller);
  const bool immutable = registry_->descriptor(callee).immutable;
  NodeId loc = registry_->location(callee);
  // The sharded directory resolves every call, as the live runtime's
  // invoke does; the central schemes charge only remote calls, below.
  const bool sharded = service_ != nullptr && service_->sharded() != nullptr;
  if (sharded) co_await locate(caller, callee, loc);

  // Writes to a mutable replicated object invalidate every copy. The
  // invalidation messages fan out asynchronously — they are counted but do
  // not delay the writer (the paper's model neglects background load).
  if (!immutable && kind == InvocationKind::Write) {
    invalidation_messages_ += registry_->drop_replicas(callee);
  }

  if (loc == caller) {  // local invocation: negligible execution cost
    local_call_milli_.record(to_milli(engine_->now() - start));
    co_return;
  }

  // A local copy serves the call if the access permits it: always for
  // immutable ("static") objects, reads only for mutable ones.
  const bool copy_serves =
      (immutable || kind == InvocationKind::Read) &&
      registry_->has_replica(callee, caller);
  if (copy_serves) {
    ++replica_hits_;
    // Served locally, whatever the primary says.
    local_call_milli_.record(to_milli(engine_->now() - start));
    co_return;
  }

  ++remote_;
  if (service_ != nullptr && !sharded) {
    co_await service_->resolve(caller, callee);
  }
  // Call message to the callee, result message back.
  co_await engine_->delay(message_leg(caller.value(), loc.value()));
  co_await engine_->delay(message_leg(loc.value(), caller.value()));

  // Replicate-on-read: the reply ships the object's state; installing the
  // local copy costs one state transfer, experienced by the caller.
  if (!immutable && kind == InvocationKind::Read &&
      replication_ == ReplicationMode::ReplicateOnRead) {
    co_await engine_->delay(copy_duration_);
    // The object may have moved or been written meanwhile; only install a
    // copy if the state we carried is still current (no write dropped our
    // in-flight copy — approximated by re-checking the location).
    if (registry_->location(callee) == loc &&
        !registry_->in_transit(callee)) {
      registry_->add_replica(callee, caller);
    }
  }
  remote_call_milli_.record(to_milli(engine_->now() - start));
}

sim::Task Invoker::locate(NodeId caller, ObjectId callee, NodeId& host) {
  // The caller calls the host the directory names. A host without the
  // object answers "not resident" — the only way a stale entry shows — so
  // the caller pays that wasted round trip and resolves again with the
  // host as stale, once the object is operational (as the live invoke
  // waits out a transit before each round). An unresolved lookup leaves
  // the registry's location: the down-host poll above has waited for it.
  NodeId stale = NodeId::invalid();
  for (int round = 0; round < kMaxStaleRounds; ++round) {
    while (registry_->in_transit(callee)) {
      co_await registry_->transit_gate(callee).wait();
    }
    NodeId named;
    co_await service_->lookup(caller, callee, stale, named);
    host = registry_->location(callee);
    if (!named.valid() || named == host) co_return;
    if (named != caller) {
      co_await engine_->delay(message_leg(caller.value(), named.value()));
      co_await engine_->delay(message_leg(named.value(), caller.value()));
    }
    stale = named;
  }
}

sim::Task Invoker::invoke_from_object(ObjectId caller, ObjectId callee,
                                      InvocationKind kind) {
  // An object in transit cannot execute; its outgoing call starts once it
  // is reinstalled.
  while (registry_->in_transit(caller)) {
    co_await registry_->transit_gate(caller).wait();
  }
  co_await invoke(registry_->location(caller), callee, kind);
}

}  // namespace omig::objsys
