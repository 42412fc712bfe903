#include "migration/manager.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace omig::migration {

namespace {
/// Bound on retransmissions per control-message leg, so a plan with drop
/// probability 1.0 cannot hang the simulation.
constexpr int kMaxLegRetries = 64;
}  // namespace

MigrationManager::MigrationManager(sim::Engine& engine,
                                   ObjectRegistry& registry,
                                   const net::LatencyModel& latency,
                                   sim::Rng& rng,
                                   AttachmentGraph& attachments,
                                   AllianceRegistry& alliances,
                                   ManagerOptions options)
    : engine_{&engine}, registry_{&registry}, latency_{&latency}, rng_{&rng},
      alliances_{&alliances}, options_{options},
      protocol_{*this, attachments, registry.node_count(),
                ProtocolOptions{options.transitivity,
                                options.clear_majority_minimum,
                                options.lock_lease, options.hysteresis_band,
                                options.adaptive_min_weight,
                                options.load_factor}} {
  OMIG_REQUIRE(options.migration_duration >= 0.0,
               "migration duration must be non-negative");
}

void MigrationManager::trace_event(trace::EventKind kind, ObjectId object,
                                   objsys::NodeId node,
                                   objsys::BlockId block) {
  if (trace_ == nullptr) return;
  trace_->record(trace::Event{engine_->now(), kind, object, node, block});
}

sim::SimTime MigrationManager::message_cost(std::size_t from,
                                            std::size_t to) {
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

sim::Task MigrationManager::control_message(objsys::NodeId from,
                                            ObjectId about, MoveBlock* blk) {
  ++control_;
  trace_event(trace::EventKind::MoveRequest, about, from,
              blk ? blk->id : objsys::BlockId::invalid());
  const objsys::NodeId to = registry_->location(about);
  const sim::SimTime d = message_cost(from.value(), to.value());
  charge(blk, d);
  co_await engine_->delay(d);
}

sim::Task MigrationManager::control_reply(ObjectId about, objsys::NodeId to,
                                          MoveBlock* blk) {
  ++control_;
  const objsys::NodeId from = registry_->location(about);
  const sim::SimTime d = message_cost(from.value(), to.value());
  charge(blk, d);
  co_await engine_->delay(d);
}

sim::Task MigrationManager::transfer(std::vector<ObjectId> objs,
                                     objsys::NodeId dest, MoveBlock* blk) {
  // Wait until no member is in transit under someone else's migration.
  for (;;) {
    ObjectId busy = ObjectId::invalid();
    for (ObjectId o : objs) {
      if (registry_->in_transit(o)) {
        busy = o;
        break;
      }
    }
    if (!busy.valid()) break;
    co_await registry_->transit_gate(busy).wait();
  }

  // Partition members: mutable objects transit; immutable ("static")
  // objects are copied instead — the original stays operational, callers
  // never block, and conflicting moves commute (paper Section 1).
  std::vector<ObjectId> moving;
  std::vector<ObjectId> copying;
  moving.reserve(objs.size());
  for (ObjectId o : objs) {
    const auto& desc = registry_->descriptor(o);
    if (desc.immutable) {
      if (desc.mobile && !registry_->is_fixed(o) &&
          !registry_->has_replica(o, dest)) {
        copying.push_back(o);
      }
    } else if (registry_->is_movable(o) && registry_->location(o) != dest) {
      moving.push_back(o);
    }
  }
  if (moving.empty() && copying.empty()) co_return;

  if (health_ != nullptr) {
    // A crashed destination cannot receive objects: the transfer stalls
    // until it restarts, and the stall is the block's problem. A crashed
    // *source* does not stall anything — the member's state is pulled from
    // its directory checkpoint instead (degraded-mode recovery, see
    // docs/fault_model.md), which costs the same transfer time.
    const sim::SimTime wait_start = engine_->now();
    while (!health_->up(dest.value())) {
      co_await health_->wait_up(dest.value());
    }
    charge(blk, engine_->now() - wait_start);
    if (fault_ != nullptr) {
      for (ObjectId o : moving) {
        if (!health_->up(registry_->location(o).value())) {
          fault_->counters().recoveries.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
      }
    }
  }

  sim::SimTime duration = 0.0;
  auto accumulate = [&](ObjectId o, bool relocates) {
    sim::SimTime d =
        options_.migration_duration * registry_->descriptor(o).size;
    if (service_ != nullptr) {
      d += service_->migration_overhead(o, registry_->location(o), dest,
                                        relocates);
    }
    duration = options_.transfer == ClusterTransfer::Parallel
                   ? std::max(duration, d)
                   : duration + d;
  };
  for (ObjectId o : moving) accumulate(o, true);
  for (ObjectId o : copying) accumulate(o, false);

  ++transfers_;
  const objsys::BlockId blk_id = blk ? blk->id : objsys::BlockId::invalid();
  for (ObjectId o : moving) {
    if (blk) {
      blk->moved.push_back(o);
      blk->origins_of_moved.push_back(registry_->location(o));
    }
    registry_->begin_transit(o);
    trace_event(trace::EventKind::MigrationStart, o, dest, blk_id);
  }
  charge(blk, duration);
  co_await engine_->delay(duration);
  for (ObjectId o : moving) {
    registry_->finish_transit(o, dest);
    trace_event(trace::EventKind::MigrationEnd, o, dest, blk_id);
  }
  for (ObjectId o : copying) {
    registry_->add_replica(o, dest);
    trace_event(trace::EventKind::ReplicaCreated, o, dest, blk_id);
  }
}

void MigrationManager::set_background_cost_sink(
    std::function<void(double)> sink) {
  background_sink_ = std::move(sink);
}

void MigrationManager::charge(MoveBlock* blk, double cost) {
  if (cost <= 0.0) return;
  if (blk != nullptr) {
    blk->migration_cost += cost;
  } else if (background_sink_) {
    background_sink_(cost);
  }
}

}  // namespace omig::migration
