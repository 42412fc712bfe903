#include "objsys/location_service.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace omig::objsys {

const char* to_string(LocationScheme scheme) {
  switch (scheme) {
    case LocationScheme::None:
      return "none";
    case LocationScheme::NameServer:
      return "name-server";
    case LocationScheme::Forwarding:
      return "forwarding";
    case LocationScheme::Broadcast:
      return "broadcast";
    case LocationScheme::ImmediateUpdate:
      return "immediate-update";
  }
  return "unknown";
}

LocationService::LocationService(sim::Engine& engine, ObjectRegistry& registry,
                                 const net::LatencyModel& latency,
                                 sim::Rng& rng, LocationScheme scheme,
                                 NodeId name_server)
    : engine_{&engine}, registry_{&registry}, latency_{&latency}, rng_{&rng},
      scheme_{scheme}, name_server_{name_server} {
  OMIG_REQUIRE(name_server.value() < registry.node_count(),
               "name server node out of range");
  if (scheme_ == LocationScheme::Forwarding) {
    known_.resize(registry.node_count());
  }
}

void LocationService::enable_sharded(ConsistencyStrategy strategy) {
  const std::size_t nodes = registry_->node_count();
  tables_.assign(nodes, {});
  down_.assign(nodes, 0);
  core_.emplace(static_cast<DirectoryView&>(*this), nodes, strategy);
}

void LocationService::apply(const std::vector<DirectoryRequest>& updates) {
  for (const DirectoryRequest& u : updates) {
    tables_[u.target.value()][u.object] = u.node;
  }
}

void LocationService::register_object(ObjectId obj) {
  if (!registered_.try_emplace(obj, 1).second) return;
  // Creation is setup, not a timed operation: the updates cost nothing.
  const NodeId home = registry_->location(obj);
  const DirectoryMove created{obj, home, home};
  apply(core_->publish({&created, 1}));
}

void LocationService::crash_node(NodeId node) {
  down_[node.value()] = 1;
  tables_[node.value()].clear();
  core_->crash(node);
}

void LocationService::restart_node(NodeId node) {
  down_[node.value()] = 0;
  const std::vector<DirectoryRequest> updates = core_->reseed(node);
  apply(updates);
  messages_ += updates.size();  // one message each, as published updates
}

sim::Task LocationService::lookup(NodeId from, ObjectId obj, NodeId stale,
                                  NodeId& host) {
  register_object(obj);
  DirectoryLookup l = core_->lookup(from, obj, stale);
  while (!l.done()) {
    // One round trip per request: the ask, then the target table's answer
    // (unreachable if the target crashed meanwhile).
    const NodeId target = l.request().target;
    messages_ += 2;
    co_await engine_->delay(
        latency_->sample(*rng_, from.value(), target.value()));
    co_await engine_->delay(
        latency_->sample(*rng_, target.value(), from.value()));
    DirectoryAnswer answer;
    if (up(target)) {
      const NodeId* entry = tables_[target.value()].find(obj);
      answer = entry != nullptr
                   ? DirectoryAnswer{DirectoryAnswer::Kind::Entry, *entry}
                   : DirectoryAnswer{DirectoryAnswer::Kind::NoEntry,
                                     NodeId::invalid()};
    }
    core_->answer(l, answer);
  }
  host = l.host();
}

sim::Task LocationService::resolve(NodeId from, ObjectId obj) {
  switch (scheme_) {
    case LocationScheme::None:
    case LocationScheme::ImmediateUpdate:
      // Location is always current at every node.
      co_return;

    case LocationScheme::NameServer: {
      if (from == name_server_) co_return;  // local lookup
      messages_ += 2;
      co_await engine_->delay(
          latency_->sample(*rng_, from.value(), name_server_.value()));
      co_await engine_->delay(
          latency_->sample(*rng_, name_server_.value(), from.value()));
      co_return;
    }

    case LocationScheme::Broadcast: {
      // One broadcast query (modelled as a single message duration: all
      // copies are in flight concurrently) plus the answer from the host.
      messages_ += 2;
      const NodeId loc = registry_->location(obj);
      co_await engine_->delay(
          latency_->sample(*rng_, from.value(), loc.value()));
      co_await engine_->delay(
          latency_->sample(*rng_, loc.value(), from.value()));
      co_return;
    }

    case LocationScheme::Forwarding: {
      // The caller only knows the location it last contacted; the call is
      // forwarded along the chain of addresses the object left behind.
      // Each extra chain hop is one extra message duration.
      const auto& hist = registry_->history(obj);
      OMIG_ASSERT(from.value() < known_.size());
      std::vector<std::uint32_t>& row = known_[from.value()];
      if (row.size() <= obj.value()) row.resize(obj.value() + 1, 0);
      const std::size_t current = hist.size() - 1;
      const std::size_t cached =
          std::min<std::size_t>(row[obj.value()], current);
      for (std::size_t i = cached; i < current; ++i) {
        ++messages_;
        co_await engine_->delay(latency_->sample(*rng_, hist[i].value(),
                                                 hist[i + 1].value()));
      }
      row[obj.value()] = static_cast<std::uint32_t>(current);
      co_return;
    }
  }
}

sim::SimTime LocationService::migration_overhead(ObjectId obj, NodeId from,
                                                 NodeId dest, bool relocates) {
  if (core_) {
    // Replica copies leave the primary location untouched — the directory
    // does not change and nothing is charged.
    if (!relocates) return 0.0;
    register_object(obj);
    // The published updates travel in parallel with the transfer: the
    // migration is extended by the slowest leg.
    const DirectoryMove move{obj, from, dest};
    const std::vector<DirectoryRequest> updates = core_->publish({&move, 1});
    apply(updates);
    sim::SimTime worst = 0.0;
    for (const DirectoryRequest& u : updates) {
      ++messages_;
      worst = std::max(
          worst, latency_->sample(*rng_, dest.value(), u.target.value()));
    }
    return worst;
  }

  switch (scheme_) {
    case LocationScheme::None:
    case LocationScheme::Forwarding:
    case LocationScheme::Broadcast:
      return 0.0;

    case LocationScheme::NameServer:
      // One update message to the name server, overlapped with the
      // transfer; it extends the transit if it is the slower leg.
      ++messages_;
      return latency_->sample(*rng_, dest.value(), name_server_.value());

    case LocationScheme::ImmediateUpdate: {
      // Update messages fan out to every node in parallel; the migration
      // completes when the slowest update has landed.
      sim::SimTime worst = 0.0;
      const std::size_t n = registry_->node_count();
      for (std::size_t i = 0; i < n; ++i) {
        if (i == dest.value()) continue;
        ++messages_;
        worst = std::max(worst, latency_->sample(*rng_, from.value(), i));
      }
      return worst;
    }
  }
  return 0.0;
}

}  // namespace omig::objsys
