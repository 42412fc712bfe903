#include "objsys/directory_core.hpp"

#include "obs/families.hpp"
#include "util/assert.hpp"

namespace omig::objsys {
namespace {

// splitmix64 finaliser: cheap, well-mixed object-id → owner hashing so
// consecutive ids don't all land on the same owner.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string to_string(DirectoryKind kind) {
  switch (kind) {
  case DirectoryKind::Central: return "central";
  case DirectoryKind::Sharded: return "sharded";
  }
  return "unknown";
}

std::string to_string(ConsistencyStrategy strategy) {
  switch (strategy) {
  case ConsistencyStrategy::EagerInvalidate: return "eager-invalidate";
  case ConsistencyStrategy::LazyForward: return "lazy-forward";
  case ConsistencyStrategy::LeaseTtl: return "lease-ttl";
  }
  return "unknown";
}

std::optional<DirectoryKind> directory_from_string(const std::string& text) {
  if (text == "central") return DirectoryKind::Central;
  if (text == "sharded") return DirectoryKind::Sharded;
  return std::nullopt;
}

std::optional<ConsistencyStrategy> strategy_from_string(
    const std::string& text) {
  if (text == "eager-invalidate") return ConsistencyStrategy::EagerInvalidate;
  if (text == "lazy-forward") return ConsistencyStrategy::LazyForward;
  if (text == "lease-ttl") return ConsistencyStrategy::LeaseTtl;
  return std::nullopt;
}

NodeId hashed_owner(ObjectId object, std::size_t nodes) {
  return NodeId{static_cast<NodeId::value_type>(mix(object.value()) % nodes)};
}

void count_in_metrics(DirectoryStats& counted, const DirectoryStats& now) {
  const DirectoryStats& before = counted;
  const auto misses = [](const DirectoryStats& s) {
    return s.lookups - s.cache_hits - s.stale_hits;
  };
  const auto add = [](obs::Counter* counter, std::uint64_t delta) {
    if (delta != 0) counter->inc(delta);
  };
  obs::DirMetrics& m = obs::dir_metrics();
  add(m.lookups_hit, now.cache_hits - before.cache_hits);
  add(m.lookups_stale, now.stale_hits - before.stale_hits);
  add(m.lookups_miss, misses(now) - misses(before));
  add(m.forward_hops, now.forward_hops - before.forward_hops);
  add(m.updates, now.updates - before.updates);
  add(m.invalidations, now.invalidations - before.invalidations);
  add(m.fallbacks, now.fallbacks - before.fallbacks);
  add(m.unresolved, now.unresolved - before.unresolved);
  counted = now;
}

DirectoryCore::DirectoryCore(DirectoryView& view, std::size_t nodes,
                             ConsistencyStrategy strategy)
    : view_{&view}, nodes_{nodes}, strategy_{strategy}, caches_(nodes + 1) {
  OMIG_REQUIRE(nodes >= 1, "a directory needs at least one node");
}

DirectoryLookup DirectoryCore::lookup(NodeId from, ObjectId obj,
                                      NodeId stale) {
  ++ops_;
  ++stats_.lookups;
  DirectoryLookup l;
  l.slot_ = from.valid() && from.value() < nodes_ ? from.value() : nodes_;
  l.object_ = obj;
  l.stale_ = stale;
  auto& cache = caches_[l.slot_];
  if (stale.valid()) {
    // A call just found the object gone from `stale`: an entry is known to
    // be stale only this way. Drop it, then chase the hints from there.
    ++stats_.stale_hits;
    cache.erase(obj);
    if (strategy_ == ConsistencyStrategy::LazyForward && live(stale)) {
      l.phase_ = DirectoryLookup::Phase::Chase;
      ask(l, stale);
      return l;
    }
  } else if (const Cached* entry = cache.find(obj)) {
    const bool fresh = strategy_ != ConsistencyStrategy::LeaseTtl ||
                       ops_ - entry->stamp <= kLeaseOps;
    if (fresh && live(entry->node)) {
      ++stats_.cache_hits;
      l.cache_hit_ = true;
      l.host_ = entry->node;
      return l;
    }
    cache.erase(obj);
  }
  ask_owner(l);
  return l;
}

void DirectoryCore::answer(DirectoryLookup& l, DirectoryAnswer a) {
  OMIG_ASSERT(!l.done());
  if (log_ != nullptr) log_->push_back({l.request_, a});
  const NodeId at = l.request_.target;
  const bool named = a.kind == DirectoryAnswer::Kind::Entry &&
                     a.node.valid() && a.node.value() < nodes_;
  if (l.phase_ == DirectoryLookup::Phase::Chase && named) {
    if (a.node == at) {
      // A self-entry ends the chain — unless `at` is the host whose call
      // just failed, which must not vouch for itself.
      if (at != l.stale_) return settle(l, at);
    } else {
      // Hints name each node's last departure destination, so departures
      // rise strictly along the chain and it cannot cycle; the cap of one
      // hop per node bounds the walk if the hints raced a migration.
      ++l.hops_;
      ++stats_.forward_hops;
      if (l.hops_ < nodes_ && live(a.node)) return ask(l, a.node);
    }
  } else if (l.phase_ == DirectoryLookup::Phase::Owner && named &&
             live(a.node)) {
    return settle(l, a.node);
  }
  // A chase that ended without a trusted host asks the owner; an owner
  // that is unreachable or names no live host leaves the authoritative map.
  ask_owner(l);
}

void DirectoryCore::ask(DirectoryLookup& l, NodeId target) {
  l.request_ = {DirectoryRequest::Kind::Lookup, target, l.object_,
                NodeId::invalid()};
}

void DirectoryCore::ask_owner(DirectoryLookup& l) {
  if (l.phase_ != DirectoryLookup::Phase::Owner) {
    const NodeId owner = view_->owner(l.object_);
    if (live(owner)) {
      l.phase_ = DirectoryLookup::Phase::Owner;
      return ask(l, owner);
    }
  }
  // The owner is down, or has answered without a live host: the
  // authoritative map answers, but only with a host that is up. A lookup
  // never settles on a dead host.
  const NodeId host = view_->host(l.object_);
  if (live(host)) {
    ++stats_.fallbacks;
    return settle(l, host);
  }
  ++stats_.unresolved;
  l.phase_ = DirectoryLookup::Phase::Done;
  l.host_ = NodeId::invalid();
}

void DirectoryCore::settle(DirectoryLookup& l, NodeId host) {
  l.phase_ = DirectoryLookup::Phase::Done;
  l.host_ = host;
  caches_[l.slot_][l.object_] = Cached{host, ops_};
}

void DirectoryCore::update(std::vector<DirectoryRequest>& out, NodeId target,
                           ObjectId obj, NodeId node) {
  // Best-effort: a node that is down loses its table anyway, and reseed()
  // refills it when it restarts.
  if (!live(target)) return;
  out.push_back({DirectoryRequest::Kind::Update, target, obj, node});
  ++stats_.updates;
  if (log_ != nullptr) log_->push_back({out.back(), std::nullopt});
}

std::vector<DirectoryRequest> DirectoryCore::publish(
    std::span<const DirectoryMove> moves) {
  std::vector<DirectoryRequest> out;
  out.reserve(3 * moves.size());
  for (const auto& [obj, src, dest] : moves) {
    ++ops_;
    const NodeId owner = view_->owner(obj);
    update(out, owner, obj, dest);
    if (src != dest && src != owner) update(out, src, obj, dest);
    if (dest != owner) update(out, dest, obj, dest);
    if (strategy_ == ConsistencyStrategy::EagerInvalidate) {
      for (auto& cache : caches_) {
        if (cache.erase(obj)) ++stats_.invalidations;
      }
    }
  }
  return out;
}

std::vector<DirectoryRequest> DirectoryCore::reseed(NodeId node) {
  ++ops_;
  std::vector<DirectoryRequest> out;
  const std::size_t count = view_->object_bound();
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectId obj{static_cast<ObjectId::value_type>(i)};
    const NodeId host = view_->host(obj);
    if (!host.valid()) continue;
    if (view_->owner(obj) == node) {
      update(out, node, obj, host);
    } else if (host == node) {
      update(out, node, obj, node);
    }
  }
  return out;
}

void DirectoryCore::crash(NodeId node) {
  ++ops_;
  caches_.at(node.value()).clear();
}

}  // namespace omig::objsys
