#include "migration/protocol.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace omig::migration {

using objsys::NodeId;

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Sedentary:
      return "sedentary";
    case PolicyKind::Conventional:
      return "conventional";
    case PolicyKind::Placement:
      return "placement";
    case PolicyKind::CompareNodes:
      return "compare-nodes";
    case PolicyKind::CompareReinstantiate:
      return "compare-reinstantiate";
    case PolicyKind::LoadShare:
      return "load-share";
    case PolicyKind::Adaptive:
      return "adaptive";
    case PolicyKind::AdaptiveLoad:
      return "adaptive-load";
  }
  return "unknown";
}

ProtocolCore::ProtocolCore(ObjectView& view, AttachmentGraph& attachments,
                           std::size_t node_count, ProtocolOptions options)
    : view_{&view}, attachments_{&attachments}, node_count_{node_count},
      options_{options} {
  OMIG_REQUIRE(node_count >= 1, "protocol needs at least one node");
}

MoveBlock ProtocolCore::new_block(NodeId origin, ObjectId target,
                                  AllianceId alliance, bool visit) {
  MoveBlock blk;
  blk.id = BlockId{next_block_++};
  blk.origin = origin;
  blk.target = target;
  blk.alliance = alliance;
  blk.visit = visit;
  return blk;
}

std::vector<ObjectId> ProtocolCore::cluster(ObjectId obj,
                                            AllianceId alliance) const {
  if (options_.transitivity == AttachTransitivity::ATransitive &&
      alliance.valid()) {
    return attachments_->closure_in(obj, alliance);
  }
  return attachments_->closure(obj);
}

Relocation ProtocolCore::decide_move(PolicyKind kind, MoveBlock& blk) {
  blk.granted = true;
  switch (kind) {
    case PolicyKind::Sedentary:
      // "Without migration": nothing moves, nothing is decided.
      return {};
    case PolicyKind::Conventional:
      // Call-by-move (Section 2.3): migrate unconditionally — exactly the
      // behaviour whose worst case costs 2M + (2N+2)·C under concurrency.
      return {blk.origin, cluster(blk.target, blk.alliance)};
    case PolicyKind::LoadShare:
      // Section 2.2's load-sharing goal read into move(): the cluster goes
      // to the least-loaded node, which is generally not the caller's.
      return {least_loaded(), cluster(blk.target, blk.alliance)};
    case PolicyKind::Placement:
      return place(blk);
    case PolicyKind::CompareNodes:
    case PolicyKind::CompareReinstantiate:
      return compare(blk);
    case PolicyKind::Adaptive:
    case PolicyKind::AdaptiveLoad:
      return adapt(kind, blk);
  }
  OMIG_REQUIRE(false, "unknown policy kind");
  return {};
}

Relocation ProtocolCore::place(MoveBlock& blk) {
  // Static objects never conflict: "moving a static object simply creates
  // a copy" (Section 1) — no lock is taken and no refusal can happen.
  if (view_->immutable(blk.target)) {
    return {blk.origin, cluster(blk.target, blk.alliance)};
  }
  // Interpreted at the object (Section 3.2): if another unfinished move
  // holds the object — or it cannot move — the move has no effect; the
  // caller's invocations are forwarded remotely and its end-request is
  // ignored.
  const bool conflicting =
      is_locked(blk.target) && lock_owner(blk.target) != blk.id;
  if (conflicting || view_->pinned(blk.target)) return refuse(blk);
  // Lock every cluster member we can get (members locked by a conflicting
  // block stay where they are — partial move) and keep the locks until the
  // end-request. Members already local stay locked but need no transfer.
  for (ObjectId o : cluster(blk.target, blk.alliance)) {
    if (try_lock(o, blk.id)) blk.locked.push_back(o);
  }
  blk.lock_held = true;
  return {blk.origin, blk.locked};
}

Relocation ProtocolCore::compare(MoveBlock& blk) {
  if (view_->immutable(blk.target)) {
    // Copies commute; no bookkeeping needed for static objects.
    return {blk.origin, cluster(blk.target, blk.alliance)};
  }
  // The run-time system at the object records the move-request and the
  // node it came from (Section 4.3). The bookkeeping itself is free, as in
  // the paper: "the necessary overhead to collect the dynamic information
  // has been completely neglected".
  note_move(blk.target, blk.origin);
  blk.counted = true;
  if (view_->pinned(blk.target)) return refuse(blk);
  const NodeId host = view_->host(blk.target);
  if (host == blk.origin) return {};  // already collocated
  // Keep the object at the node with the most open move-requests: migrate
  // only if the requester's node now holds strictly more than the host.
  // Otherwise "a conflicting move-request has initially no effect on the
  // location".
  if (open_moves(blk.target, blk.origin) > open_moves(blk.target, host)) {
    return {blk.origin, cluster(blk.target, blk.alliance)};
  }
  return stay(blk, host);
}

Relocation ProtocolCore::adapt(PolicyKind kind, MoveBlock& blk) {
  if (view_->immutable(blk.target)) {
    // Copies commute; no placement decision needed for static objects.
    return {blk.origin, cluster(blk.target, blk.alliance)};
  }
  if (view_->pinned(blk.target)) return refuse(blk);
  OMIG_REQUIRE(locality_ != nullptr,
               "adaptive policies need a LocalityTracker attached to the "
               "protocol core");
  const NodeId host = view_->host(blk.target);
  const objsys::LocalityEstimate est = locality_->estimate(blk.target, host);

  // No recorded accesses, or the dominant caller already hosts the object:
  // nothing to decide — exactly the placement fallback.
  if (!est.dominant.valid() || est.dominant == host) return stay(blk, host);

  // Hysteresis: migrate only once the dominant node's EMA share leads the
  // host's by the configured band, and the EMA has seen enough accesses
  // that one early caller cannot drag the object around.
  if (est.weight < options_.adaptive_min_weight ||
      est.share - est.host_share < options_.hysteresis_band) {
    ++counters_.suppressed_hysteresis;
    return stay(blk, host);
  }

  std::vector<ObjectId> members = cluster(blk.target, blk.alliance);
  if (kind == PolicyKind::AdaptiveLoad &&
      overloaded(est.dominant, members.size())) {
    ++counters_.suppressed_load;
    return stay(blk, host);
  }

  auto& last = last_move_[blk.target];
  if (last.first.valid() && last.first == est.dominant &&
      last.second == host) {
    ++counters_.pingpong_reversals;
  }
  last = {host, est.dominant};
  ++counters_.migrations_triggered;
  return {est.dominant, std::move(members)};
}

Relocation ProtocolCore::refuse(MoveBlock& blk) {
  blk.granted = false;
  view_->record(trace::EventKind::MoveRefused, blk.target, blk.origin,
                blk.id);
  return {};
}

Relocation ProtocolCore::stay(MoveBlock& blk, NodeId host) {
  if (host != blk.origin) {
    view_->record(trace::EventKind::MoveRefused, blk.target, blk.origin,
                  blk.id);
  }
  return {};
}

std::vector<Relocation> ProtocolCore::decide_end(PolicyKind kind,
                                                 MoveBlock& blk) {
  // The end-request is local at the caller: it releases what the block
  // holds, and sends visit()ed objects home.
  bool returning = blk.visit;
  switch (kind) {
    case PolicyKind::Sedentary:
      return {};
    case PolicyKind::Placement:
      if (!blk.lock_held) return {};  // a refused move's end is ignored
      for (ObjectId o : blk.locked) unlock(o, blk.id);
      blk.lock_held = false;
      break;
    case PolicyKind::CompareNodes:
    case PolicyKind::CompareReinstantiate:
      if (blk.counted) {
        note_end(blk.target, blk.origin);
      } else {
        returning = false;  // immutable target: copied, nothing to return
      }
      break;
    default:
      break;
  }

  std::vector<Relocation> out;
  if (returning) {
    // Each moved object goes home to where it came from; one relocation
    // per origin node, in first-move order.
    OMIG_ASSERT(blk.moved.size() == blk.origins_of_moved.size());
    for (std::size_t i = 0; i < blk.moved.size(); ++i) {
      const NodeId from = blk.origins_of_moved[i];
      auto group = std::find_if(out.begin(), out.end(), [&](const auto& r) {
        return r.dest == from;
      });
      if (group == out.end()) {
        group = out.insert(out.end(), Relocation{from, {}});
      }
      group->objects.push_back(blk.moved[i]);
    }
  }
  if (kind == PolicyKind::CompareReinstantiate &&
      !view_->immutable(blk.target)) {
    // "Objects may not only be migrated on move-requests but also on
    // end-requests, if an end-request leads to a situation that some other
    // node holds a clear majority on open move-requests."
    const NodeId best = strict_majority_node(blk.target);
    if (best.valid() && best != view_->host(blk.target) &&
        !view_->in_transit(blk.target)) {
      out.push_back({best, cluster(blk.target, blk.alliance)});
    }
  }
  return out;
}

bool ProtocolCore::lease_expired(const Lock& lock) const {
  return options_.lock_lease > 0.0 && view_->now() >= lock.expiry;
}

bool ProtocolCore::is_locked(ObjectId obj) const {
  const Lock* lock = locks_.find(obj);
  return lock != nullptr && !lease_expired(*lock);
}

BlockId ProtocolCore::lock_owner(ObjectId obj) const {
  const Lock* lock = locks_.find(obj);
  if (lock == nullptr || lease_expired(*lock)) return BlockId::invalid();
  return lock->owner;
}

bool ProtocolCore::try_lock(ObjectId obj, BlockId blk) {
  Lock* lock = locks_.find(obj);
  if (lock != nullptr && lease_expired(*lock)) {
    // The holding block outlived its lease — presumed dead with a crashed
    // node. Release the object in place so this move can take over.
    view_->record(trace::EventKind::Unlock, obj, NodeId::invalid(),
                  lock->owner);
    ++lease_expiries_;
    locks_.erase(obj);
    lock = nullptr;
  }
  if (lock == nullptr) {
    locks_.try_emplace(obj, Lock{blk, view_->now() + options_.lock_lease});
    view_->record(trace::EventKind::Lock, obj, NodeId::invalid(), blk);
    return true;
  }
  return lock->owner == blk;
}

void ProtocolCore::unlock(ObjectId obj, BlockId blk) {
  const Lock* lock = locks_.find(obj);
  if (lock != nullptr && lock->owner == blk) {
    locks_.erase(obj);
    view_->record(trace::EventKind::Unlock, obj, NodeId::invalid(), blk);
  }
}

void ProtocolCore::note_move(ObjectId obj, NodeId node) {
  std::vector<int>& counts = open_moves_[obj];
  if (counts.size() <= node.value()) counts.resize(node.value() + 1, 0);
  ++counts[node.value()];
}

void ProtocolCore::note_end(ObjectId obj, NodeId node) {
  std::vector<int>* counts = open_moves_.find(obj);
  OMIG_REQUIRE(counts != nullptr, "end without matching move");
  OMIG_REQUIRE(node.value() < counts->size() && (*counts)[node.value()] > 0,
               "end without matching move at this node");
  --(*counts)[node.value()];
}

int ProtocolCore::open_moves(ObjectId obj, NodeId node) const {
  const std::vector<int>* counts = open_moves_.find(obj);
  if (counts == nullptr || node.value() >= counts->size()) return 0;
  return (*counts)[node.value()];
}

NodeId ProtocolCore::strict_majority_node(ObjectId obj) const {
  const std::vector<int>* counts = open_moves_.find(obj);
  if (counts == nullptr) return NodeId::invalid();
  NodeId best = NodeId::invalid();
  int best_count = 0;
  bool tie = false;
  for (std::size_t n = 0; n < counts->size(); ++n) {
    const int count = (*counts)[n];
    if (count > best_count) {
      best = NodeId{static_cast<NodeId::value_type>(n)};
      best_count = count;
      tie = false;
    } else if (count == best_count && count > 0) {
      tie = true;
    }
  }
  if (tie || best_count < options_.clear_majority_minimum) {
    return NodeId::invalid();
  }
  return best;
}

NodeId ProtocolCore::least_loaded() const {
  // Lowest index wins ties, so the choice is deterministic.
  std::size_t best = 0;
  for (std::size_t n = 1; n < node_count_; ++n) {
    if (view_->hosted(NodeId{static_cast<NodeId::value_type>(n)}) <
        view_->hosted(NodeId{static_cast<NodeId::value_type>(best)})) {
      best = n;
    }
  }
  return NodeId{static_cast<NodeId::value_type>(best)};
}

bool ProtocolCore::overloaded(NodeId dest, std::size_t arriving) const {
  // Mean hosted objects per node, floored at 1 so sparse populations
  // (fewer objects than nodes) can still co-locate an object with its
  // dominant caller instead of vetoing every move.
  const double mean =
      std::max(1.0, static_cast<double>(view_->object_count()) /
                        static_cast<double>(node_count_));
  return static_cast<double>(view_->hosted(dest) + arriving) >
         options_.load_factor * mean;
}

}  // namespace omig::migration
