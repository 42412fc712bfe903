// The sharded location directory's protocol, once, for every backend.
//
// The paper's location-service variants (name-server lookup, forwarding
// addresses, immediate update — Section 4.1) all assume a single
// directory, which becomes the choke point once node counts grow ≫ 10.
// The sharded directory spreads it across the nodes: every object has a
// shard owner that serves its authoritative entry, every node keeps one
// entry table (the slices it owns, the forwarding hints objects left when
// they departed, the self-entries of the objects it hosts), and every
// origin keeps a lookup cache. A ConsistencyStrategy decides how stale
// cache entries heal — the paper's variants become cache-consistency
// strategies:
//
//   EagerInvalidate  every migration drops the object's entry from every
//                    cache (the "immediate update" scheme, fanned out).
//   LazyForward      a stale entry is chased through the forwarding hints
//                    to the current host (the "forwarding address" scheme).
//   LeaseTtl         a cache entry expires after kLeaseOps directory
//                    operations (a name server with cached replies).
//
// DirectoryCore is that protocol as plain decision code over dense ids, in
// migration::ProtocolCore's shape: no clock, no transport. It reads the
// deployment through DirectoryView (who owns a shard, who is up, where the
// authoritative map puts an object), owns the per-origin caches and its
// counters, and answers each operation with the requests to send: a
// lookup is a small state machine that asks one node at a time, and
// publish()/reseed() return the updates a migration or a restart needs.
// The simulator's LocationService answers the requests from in-memory node
// tables and charges a message for each; the live runtime sends them as
// DirLookup/DirUpdate frames (tests/integration/directory_parity_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "objsys/ids.hpp"
#include "util/dense_table.hpp"

namespace omig::objsys {

/// Which directory a run uses. Central is the seed behaviour (single map /
/// name server); Sharded runs DirectoryCore across the nodes.
enum class DirectoryKind { Central, Sharded };

/// How per-origin caches are kept consistent with the moving objects.
enum class ConsistencyStrategy { EagerInvalidate, LazyForward, LeaseTtl };

[[nodiscard]] std::string to_string(DirectoryKind kind);
[[nodiscard]] std::string to_string(ConsistencyStrategy strategy);
[[nodiscard]] std::optional<DirectoryKind> directory_from_string(
    const std::string& text);
[[nodiscard]] std::optional<ConsistencyStrategy> strategy_from_string(
    const std::string& text);

/// The simulator's shard owner: splitmix of the id, one shard per node.
/// (The live runtime hashes object names instead, so a remote coordinator
/// and its node processes agree on every name.)
[[nodiscard]] NodeId hashed_owner(ObjectId object, std::size_t nodes);

/// One message the core asks its backend to send to `target`.
struct DirectoryRequest {
  enum class Kind : std::uint8_t {
    Lookup,  ///< what does your entry table say about `object`?
    Update,  ///< set your entry for `object` to `node`
  };
  Kind kind = Kind::Lookup;
  NodeId target = NodeId::invalid();
  ObjectId object = ObjectId::invalid();
  /// Update: the location published. Lookup: invalid.
  NodeId node = NodeId::invalid();

  friend bool operator==(const DirectoryRequest&,
                         const DirectoryRequest&) = default;
};

/// A node's answer to a Lookup.
struct DirectoryAnswer {
  enum class Kind : std::uint8_t {
    Entry,        ///< the table names `node`
    NoEntry,      ///< the table has nothing for the object
    Unreachable,  ///< the request got no reply
  };
  Kind kind = Kind::Unreachable;
  NodeId node = NodeId::invalid();

  friend bool operator==(const DirectoryAnswer&,
                         const DirectoryAnswer&) = default;
};

/// One request the core emitted, with the answer it consumed (lookups
/// only; updates are best-effort and get none).
struct DirectoryStep {
  DirectoryRequest request;
  std::optional<DirectoryAnswer> answer;

  friend bool operator==(const DirectoryStep&,
                         const DirectoryStep&) = default;
};

/// An object's move from `src` to `dest`, as publish() announces it.
/// src == dest announces a creation or a reinstall.
struct DirectoryMove {
  ObjectId object;
  NodeId src;
  NodeId dest;
};

struct DirectoryStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  /// Lookups started because a call found the object gone from a host.
  std::uint64_t stale_hits = 0;
  std::uint64_t forward_hops = 0;
  std::uint64_t updates = 0;
  std::uint64_t invalidations = 0;
  /// Lookups the authoritative map answered (owner down or no entry).
  std::uint64_t fallbacks = 0;
  /// Lookups that found no live host: the object's host is down.
  std::uint64_t unresolved = 0;

  friend bool operator==(const DirectoryStats&,
                         const DirectoryStats&) = default;
};

/// Adds what the counters grew from `counted` to `now` to the omig_dir_*
/// metric families, and sets `counted` to `now` — the one mapping both
/// backends fold through.
void count_in_metrics(DirectoryStats& counted, const DirectoryStats& now);

/// The deployment as the directory protocol reads it.
class DirectoryView {
public:
  /// Node serving `obj`'s shard.
  [[nodiscard]] virtual NodeId owner(ObjectId obj) const = 0;
  [[nodiscard]] virtual bool up(NodeId node) const = 0;
  /// The authoritative map (the coordinator's, the simulator's registry):
  /// where `obj` lives; invalid for an object that no longer exists.
  [[nodiscard]] virtual NodeId host(ObjectId obj) const = 0;
  /// Ids run densely from 0 below this bound.
  [[nodiscard]] virtual std::size_t object_bound() const = 0;

protected:
  ~DirectoryView() = default;
};

/// One lookup in progress. While !done(), send request() and feed the
/// reply to DirectoryCore::answer(); once done(), host() is the answer.
class DirectoryLookup {
public:
  [[nodiscard]] bool done() const { return phase_ == Phase::Done; }
  /// The Lookup to send next (only while !done()).
  [[nodiscard]] const DirectoryRequest& request() const { return request_; }
  /// Where the object lives; invalid = unresolved (its host is down).
  [[nodiscard]] NodeId host() const { return host_; }
  [[nodiscard]] bool cache_hit() const { return cache_hit_; }
  /// Forwarding hints followed.
  [[nodiscard]] std::size_t hops() const { return hops_; }

private:
  friend class DirectoryCore;
  enum class Phase : std::uint8_t { Chase, Owner, Done };

  Phase phase_ = Phase::Done;
  std::size_t slot_ = 0;
  ObjectId object_;
  NodeId stale_;
  DirectoryRequest request_;
  NodeId host_;
  std::size_t hops_ = 0;
  bool cache_hit_ = false;
};

/// Not thread-safe: the simulator is single-threaded, and LiveSystem calls
/// it only under its directory mutex.
class DirectoryCore {
public:
  /// Lifetime of a cache entry under LeaseTtl, in directory operations
  /// (lookups, published moves, reseeds and crashes).
  static constexpr std::uint64_t kLeaseOps = 16;

  DirectoryCore(DirectoryView& view, std::size_t nodes,
                ConsistencyStrategy strategy);

  /// Starts resolving `obj` for a caller at `from` (invalid = a caller
  /// outside any node). `stale` names a host a call just found without
  /// the object: its cache entry is dropped, and LazyForward chases the
  /// hints from there. A trusted cache entry whose host is up answers at
  /// once; otherwise the shard owner is asked, and when it is down or
  /// names no live host the authoritative map answers — only with a host
  /// that is up. A chase follows at most one hint per node.
  DirectoryLookup lookup(NodeId from, ObjectId obj,
                         NodeId stale = NodeId::invalid());
  /// Feeds the reply to `lookup`'s pending request.
  void answer(DirectoryLookup& lookup, DirectoryAnswer answer);

  /// Announces migrations: per move, the owner's slice entry, a forwarding
  /// hint at the old host and a self-entry at the new one (to nodes that
  /// are up); EagerInvalidate also drops the object from every cache.
  std::vector<DirectoryRequest> publish(std::span<const DirectoryMove> moves);
  /// Refills a restarted node's table from the authoritative map: its
  /// slice, and self-entries for the objects it hosts.
  std::vector<DirectoryRequest> reseed(NodeId node);
  /// A crashed origin's cache dies with it.
  void crash(NodeId node);

  [[nodiscard]] const DirectoryStats& stats() const { return stats_; }
  /// Appends every request and answer to `log` (null stops). Not owned.
  void set_log(std::vector<DirectoryStep>* log) { log_ = log; }

private:
  struct Cached {
    NodeId node;
    std::uint64_t stamp = 0;  ///< ops_ when the entry was learned
  };

  void ask(DirectoryLookup& lookup, NodeId target);
  void ask_owner(DirectoryLookup& lookup);
  void settle(DirectoryLookup& lookup, NodeId host);
  void update(std::vector<DirectoryRequest>& out, NodeId target,
              ObjectId obj, NodeId node);
  [[nodiscard]] bool live(NodeId node) const {
    return node.valid() && node.value() < nodes_ && view_->up(node);
  }

  DirectoryView* view_;
  std::size_t nodes_;
  ConsistencyStrategy strategy_;
  /// One cache per origin; the last one serves callers outside any node.
  std::vector<util::DenseTable<ObjectId, Cached>> caches_;
  std::uint64_t ops_ = 0;
  DirectoryStats stats_;
  std::vector<DirectoryStep>* log_ = nullptr;
};

}  // namespace omig::objsys
