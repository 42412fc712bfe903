// The placement protocol, once, for every backend.
//
// The paper's mechanism — interpret a move()/end() at the object, keep an
// attachment cluster together, lock it in place against conflicting moves
// (Section 3.2), count open move-requests per node (Section 4.3), and the
// beyond-paper adaptive and load-sharing readings — lives here as plain
// decision code over dense object ids. The core has no clock and no
// transport: it reads the backend's object table through ObjectView,
// keeps the protocol's own state (locks with lease deadlines as plain
// numbers, open-move counts, the adaptive policies' reversal memory and
// tallies), and answers each request with the relocations to carry out.
//
// The simulator (MigrationManager + MigrationPolicy) charges sim time
// around those decisions; the live runtime (runtime::LiveSystem) carries
// them out over its transport. Both therefore refuse, lock and migrate
// identically (tests/integration/protocol_parity_test.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "migration/attachment.hpp"
#include "migration/block.hpp"
#include "objsys/locality.hpp"
#include "trace/event.hpp"
#include "util/dense_table.hpp"

namespace omig::migration {

enum class PolicyKind {
  Sedentary,             ///< baseline: no migration at all
  Conventional,          ///< move() always migrates (call-by-move semantics)
  Placement,             ///< transient placement (Section 3.2)
  CompareNodes,          ///< dynamic: most open move-requests wins (4.3)
  CompareReinstantiate,  ///< dynamic: additionally migrates on end-requests
  LoadShare,             ///< beyond-paper: pursues Section 2.2's load-sharing
                         ///< goal — moves objects to lightly used nodes,
                         ///< regardless of who is calling them
  Adaptive,              ///< beyond-paper: migrates toward the EMA-dominant
                         ///< caller node, gated by a hysteresis band
                         ///< (docs/policies.md)
  AdaptiveLoad,          ///< Adaptive plus a per-node load veto: an
                         ///< overloaded dominant node does not attract moves
};

[[nodiscard]] std::string_view to_string(PolicyKind kind);

/// Which attachment closure a migration drags along.
enum class AttachTransitivity {
  Unrestricted,  ///< conventional: the whole connected component
  ATransitive,   ///< restricted to the edges of the block's alliance
};

struct ProtocolOptions {
  AttachTransitivity transitivity = AttachTransitivity::Unrestricted;
  /// Minimum open-move count for a node to hold a "clear majority"
  /// (Section 4.3's reinstantiation trigger). The paper does not quantify
  /// "clear"; 2 avoids ping-ponging the object after every end-request
  /// towards whichever single block happens to be open.
  int clear_majority_minimum = 2;
  /// Placement-lock lease, in the backend's time unit (ObjectView::now()).
  /// A lock older than this is presumed orphaned (its block died with a
  /// crashed node or stalled) and expires: the object is released in place
  /// and a competing move may take over. Zero = locks never expire (the
  /// paper's semantics).
  double lock_lease = 0.0;
  /// Adaptive kinds: the EMA-dominant node must lead the current host's
  /// share by at least this margin before the object migrates (design
  /// decision 9, docs/ARCHITECTURE.md — prevents ping-ponging between two
  /// evenly-matched callers).
  double hysteresis_band = 0.2;
  /// Minimum effective EMA sample size before an adaptive migration is
  /// considered at all (a single access must not relocate an object).
  double adaptive_min_weight = 4.0;
  /// AdaptiveLoad: a migration toward the dominant node is vetoed when that
  /// node would host more than `load_factor` × the mean per-node object
  /// count (mean floored at 1).
  double load_factor = 2.0;
};

/// Tallies of the adaptive policies' decisions (the omig_policy_*
/// families).
struct PolicyCounters {
  std::uint64_t migrations_triggered = 0;   ///< adaptive moves executed
  std::uint64_t suppressed_hysteresis = 0;  ///< margin/weight under the band
  std::uint64_t suppressed_load = 0;        ///< load veto fired
  std::uint64_t pingpong_reversals = 0;     ///< move undoing the previous one
};

/// The backend's object table as the protocol reads it, plus the sinks it
/// writes: the backend's notion of "now" (lease deadlines) and its
/// protocol trace.
class ObjectView {
public:
  [[nodiscard]] virtual objsys::NodeId host(ObjectId obj) const = 0;
  /// Fixed, or of a type that can never migrate: moves of it are refused.
  [[nodiscard]] virtual bool pinned(ObjectId obj) const = 0;
  /// Immutable objects are copied, never moved, so they never conflict.
  [[nodiscard]] virtual bool immutable(ObjectId obj) const = 0;
  [[nodiscard]] virtual bool in_transit(ObjectId obj) const = 0;
  /// Objects whose primary currently resides at `node`.
  [[nodiscard]] virtual std::size_t hosted(objsys::NodeId node) const = 0;
  [[nodiscard]] virtual std::size_t object_count() const = 0;
  /// Current time in the unit of ProtocolOptions::lock_lease.
  [[nodiscard]] virtual double now() const = 0;
  /// Protocol event sink (MoveRefused, Lock, Unlock).
  virtual void record(trace::EventKind kind, ObjectId object,
                      objsys::NodeId node, BlockId block) = 0;

protected:
  ~ObjectView() = default;
};

/// One decided migration: move `objects` to `dest`. The backend waits out
/// members in transit and skips those that cannot or need not move.
struct Relocation {
  objsys::NodeId dest = objsys::NodeId::invalid();
  std::vector<ObjectId> objects;
};

/// Not thread-safe, not even its const queries (closures reuse scratch
/// space): the simulator is single-threaded, and LiveSystem calls it only
/// under its directory mutex.
class ProtocolCore {
public:
  ProtocolCore(ObjectView& view, AttachmentGraph& attachments,
               std::size_t node_count, ProtocolOptions options);

  [[nodiscard]] AttachmentGraph& attachments() { return *attachments_; }

  /// A fresh move-block context with the next block id.
  MoveBlock new_block(objsys::NodeId origin, ObjectId target,
                      AllianceId alliance = AllianceId::invalid(),
                      bool visit = false);

  /// The set of objects that migrates together with `obj` under the
  /// configured transitivity, given the block's alliance context. Sorted.
  [[nodiscard]] std::vector<ObjectId> cluster(ObjectId obj,
                                              AllianceId alliance) const;

  /// Interprets the move()/visit() that opens `blk` under `kind`, at the
  /// object: sets blk.granted (false = refused outright, the caller works
  /// remotely), takes placement locks and open-move counts, and returns
  /// where the cluster goes (an invalid dest = nothing moves).
  Relocation decide_move(PolicyKind kind, MoveBlock& blk);

  /// Interprets the end-request that closes `blk`: releases its locks and
  /// counts, and returns the background relocations it triggers — the
  /// visit() return trips, grouped by origin, then a reinstantiation.
  std::vector<Relocation> decide_end(PolicyKind kind, MoveBlock& blk);

  // --- placement locks ----------------------------------------------------
  /// Expired leases read as unlocked everywhere; the actual release (and
  /// its Unlock event) happens when the next try_lock touches them.
  [[nodiscard]] bool is_locked(ObjectId obj) const;
  [[nodiscard]] BlockId lock_owner(ObjectId obj) const;
  /// Acquires the lock for `blk` if free (or already held by `blk`),
  /// expiring a dead holder's lease first.
  bool try_lock(ObjectId obj, BlockId blk);
  /// Releases the lock if held by `blk`.
  void unlock(ObjectId obj, BlockId blk);
  [[nodiscard]] std::size_t locked_count() const { return locks_.size(); }
  /// Locks released because their lease ran out.
  [[nodiscard]] std::uint64_t lease_expiries() const {
    return lease_expiries_;
  }

  // --- open-move bookkeeping (dynamic policies, Section 4.3) ---------------
  void note_move(ObjectId obj, objsys::NodeId node);
  void note_end(ObjectId obj, objsys::NodeId node);
  [[nodiscard]] int open_moves(ObjectId obj, objsys::NodeId node) const;
  /// The unique node with strictly the most open moves on `obj` (count >=
  /// options().clear_majority_minimum), or invalid() on a tie / no such
  /// node.
  [[nodiscard]] objsys::NodeId strict_majority_node(ObjectId obj) const;

  // --- adaptive policies ----------------------------------------------------
  /// Access-locality tracker the adaptive kinds consult; fed by the
  /// backend's invocation path. Not owned; required by Adaptive and
  /// AdaptiveLoad decisions.
  void set_locality(objsys::LocalityTracker* tracker) { locality_ = tracker; }
  [[nodiscard]] const PolicyCounters& counters() const { return counters_; }

private:
  struct Lock {
    BlockId owner;
    double expiry;  ///< meaningful only when options_.lock_lease > 0
  };

  Relocation place(MoveBlock& blk);
  Relocation compare(MoveBlock& blk);
  Relocation adapt(PolicyKind kind, MoveBlock& blk);
  /// Refuses `blk` outright.
  Relocation refuse(MoveBlock& blk);
  /// Leaves the target where it is; a requester elsewhere keeps calling
  /// it remotely, which the trace records as a refused move.
  Relocation stay(MoveBlock& blk, objsys::NodeId host);
  [[nodiscard]] objsys::NodeId least_loaded() const;
  [[nodiscard]] bool overloaded(objsys::NodeId dest,
                                std::size_t arriving) const;
  [[nodiscard]] bool lease_expired(const Lock& lock) const;

  ObjectView* view_;
  AttachmentGraph* attachments_;
  std::size_t node_count_;
  ProtocolOptions options_;

  util::DenseTable<ObjectId, Lock> locks_;
  std::uint64_t lease_expiries_ = 0;
  /// Per object: open-move counts indexed by node id value.
  util::DenseTable<ObjectId, std::vector<int>> open_moves_;
  /// Last adaptive migration per object (from, to), for reversal counting.
  util::DenseTable<ObjectId, std::pair<objsys::NodeId, objsys::NodeId>>
      last_move_;
  objsys::LocalityTracker* locality_ = nullptr;
  PolicyCounters counters_;
  BlockId::value_type next_block_ = 0;
};

}  // namespace omig::migration
