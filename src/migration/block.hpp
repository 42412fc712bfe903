// Move-block context.
//
// A move-block (paper Figure 2) is the dynamic extent of a move()/visit():
// it starts with a migration request, covers N invocations of the target,
// and finishes with an end-request that tells the run-time system the
// collocation is no longer needed. The block also carries the metric
// bookkeeping: the evaluation metric is "mean duration of an invocation
// plus the migration cost evenly distributed to the invocations belonging
// to that migration" (Section 4.2.1).
#pragma once

#include <vector>

#include "objsys/ids.hpp"
#include "sim/time.hpp"

namespace omig::migration {

using objsys::AllianceId;
using objsys::BlockId;
using objsys::NodeId;
using objsys::ObjectId;

/// One dynamic move()/visit() block instance.
struct MoveBlock {
  BlockId id;
  NodeId origin;      ///< the requesting client's node (migration target)
  ObjectId target;    ///< the object named in the move()/visit()
  AllianceId alliance = AllianceId::invalid();  ///< cooperation context
  bool visit = false;  ///< visit(): migrate back at end-request

  /// Objects this block actually migrated (and, under placement, locked).
  std::vector<ObjectId> moved;
  /// Where each moved object came from (parallel to `moved`; for visit()).
  std::vector<NodeId> origins_of_moved;
  /// Objects this block holds placement locks on (superset of `moved`:
  /// cluster members that were already local are locked but not transferred).
  std::vector<ObjectId> locked;
  /// False until the protocol admits the move; stays false when it refuses
  /// outright (a conflicting block holds the target's lock, or the target
  /// cannot move) and the caller works remotely.
  bool granted = false;
  /// True if the block holds placement locks (successful place-policy move).
  bool lock_held = false;
  /// True if the dynamic policies registered this block in the per-node
  /// open-move counts (false for immutable targets, which are copied).
  bool counted = false;

  // --- metric bookkeeping -------------------------------------------------
  int calls = 0;                 ///< invocations completed inside the block
  sim::SimTime call_time = 0.0;  ///< summed durations of those invocations
  sim::SimTime migration_cost = 0.0;  ///< migration + control-message time

  [[nodiscard]] sim::SimTime total_cost() const {
    return call_time + migration_cost;
  }
};

}  // namespace omig::migration
