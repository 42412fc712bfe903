// Migration policies in the simulator.
//
// A policy interprets the move()/end() primitives of a move-block. The
// paper's continuum (Section 3.3): conventional migration is the aggressive
// extreme, transient placement the conservative one, and the dynamic
// policies (comparing the nodes, comparing + reinstantiation) sit between
// them, trading bookkeeping for (it turns out marginal) gains. What each
// PolicyKind decides is the protocol core's (migration/protocol.hpp); this
// class charges simulated time around those decisions: the request message
// to the object, then the transfer it ordered.
#pragma once

#include <memory>

#include "migration/block.hpp"
#include "migration/manager.hpp"
#include "migration/protocol.hpp"
#include "sim/task.hpp"

namespace omig::migration {

/// Interprets move-block begin/end for one experiment under one kind.
class MigrationPolicy {
public:
  MigrationPolicy(PolicyKind kind, MigrationManager& mgr)
      : kind_{kind}, mgr_{&mgr} {}
  MigrationPolicy(const MigrationPolicy&) = delete;
  MigrationPolicy& operator=(const MigrationPolicy&) = delete;

  [[nodiscard]] PolicyKind kind() const { return kind_; }

  /// Processes the move()/visit() that opens `blk`: sends the request,
  /// decides at the object, and (maybe) migrates. Completes when the client
  /// may start invoking.
  sim::Task begin_block(MoveBlock& blk);

  /// Processes the end-request that closes `blk`. Local at the caller; the
  /// migrations it triggers (visit() return trips, reinstantiation) run in
  /// the background.
  void end_block(MoveBlock& blk);

private:
  PolicyKind kind_;
  MigrationManager* mgr_;
};

/// Factory covering every PolicyKind.
std::unique_ptr<MigrationPolicy> make_policy(PolicyKind kind,
                                             MigrationManager& mgr);

}  // namespace omig::migration
