// The paper's linguistic primitives, as one user-facing facade.
//
// Section 2.2/2.3 lists the conventional support for mobile objects:
// fix()/unfix()/refix(), migrate(O, target), location_of()/is_resident(),
// attach()/detach(), and the move()/visit()/end() block primitives. This
// facade binds them to a MigrationManager + MigrationPolicy pair so that
// application code (the examples, and the workload generators) reads like
// the paper's GOM snippets.
#pragma once

#include "migration/manager.hpp"
#include "migration/policy.hpp"
#include "objsys/invocation.hpp"

namespace omig::migration {

class Primitives {
public:
  Primitives(MigrationManager& mgr, MigrationPolicy& policy,
             objsys::Invoker& invoker)
      : mgr_{&mgr}, policy_{&policy}, invoker_{&invoker} {}

  // --- fixing objects ------------------------------------------------------
  void fix(ObjectId obj) {
    mgr_->registry().fix(obj);
    mgr_->trace_event(trace::EventKind::Fix, obj);
  }
  void unfix(ObjectId obj) {
    mgr_->registry().unfix(obj);
    mgr_->trace_event(trace::EventKind::Unfix, obj);
  }
  void refix(ObjectId obj) { mgr_->registry().refix(obj); }
  [[nodiscard]] bool is_fixed(ObjectId obj) const {
    return mgr_->registry().is_fixed(obj);
  }

  // --- interrogating locations ----------------------------------------------
  [[nodiscard]] objsys::NodeId location_of(ObjectId obj) const {
    return mgr_->registry().location(obj);
  }
  [[nodiscard]] bool is_resident(ObjectId obj, objsys::NodeId node) const {
    return mgr_->registry().is_resident(obj, node);
  }

  // --- explicit migration ----------------------------------------------------
  /// migrate(O, node): moves O — and its transitive attachment cluster, which
  /// is exactly the underestimation hazard of Section 2.4 — to `node`.
  sim::Task migrate(ObjectId obj, objsys::NodeId node,
                    AllianceId ctx = AllianceId::invalid()) {
    return mgr_->transfer(mgr_->protocol().cluster(obj, ctx), node, nullptr);
  }

  /// migrate(O, O'): collocates O with O' (the "target names another object"
  /// form of the primitive).
  sim::Task migrate_to_object(ObjectId obj, ObjectId with,
                              AllianceId ctx = AllianceId::invalid()) {
    return migrate(obj, location_of(with), ctx);
  }

  // --- keeping objects together -----------------------------------------------
  bool attach(ObjectId a, ObjectId b,
              AllianceId ctx = AllianceId::invalid()) {
    return mgr_->attachments().attach(a, b, ctx);
  }
  bool detach(ObjectId a, ObjectId b) {
    return mgr_->attachments().detach(a, b);
  }

  // --- move / visit / end blocks ------------------------------------------------
  /// Opens a move() block context for the client at `who` on object `what`.
  [[nodiscard]] MoveBlock move(objsys::NodeId who, ObjectId what,
                               AllianceId ctx = AllianceId::invalid()) {
    return mgr_->new_block(who, what, ctx, /*visit=*/false);
  }

  /// Opens a visit() block: like move(), but the objects migrate back when
  /// the block ends.
  [[nodiscard]] MoveBlock visit(objsys::NodeId who, ObjectId what,
                                AllianceId ctx = AllianceId::invalid()) {
    return mgr_->new_block(who, what, ctx, /*visit=*/true);
  }

  /// Executes the block-opening migration request under the active policy.
  sim::Task begin(MoveBlock& blk) { return policy_->begin_block(blk); }

  /// Issues the end-request that closes the block.
  void end(MoveBlock& blk) { policy_->end_block(blk); }

  // --- invocation --------------------------------------------------------------
  sim::Task call(objsys::NodeId from, ObjectId obj) {
    return invoker_->invoke(from, obj);
  }
  sim::Task call_from_object(ObjectId from, ObjectId obj) {
    return invoker_->invoke_from_object(from, obj);
  }

  // --- call-by-move / call-by-visit (paper Figure 1) -----------------------------
  /// Invokes `callee` with `param` passed by move: the parameter object is
  /// migrated (policy-interpreted!) to the callee's node for the duration
  /// of the call — "declare assign: visit job, move schedule". The implicit
  /// move-block spans exactly the invocation.
  sim::Task call_by_move(objsys::NodeId caller, ObjectId callee,
                         ObjectId param) {
    return call_with_param(caller, callee, param, /*visit=*/false);
  }

  /// Like call_by_move, but the parameter migrates back to where it came
  /// from once the call completes ("to go back after the operation
  /// completed in the visit case").
  sim::Task call_by_visit(objsys::NodeId caller, ObjectId callee,
                          ObjectId param) {
    return call_with_param(caller, callee, param, /*visit=*/true);
  }

  [[nodiscard]] MigrationManager& manager() { return *mgr_; }
  [[nodiscard]] MigrationPolicy& policy() { return *policy_; }

private:
  sim::Task call_with_param(objsys::NodeId caller, ObjectId callee,
                            ObjectId param, bool visit);

  MigrationManager* mgr_;
  MigrationPolicy* policy_;
  objsys::Invoker* invoker_;
};

}  // namespace omig::migration
