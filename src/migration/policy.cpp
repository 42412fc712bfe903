#include "migration/policy.hpp"

namespace omig::migration {

sim::Task MigrationPolicy::begin_block(MoveBlock& blk) {
  mgr_->trace_event(trace::EventKind::BlockBegin, blk.target, blk.origin,
                    blk.id);
  // The move request travels to the current location of the target
  // (Figure 3), where it is interpreted. A refusal costs only this message:
  // the paper's M + (2N+1)·C accounting has the "locked" indication ride
  // back with the first forwarded call. "Without migration" sends nothing
  // and is charged nothing; its block still brackets the N invocations so
  // the metrics are comparable across policies.
  if (kind_ != PolicyKind::Sedentary) {
    co_await mgr_->control_message(blk.origin, blk.target, &blk);
  }
  Relocation decided = mgr_->protocol().decide_move(kind_, blk);
  if (decided.dest.valid()) {
    co_await mgr_->transfer(std::move(decided.objects), decided.dest, &blk);
  }
}

void MigrationPolicy::end_block(MoveBlock& blk) {
  mgr_->trace_event(trace::EventKind::BlockEnd, blk.target, blk.origin,
                    blk.id);
  // Nobody waits on these: the block is over when the end-request returns,
  // so their cost goes to the background sink.
  for (Relocation& r : mgr_->protocol().decide_end(kind_, blk)) {
    mgr_->engine().spawn(
        mgr_->transfer(std::move(r.objects), r.dest, nullptr));
  }
}

std::unique_ptr<MigrationPolicy> make_policy(PolicyKind kind,
                                             MigrationManager& mgr) {
  return std::make_unique<MigrationPolicy>(kind, mgr);
}

}  // namespace omig::migration
