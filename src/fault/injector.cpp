#include "fault/injector.hpp"

#include "util/assert.hpp"

namespace omig::fault {

namespace {
/// Dedicated RNG stream index so injector draws never collide with the
/// workload/network streams derived from the same master seed.
constexpr std::uint64_t kInjectorStream = 0xFA17;
/// Separate stream for disk-fault draws: adding disk rules to a plan must
/// never perturb the link-fault sequence of the same seed (and vice
/// versa), the same discipline per-cell sweep seeds follow.
constexpr std::uint64_t kDiskStream = 0xD15C;
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_{std::move(plan)},
      rng_{plan_.seed, kInjectorStream},
      disk_rng_{plan_.seed, kDiskStream} {}

Decision FaultInjector::on_message(std::size_t from, std::size_t to) {
  Decision d;
  const LinkFault f = plan_.effective(from, to);
  if (f.drop <= 0.0 && f.duplicate <= 0.0 && f.delay <= 0.0) return d;
  {
    std::lock_guard lock{mutex_};
    if (f.drop > 0.0) d.drop = rng_.uniform() < f.drop;
    if (f.duplicate > 0.0) d.duplicate = rng_.uniform() < f.duplicate;
  }
  d.delay = f.delay;
  if (d.drop) {
    counters_.dropped.fetch_add(1, std::memory_order_relaxed);
  } else if (d.duplicate) {
    counters_.duplicated.fetch_add(1, std::memory_order_relaxed);
  }
  if (!d.drop && d.delay > 0.0) {
    counters_.delayed.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

DiskDecision FaultInjector::on_wal_append(std::size_t node) {
  DiskDecision d;
  const DiskFault f = plan_.effective_disk(node);
  const bool has_schedule = !plan_.wal_kills.empty();
  if (!has_schedule && f.torn_write <= 0.0 && f.short_write <= 0.0) return d;
  bool scheduled = false;
  {
    std::lock_guard lock{mutex_};
    const std::uint64_t seen = wal_appends_[node]++;
    for (const WalKill& k : plan_.wal_kills) {
      if (k.node == node && seen == k.after_appends) {
        (k.torn ? d.torn : d.kill) = true;
        scheduled = true;
      }
    }
    if (!d.torn && !d.kill) {
      if (f.torn_write > 0.0 && disk_rng_.uniform() < f.torn_write) {
        d.torn = true;
      } else if (f.short_write > 0.0 &&
                 disk_rng_.uniform() < f.short_write) {
        d.short_write = true;
      }
    }
  }
  if (d.torn) {
    counters_.torn_writes.fetch_add(1, std::memory_order_relaxed);
  } else if (d.short_write) {
    counters_.short_writes.fetch_add(1, std::memory_order_relaxed);
  }
  if (scheduled) {
    counters_.wal_kills.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

bool FaultInjector::fsync_fails(std::size_t node) {
  const DiskFault f = plan_.effective_disk(node);
  if (f.fsync_fail <= 0.0) return false;
  bool fails = false;
  {
    std::lock_guard lock{mutex_};
    fails = disk_rng_.uniform() < f.fsync_fail;
  }
  if (fails) {
    counters_.fsync_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return fails;
}

NodeHealth::NodeHealth(sim::Engine& engine, std::size_t nodes) {
  gates_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    gates_.push_back(std::make_unique<sim::Gate>(engine));
  }
}

bool NodeHealth::up(std::size_t node) const {
  OMIG_REQUIRE(node < gates_.size(), "node index out of range");
  return gates_[node]->is_open();
}

void NodeHealth::mark_down(std::size_t node) {
  OMIG_REQUIRE(node < gates_.size(), "node index out of range");
  if (!gates_[node]->is_open()) return;
  gates_[node]->close();
  ++crashes_;
  if (observer_) observer_(node, false);
}

void NodeHealth::mark_up(std::size_t node) {
  OMIG_REQUIRE(node < gates_.size(), "node index out of range");
  if (gates_[node]->is_open()) return;
  ++restarts_;
  if (observer_) observer_(node, true);
  gates_[node]->open();
}

sim::Task NodeHealth::wait_up(std::size_t node) {
  OMIG_REQUIRE(node < gates_.size(), "node index out of range");
  // Re-check after resuming: an earlier-scheduled process may have crashed
  // the node again between the open() and our resumption.
  while (!gates_[node]->is_open()) {
    co_await gates_[node]->wait();
  }
}

namespace {

sim::Task replay_crash(sim::Engine& engine, CrashEvent crash,
                       NodeHealth& health) {
  co_await engine.delay(crash.at);
  health.mark_down(crash.node);
  if (crash.restarts()) {
    co_await engine.delay(crash.restart_after);
    health.mark_up(crash.node);
  }
}

}  // namespace

void spawn_crash_driver(sim::Engine& engine, const FaultPlan& plan,
                        NodeHealth& health) {
  for (const CrashEvent& crash : plan.crashes) {
    OMIG_REQUIRE(crash.node < health.size(),
                 "crash schedule names a node outside the system");
    engine.spawn(replay_crash(engine, crash, health));
  }
}

}  // namespace omig::fault
