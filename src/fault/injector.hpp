// Seed-driven fault injector shared by both execution backends.
//
// The FaultInjector turns a declarative FaultPlan into per-message
// decisions (drop / duplicate / delay) drawn from its own xoshiro stream,
// so a fixed seed yields a fixed fault sequence per delivery order. The
// live runtime asks it on every mailbox delivery; the simulator asks it on
// every message leg. NodeHealth tracks scheduled crashes for the
// simulator (the live runtime keeps its own health state because crashed
// threads need joining, not gates), and spawn_crash_driver() replays the
// plan's crash schedule on a sim::Engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/engine.hpp"
#include "sim/gate.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace omig::fault {

/// Monotonic robustness counters. Written by the injector and by the
/// protocol layers that act on its decisions (retries, lease expiries,
/// crash-recovery installs); atomics because the live runtime updates them
/// from many threads.
struct FaultCounters {
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delayed{0};
  std::atomic<std::uint64_t> retries{0};        ///< retransmissions sent
  std::atomic<std::uint64_t> lease_expiries{0};
  std::atomic<std::uint64_t> crashes{0};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> recoveries{0};     ///< objects reinstalled
  // Disk-fault dimension (durable store, docs/durability.md).
  std::atomic<std::uint64_t> torn_writes{0};
  std::atomic<std::uint64_t> short_writes{0};
  std::atomic<std::uint64_t> fsync_failures{0};
  std::atomic<std::uint64_t> wal_kills{0};      ///< scheduled power losses
};

/// Per-message verdict for one delivery attempt.
struct Decision {
  bool drop = false;
  bool duplicate = false;
  double delay = 0.0;
};

/// Verdict for one WAL append on a node's durable store. At most one of
/// the flags is set per decision (a tear already implies the store dies).
struct DiskDecision {
  bool torn = false;         ///< persist a prefix only, then die
  bool short_write = false;  ///< partial write; store truncates + rewrites
  bool kill = false;         ///< die between the write and its fsync
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Decides the fate of one message on the (from, to) link. Thread-safe;
  /// deterministic in the order of calls. Counts what it decides.
  Decision on_message(std::size_t from, std::size_t to);

  /// Decides the fate of one WAL append on `node`'s durable store:
  /// scheduled wal-kills fire on the exact append count, probabilistic
  /// torn/short writes draw from a dedicated splitmix64-derived stream
  /// (independent of the link-fault stream, so adding disk rules never
  /// perturbs the message-fault sequence). Thread-safe; deterministic in
  /// the per-node order of calls. Counts what it decides.
  DiskDecision on_wal_append(std::size_t node);

  /// True when this fsync on `node`'s store must report failure.
  bool fsync_fails(std::size_t node);

  [[nodiscard]] FaultCounters& counters() { return counters_; }
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }

 private:
  FaultPlan plan_;
  std::mutex mutex_;
  sim::Rng rng_;
  sim::Rng disk_rng_;
  /// WAL appends seen per store identity, for the wal-kill schedules.
  std::unordered_map<std::size_t, std::uint64_t> wal_appends_;
  FaultCounters counters_;
};

/// Simulator-side node availability. Gates close while a node is down;
/// processes needing the node co_await wait_up().
class NodeHealth {
 public:
  NodeHealth(sim::Engine& engine, std::size_t nodes);

  [[nodiscard]] std::size_t size() const { return gates_.size(); }
  [[nodiscard]] bool up(std::size_t node) const;
  void mark_down(std::size_t node);
  void mark_up(std::size_t node);

  /// Told of every transition — (node, false) right after a crash,
  /// (node, true) right before a restart wakes the node's waiters — so
  /// services that keep per-node state (the sharded directory) crash and
  /// recover with the node.
  using Observer = std::function<void(std::size_t node, bool up)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Resumes once the node is up (immediately if it already is).
  sim::Task wait_up(std::size_t node);

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  std::vector<std::unique_ptr<sim::Gate>> gates_;
  Observer observer_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

/// Spawns a root process into `engine` that replays `plan`'s crash
/// schedule against `health`. Both references must outlive the run.
void spawn_crash_driver(sim::Engine& engine, const FaultPlan& plan,
                        NodeHealth& health);

}  // namespace omig::fault
