// Experiment configuration and runner: one call = one simulated data point.
#pragma once

#include <cstdint>

#include "fault/fault_plan.hpp"
#include "migration/manager.hpp"
#include "migration/policy.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "objsys/invocation.hpp"
#include "objsys/location_service.hpp"
#include "scenario/scenario.hpp"
#include "stats/batch_means.hpp"
#include "trace/log.hpp"
#include "workload/params.hpp"

namespace omig::core {

/// Everything that defines one simulation run.
struct ExperimentConfig {
  workload::WorkloadParams workload;
  /// Scenario-pack traffic (docs/scenarios.md). When `scenario.enabled()`
  /// the office workload above is not spawned: the scenario's population
  /// and open-loop sources replace it (its node count wins too). All other
  /// knobs — policy, transitivity, directory, faults, stopping — apply
  /// unchanged.
  scenario::ScenarioOptions scenario;
  migration::PolicyKind policy = migration::PolicyKind::Placement;

  /// Attachment semantics (only relevant when the workload attaches
  /// objects, i.e. the two-layer model).
  migration::AttachTransitivity transitivity =
      migration::AttachTransitivity::Unrestricted;
  bool exclusive_attachments = false;
  migration::ClusterTransfer transfer = migration::ClusterTransfer::Parallel;
  /// "Clear majority" threshold for the reinstantiation policy (see
  /// ManagerOptions::clear_majority_minimum).
  int clear_majority_minimum = 2;

  /// Adaptive-policy knobs (docs/policies.md; only consulted when `policy`
  /// or `egoistic_policy` is Adaptive/AdaptiveLoad). Defaults mirror
  /// ManagerOptions.
  double ema_decay = 0.9;          ///< per-access EMA retention factor
  double hysteresis_band = 0.2;    ///< dominant-vs-host share margin
  double adaptive_min_weight = 4.0;  ///< min effective EMA sample size
  double load_factor = 2.0;        ///< AdaptiveLoad's hosted-objects veto
  /// Attach the locality tracker even under a non-adaptive policy. No
  /// policy consumes it then — this isolates the tracker's bookkeeping
  /// cost on the invocation hot path (bench_policy's A/B; the tracker is
  /// RNG-free, so results are unchanged by construction).
  bool track_locality = false;

  /// Mutable-object replication (Section 5 outlook; see docs/MODEL.md).
  objsys::ReplicationMode replication = objsys::ReplicationMode::None;

  net::TopologyKind topology = net::TopologyKind::FullMesh;
  net::LatencyMode latency_mode = net::LatencyMode::Uniform;
  objsys::LocationScheme location_scheme = objsys::LocationScheme::None;

  /// Directory implementation behind the location seam (docs/directory.md).
  /// Central is the seed behaviour (single name server / registry map);
  /// Sharded hashes objects onto per-node directory shards with per-node
  /// lookup caches kept consistent by `dir_strategy`.
  objsys::DirectoryKind directory = objsys::DirectoryKind::Central;
  objsys::ConsistencyStrategy dir_strategy =
      objsys::ConsistencyStrategy::LazyForward;

  /// Beyond-paper (Section 2.4's "completely egoistic" implementor): the
  /// first `egoistic_clients` clients run `egoistic_policy` while everyone
  /// else runs `policy`. One-layer workloads only.
  int egoistic_clients = 0;
  migration::PolicyKind egoistic_policy =
      migration::PolicyKind::Conventional;

  /// Fault injection (docs/fault_model.md): message drops / delays /
  /// duplicates per link plus a node crash schedule, all in sim time.
  /// Empty = no fault machinery is instantiated and the run is identical
  /// to a pre-fault build.
  fault::FaultPlan fault_plan;
  /// Placement-lock lease in sim time; 0 = locks never expire (see
  /// ManagerOptions::lock_lease).
  double lock_lease = 0.0;

  stats::StoppingRule stopping;
  sim::SimTime warmup_time = 500.0;
  sim::SimTime max_time = 1e9;
  std::uint64_t seed = 0x0a1b2c3d4e5f6071ULL;
};

/// The measured outcome of one run.
struct ExperimentResult {
  double total_per_call = 0.0;      ///< Figures 8/12/14/16 y-axis
  double call_duration = 0.0;       ///< Figure 10 y-axis
  double migration_per_call = 0.0;  ///< Figure 11 y-axis
  double ci_half_width = 0.0;
  double ci_relative = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t calls = 0;
  std::uint64_t migrations = 0;      ///< completed object relocations
  std::uint64_t transfers = 0;       ///< physical transfer operations
  std::uint64_t control_messages = 0;
  std::uint64_t remote_calls = 0;
  std::uint64_t blocked_calls = 0;   ///< calls that waited on a transit
  std::uint64_t replications = 0;    ///< copies installed
  std::uint64_t replica_hits = 0;    ///< calls served by a local copy
  std::uint64_t invalidations = 0;   ///< copies dropped by writes/moves
  std::uint64_t events = 0;
  sim::SimTime sim_time = 0.0;
  double call_p50 = 0.0;  ///< median call duration
  double call_p95 = 0.0;  ///< 95th-percentile call duration
  double call_p99 = 0.0;  ///< 99th-percentile call duration

  // Scenario traffic — all zero unless the run had a scenario enabled.
  std::uint64_t scenario_bursts = 0;    ///< open-loop arrivals generated
  std::uint64_t scenario_ops = 0;       ///< invocations + moves + visits
  double scenario_offered = 0.0;        ///< arrivals per sim-time unit
  double scenario_achieved = 0.0;       ///< completed ops per sim-time unit
  double scenario_op_p50 = 0.0;         ///< invocation latency quantiles
  double scenario_op_p99 = 0.0;         ///< (sim units, bucket upper bound)

  // Adaptive-policy telemetry — all zero unless the run used an adaptive
  // PolicyKind (docs/policies.md).
  std::uint64_t policy_migrations = 0;   ///< adaptive migrations triggered
  std::uint64_t policy_suppressed_hysteresis = 0;  ///< moves under the band
  std::uint64_t policy_suppressed_load = 0;        ///< load-veto refusals
  std::uint64_t policy_reversals = 0;    ///< migrations undoing the previous
  std::uint64_t ema_updates = 0;         ///< locality-tracker record() calls

  // Robustness counters — all zero unless the run had a fault plan.
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t fault_retries = 0;    ///< retransmissions / down-node polls
  std::uint64_t lease_expiries = 0;   ///< placement locks expired
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t recoveries = 0;       ///< objects pulled from a checkpoint
};

/// Runs one experiment to completion (stopping rule or max_time).
/// If `trace` is non-null, the migration runtime's protocol events are
/// recorded into it (requests, refusals, transits, locks).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                trace::TraceLog* trace = nullptr);

/// Reads OMIG_CI_TARGET / OMIG_MIN_BLOCKS / OMIG_MAX_BLOCKS from the
/// environment into a stopping rule, starting from the paper's defaults
/// (1% at p = 0.99). Lets the benches trade precision for speed.
stats::StoppingRule stopping_rule_from_env();

}  // namespace omig::core
