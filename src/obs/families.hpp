// The standard metric families, registered into the global registry.
//
// Each layer's instrumentation points grab its struct once (a
// function-local static, so registration cost is paid on first use) and
// then touch only lock-free metric objects. Centralising the names here
// keeps the naming scheme (docs/metrics.md) in one place and lets an
// exporter process (tools/omig_node) pre-register every family so a
// scrape shows the full schema even before traffic flows.
#pragma once

#include "obs/metrics.hpp"

namespace omig::obs {

/// Simulator layer (objsys invocation + core experiment driver).
/// Durations are recorded in sim-time milli-units (sim time × 1000): the
/// paper's unit is the mean one-way message ≈ 1.0, so a remote call ≈
/// 2000 milli-units.
struct SimMetrics {
  Counter* invocations_local;    ///< omig_sim_invocations_total{kind=local}
  Counter* invocations_remote;   ///< omig_sim_invocations_total{kind=remote}
  Histogram* call_local_milli;   ///< local-call duration (incl. transit waits)
  Histogram* call_remote_milli;  ///< remote-call duration (legs + faults)
};
[[nodiscard]] SimMetrics& sim_metrics();

/// Live runtime layer (runtime/live_system): the paper's primitives on
/// real threads. Wall-clock durations in microseconds.
struct RuntimeMetrics {
  Counter* invocations_local;   ///< omig_runtime_invocations_total{kind=local}
  Counter* invocations_remote;  ///< omig_runtime_invocations_total{kind=remote}
  Histogram* invoke_local_us;   ///< send→reply wall time, caller-local calls
  Histogram* invoke_remote_us;  ///< send→reply wall time, remote calls
  Counter* migrations;          ///< completed object relocations
  Histogram* migration_us;      ///< evict→install wall time per object
  Counter* refused_moves;       ///< placement conflicts (move not granted)
  Counter* lease_acquisitions;  ///< placement locks taken by move/visit
  Counter* lease_expiries;      ///< locks released by lease expiry
  Counter* retries;             ///< message retransmissions
  Counter* recoveries;          ///< objects reinstalled from a checkpoint
  Counter* crashes;
  Counter* restarts;
  Counter* send_rejections;     ///< typed transport rejections observed
};
[[nodiscard]] RuntimeMetrics& runtime_metrics();

/// Transport layer (wire frames over sockets). Per-peer RTT histograms
/// are registered by AsyncTcpTransport under omig_transport_rtt_us{peer="N"}.
struct TransportMetrics {
  Counter* frames_out;
  Counter* frames_in;
  Counter* frame_bytes_out;  ///< omig_transport_frame_bytes_out_total
  Counter* frame_bytes_in;
  Counter* reconnects;       ///< connections re-established after a reset
  Counter* send_rejections;  ///< sends rejected with a typed status
};
[[nodiscard]] TransportMetrics& transport_metrics();

/// Node layer (runtime/live_node + transport/node_server): what one
/// hosting node executes, regardless of which transport delivered it.
struct NodeMetrics {
  Counter* invokes;     ///< omig_node_messages_total{type=invoke}
  Counter* installs;    ///< omig_node_messages_total{type=install}
  Counter* evicts;      ///< omig_node_messages_total{type=evict}
  Counter* dedup_hits;  ///< requests answered from the at-most-once cache
  Gauge* hosted_objects;
  Counter* server_bytes_in;   ///< bytes into this node's frame server
  Counter* server_bytes_out;  ///< reply bytes out of the frame server
};
[[nodiscard]] NodeMetrics& node_metrics();

/// Durable store layer (src/store/): the write-ahead log, snapshot
/// installs, and recovery replay (docs/durability.md).
struct StoreMetrics {
  Counter* wal_appends;          ///< records appended to the WAL
  Counter* wal_fsyncs;           ///< fsyncs issued by the WAL
  Counter* wal_bytes;            ///< frame bytes written to the WAL
  Counter* replay_records;       ///< records applied during recovery
  Counter* replay_truncations;   ///< torn/corrupt tails detected + discarded
  Counter* snapshot_installs;    ///< compacted snapshots atomically installed
};
[[nodiscard]] StoreMetrics& store_metrics();

/// Location-directory layer (objsys/directory_core, docs/directory.md).
/// Both backends feed the same family through objsys::count_in_metrics:
/// the simulator folds the core's counters in once per run, the live
/// runtime after every lookup and update.
struct DirMetrics {
  Counter* lookups_hit;    ///< omig_dir_lookups_total{result=hit}
  Counter* lookups_stale;  ///< omig_dir_lookups_total{result=stale}
  Counter* lookups_miss;   ///< omig_dir_lookups_total{result=miss}
  Counter* forward_hops;   ///< forwarding-pointer hops chased
  Counter* updates;        ///< shard-owner updates (migrations, installs)
  Counter* invalidations;  ///< cache entries dropped by eager invalidation
  Counter* fallbacks;      ///< lookups resolved by the coordinator fallback
  Counter* unresolved;     ///< lookups that found no live host (retried)
  Histogram* lookup_us;    ///< live-runtime wall time per directory lookup
};
[[nodiscard]] DirMetrics& dir_metrics();

/// Scenario-pack traffic layer (src/scenario/, docs/scenarios.md): the
/// open-loop generator's offered load, issued operations by kind, achieved
/// throughput, and op-latency distributions, labelled by scenario. Both
/// backends feed the same family — the simulator folds a per-run
/// ScenarioTally in (durations in sim milli-units), the live driver
/// records wall-clock microseconds.
struct ScenarioMetrics {
  Counter* offered_bursts;    ///< omig_scenario_offered_bursts_total
  Counter* completed_bursts;  ///< omig_scenario_completed_bursts_total
  Counter* ops_invoke;        ///< omig_scenario_ops_total{kind=invoke}
  Counter* ops_move;          ///< omig_scenario_ops_total{kind=move}
  Counter* ops_visit;         ///< omig_scenario_ops_total{kind=visit}
  Gauge* achieved_ops;        ///< ops per unit time (sim: per 1000 sim
                              ///< units; live: per second), last run wins
  Histogram* op_milli;        ///< sim invocation latency (milli-units)
  Histogram* burst_milli;     ///< sim whole-burst latency (milli-units)
  Histogram* op_us;           ///< live invocation wall latency (µs)
};
/// Unlike the fixed families above this one is keyed by scenario name, so
/// it returns by value; registration is idempotent and cheap on a hit.
[[nodiscard]] ScenarioMetrics scenario_metrics(const std::string& scenario);

/// Adaptive-placement policy layer (docs/policies.md): the decisions the
/// feedback-driven policies took and the locality telemetry that fed them,
/// labelled by policy kind. Both backends feed the same family — the
/// simulator folds per-run PolicyCounters in once per run
/// (core/experiment.cpp), the live runtime increments per decision.
struct PolicyMetrics {
  Counter* migrations_triggered;   ///< omig_policy_migrations_total
  Counter* suppressed_hysteresis;  ///< omig_policy_suppressed_total{reason=hysteresis}
  Counter* suppressed_load;        ///< omig_policy_suppressed_total{reason=load}
  Counter* pingpong_reversals;     ///< omig_policy_pingpong_reversals_total
  Counter* ema_updates;            ///< omig_policy_ema_updates_total
};
/// Keyed by policy name ("adaptive" / "adaptive-load"), so it returns by
/// value like scenario_metrics; registration is idempotent.
[[nodiscard]] PolicyMetrics policy_metrics(const std::string& policy);

/// Touches every family above so an exporter shows the full schema
/// before any traffic (Prometheus convention: export zeros, not absence).
void register_standard_metrics();

}  // namespace omig::obs
