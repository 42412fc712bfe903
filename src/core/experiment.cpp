#include "core/experiment.hpp"

#include <cstdlib>
#include <memory>
#include <optional>

#include "core/metrics.hpp"
#include "fault/injector.hpp"
#include "migration/alliance.hpp"
#include "migration/attachment.hpp"
#include "migration/policy.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "objsys/invocation.hpp"
#include "objsys/locality.hpp"
#include "objsys/registry.hpp"
#include "scenario/sim_driver.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "workload/fragmented.hpp"
#include "workload/one_layer.hpp"
#include "workload/two_layer.hpp"

namespace omig::core {

ExperimentResult run_experiment(const ExperimentConfig& config,
                                trace::TraceLog* trace) {
  workload::validate(config.workload);
  OMIG_REQUIRE(config.egoistic_clients >= 0 &&
                   config.egoistic_clients <= config.workload.clients,
               "egoistic client count out of range");
  OMIG_REQUIRE(config.egoistic_clients == 0 ||
                   (config.workload.servers2 == 0 &&
                    config.workload.fragments == 0),
               "mixed policies are only supported on one-layer workloads");

  // Scenario traffic replaces the office workload; the scenario's cluster
  // size wins so `scenario=... sc-nodes=...` needs no matching `nodes=`.
  const std::size_t node_count =
      config.scenario.enabled()
          ? static_cast<std::size_t>(config.scenario.nodes)
          : static_cast<std::size_t>(config.workload.nodes);

  sim::Engine engine;
  auto topology = net::make_topology(config.topology, node_count);
  net::LatencyModel latency{*topology, config.latency_mode, 1.0};
  objsys::ObjectRegistry registry{engine, node_count};

  sim::Rng net_rng{config.seed, 1};
  sim::Rng mgr_rng{config.seed, 2};
  objsys::Invoker invoker{engine, registry, latency, net_rng};
  invoker.set_replication(config.replication,
                          config.workload.migration_duration);

  migration::AttachmentGraph attachments{
      config.exclusive_attachments
          ? migration::AttachmentGraph::Mode::Exclusive
          : migration::AttachmentGraph::Mode::Standard};
  migration::AllianceRegistry alliances;

  migration::ManagerOptions opts;
  opts.migration_duration = config.workload.migration_duration;
  opts.transitivity = config.transitivity;
  opts.transfer = config.transfer;
  opts.clear_majority_minimum = config.clear_majority_minimum;
  opts.lock_lease = config.lock_lease;
  opts.hysteresis_band = config.hysteresis_band;
  opts.adaptive_min_weight = config.adaptive_min_weight;
  opts.load_factor = config.load_factor;
  migration::MigrationManager manager{engine, registry,  latency, mgr_rng,
                                      attachments, alliances, opts};

  // Access-locality telemetry only exists when an adaptive policy consumes
  // it: non-adaptive runs keep a bare invocation hot path (and the tracker
  // would not perturb them anyway — it is pure arithmetic, no RNG).
  const auto is_adaptive = [](migration::PolicyKind k) {
    return k == migration::PolicyKind::Adaptive ||
           k == migration::PolicyKind::AdaptiveLoad;
  };
  std::unique_ptr<objsys::LocalityTracker> locality;
  if (config.track_locality || is_adaptive(config.policy) ||
      (config.egoistic_clients > 0 && is_adaptive(config.egoistic_policy))) {
    locality =
        std::make_unique<objsys::LocalityTracker>(node_count, config.ema_decay);
    invoker.set_locality_tracker(locality.get());
    manager.protocol().set_locality(locality.get());
  }

  // Fault machinery only exists when the plan asks for it — an empty plan
  // leaves every code path and RNG stream exactly as in a fault-free build.
  std::unique_ptr<fault::FaultInjector> injector;
  std::optional<fault::NodeHealth> health;
  if (!config.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(config.fault_plan);
    health.emplace(engine, node_count);
    fault::spawn_crash_driver(engine, injector->plan(), *health);
    invoker.set_fault(injector.get(), &*health);
    manager.set_fault(injector.get(), &*health);
  }

  std::optional<objsys::LocationService> service;
  if (config.location_scheme != objsys::LocationScheme::None ||
      config.directory == objsys::DirectoryKind::Sharded) {
    service.emplace(engine, registry, latency, mgr_rng,
                    config.location_scheme);
    if (config.directory == objsys::DirectoryKind::Sharded) {
      service->enable_sharded(config.dir_strategy);
    }
    invoker.set_location_service(&*service);
    manager.set_location_service(&*service);
  }
  if (health.has_value() && service && service->sharded() != nullptr) {
    // Crashes reach the directory as they do in the live runtime: the
    // node's tables and cache die with it, and a restart reseeds them.
    health->set_observer([&service](std::size_t node, bool up) {
      const objsys::NodeId id{static_cast<objsys::NodeId::value_type>(node)};
      if (up) {
        service->restart_node(id);
      } else {
        service->crash_node(id);
      }
    });
  }

  auto policy = migration::make_policy(config.policy, manager);
  Recorder recorder{engine, config.stopping, config.warmup_time};
  manager.set_background_cost_sink(
      [&recorder](double cost) { recorder.on_background_migration(cost); });
  if (trace != nullptr) manager.set_trace(trace);

  std::unique_ptr<scenario::Scenario> scen;
  std::unique_ptr<scenario::ScenarioRun> scen_run;
  scenario::ScenarioTally scen_tally;
  std::unique_ptr<migration::MigrationPolicy> egoistic;
  if (config.scenario.enabled()) {
    scen = scenario::make_scenario(config.scenario);
    scen_run = scenario::spawn_scenario(engine, registry, manager, *policy,
                                        invoker, recorder, *scen, config.seed,
                                        scen_tally);
  } else if (config.workload.fragments > 0) {
    workload::spawn_fragmented(engine, registry, manager, *policy, invoker,
                               recorder, config.workload, config.seed);
  } else if (config.workload.servers2 == 0) {
    std::vector<migration::MigrationPolicy*> per_client(
        static_cast<std::size_t>(config.workload.clients), policy.get());
    if (config.egoistic_clients > 0) {
      egoistic = migration::make_policy(config.egoistic_policy, manager);
      for (int i = 0; i < config.egoistic_clients; ++i) {
        per_client[static_cast<std::size_t>(i)] = egoistic.get();
      }
    }
    workload::spawn_one_layer_mixed(engine, registry, manager, per_client,
                                    invoker, recorder, config.workload,
                                    config.seed);
  } else {
    workload::spawn_two_layer(engine, registry, manager, *policy, invoker,
                              recorder, config.workload, config.seed);
  }

  engine.run_until(config.max_time);

  ExperimentResult r;
  r.total_per_call = recorder.total_per_call();
  r.call_duration = recorder.call_duration_per_call();
  r.migration_per_call = recorder.migration_per_call();
  const auto ci = recorder.total_interval();
  r.ci_half_width = ci.half_width;
  r.ci_relative = ci.relative();
  r.blocks = recorder.blocks();
  r.calls = recorder.calls();
  r.migrations = registry.migrations();
  r.transfers = manager.transfers_started();
  r.control_messages = manager.control_messages();
  r.remote_calls = invoker.remote_invocations();
  r.blocked_calls = invoker.blocked_invocations();
  r.replications = registry.replications();
  r.replica_hits = invoker.replica_hits();
  r.invalidations = registry.invalidations();
  r.events = engine.events_processed();
  r.sim_time = engine.now();
  r.call_p50 = recorder.call_duration_quantile(0.50);
  r.call_p95 = recorder.call_duration_quantile(0.95);
  r.call_p99 = recorder.call_duration_quantile(0.99);
  r.lease_expiries = manager.protocol().lease_expiries();
  {
    const migration::PolicyCounters& pc = manager.protocol().counters();
    r.policy_migrations = pc.migrations_triggered;
    r.policy_suppressed_hysteresis = pc.suppressed_hysteresis;
    r.policy_suppressed_load = pc.suppressed_load;
    r.policy_reversals = pc.pingpong_reversals;
    if (locality != nullptr) r.ema_updates = locality->updates();
  }
  if (config.scenario.enabled()) {
    r.scenario_bursts = scen_tally.offered_bursts;
    r.scenario_ops = scen_tally.ops_invoke + scen_tally.ops_move +
                     scen_tally.ops_visit;
    if (r.sim_time > 0.0) {
      r.scenario_offered =
          static_cast<double>(scen_tally.offered_bursts) / r.sim_time;
      r.scenario_achieved =
          static_cast<double>(scen_tally.ops_invoke) / r.sim_time;
    }
    // Tally buckets are milli-units; report quantiles in sim units.
    r.scenario_op_p50 = static_cast<double>(scenario::tally_quantile(
                            scen_tally.op_milli, 0.50)) /
                        1000.0;
    r.scenario_op_p99 = static_cast<double>(scenario::tally_quantile(
                            scen_tally.op_milli, 0.99)) /
                        1000.0;
  }
  if (injector != nullptr) {
    const fault::FaultCounters& fc = injector->counters();
    r.dropped_messages = fc.dropped.load();
    r.duplicated_messages = fc.duplicated.load();
    r.delayed_messages = fc.delayed.load();
    r.fault_retries = fc.retries.load();
    r.recoveries = fc.recoveries.load();
  }
  if (health.has_value()) {
    r.node_crashes = health->crashes();
    r.node_restarts = health->restarts();
  }

  // Fold this run's tallies into the process-wide registry, labelled by
  // policy, once at run end: the sweep engine runs cells in parallel, so
  // keeping the fold out of the hot path avoids cache-line contention and
  // cannot perturb the deterministic per-cell RNG streams.
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const obs::Labels by_policy{
        {"policy", std::string{migration::to_string(config.policy)}}};
    reg.counter("omig_sim_calls_total", "Completed top-level calls by policy",
                by_policy)
        .inc(r.calls);
    reg.counter("omig_sim_migrations_total", "Object migrations by policy",
                by_policy)
        .inc(r.migrations);
    reg.counter("omig_sim_remote_calls_total", "Remote invocations by policy",
                by_policy)
        .inc(r.remote_calls);
    reg.counter("omig_sim_blocked_calls_total",
                "Calls blocked on an in-transit object, by policy", by_policy)
        .inc(r.blocked_calls);
    reg.counter("omig_sim_control_messages_total",
                "Policy control messages by policy", by_policy)
        .inc(r.control_messages);
    // The invocation split and latency histograms accumulated in plain
    // per-run tallies (obs::HistogramTally) on the sim's hottest loop.
    obs::SimMetrics& sm = obs::sim_metrics();
    const std::uint64_t total_invocations = invoker.invocations();
    const std::uint64_t remote = invoker.remote_invocations();
    sm.invocations_local->inc(total_invocations - remote);
    sm.invocations_remote->inc(remote);
    sm.call_local_milli->merge(invoker.local_call_milli());
    sm.call_remote_milli->merge(invoker.remote_call_milli());
    if (config.scenario.enabled()) {
      obs::ScenarioMetrics scm = obs::scenario_metrics(scen->name());
      scm.offered_bursts->inc(scen_tally.offered_bursts);
      scm.completed_bursts->inc(scen_tally.completed_bursts);
      scm.ops_invoke->inc(scen_tally.ops_invoke);
      scm.ops_move->inc(scen_tally.ops_move);
      scm.ops_visit->inc(scen_tally.ops_visit);
      scm.achieved_ops->set(
          static_cast<std::int64_t>(r.scenario_achieved * 1000.0));
      scm.op_milli->merge(scen_tally.op_milli);
      scm.burst_milli->merge(scen_tally.burst_milli);
    }
    if (locality != nullptr) {
      obs::PolicyMetrics pm = obs::policy_metrics(
          std::string{migration::to_string(config.policy)});
      pm.migrations_triggered->inc(r.policy_migrations);
      pm.suppressed_hysteresis->inc(r.policy_suppressed_hysteresis);
      pm.suppressed_load->inc(r.policy_suppressed_load);
      pm.pingpong_reversals->inc(r.policy_reversals);
      pm.ema_updates->inc(r.ema_updates);
    }
    if (service && service->sharded() != nullptr) {
      objsys::DirectoryStats counted;
      objsys::count_in_metrics(counted, service->sharded()->stats());
    }
  }

  // Tear the processes down while every service they reference is alive.
  engine.clear();
  return r;
}

stats::StoppingRule stopping_rule_from_env() {
  stats::StoppingRule rule;
  rule.level = 0.99;
  rule.relative_target = 0.01;
  rule.min_batches = 16;
  rule.min_observations = 2'000;
  rule.max_observations = 120'000;
  if (const char* s = std::getenv("OMIG_CI_TARGET")) {
    const double v = std::atof(s);
    if (v > 0.0) rule.relative_target = v;
  }
  if (const char* s = std::getenv("OMIG_MIN_BLOCKS")) {
    const long v = std::atol(s);
    if (v > 0) rule.min_observations = static_cast<std::uint64_t>(v);
  }
  if (const char* s = std::getenv("OMIG_MAX_BLOCKS")) {
    const long v = std::atol(s);
    if (v > 0) rule.max_observations = static_cast<std::uint64_t>(v);
  }
  return rule;
}

}  // namespace omig::core
