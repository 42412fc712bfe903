#include "core/config.hpp"

#include <charconv>
#include <sstream>

#include "fault/fault_plan.hpp"

namespace omig::core {

namespace {

double parse_double(std::string_view key, std::string_view value) {
  double out = 0.0;
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw ConfigError{"value for '" + std::string{key} +
                      "' is not a number: '" + std::string{value} + "'"};
  }
  return out;
}

long long parse_int(std::string_view key, std::string_view value) {
  long long out = 0;
  const auto* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw ConfigError{"value for '" + std::string{key} +
                      "' is not an integer: '" + std::string{value} + "'"};
  }
  return out;
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  throw ConfigError{"value for '" + std::string{key} +
                    "' is not a boolean: '" + std::string{value} + "'"};
}

template <class Enum>
Enum parse_enum(std::string_view key, std::string_view value,
                std::optional<Enum> (*parser)(std::string_view),
                const char* choices) {
  if (auto parsed = parser(value)) return *parsed;
  throw ConfigError{"unknown value '" + std::string{value} + "' for '" +
                    std::string{key} + "' (choices: " + choices + ")"};
}

}  // namespace

std::optional<migration::PolicyKind> policy_from_string(std::string_view s) {
  using migration::PolicyKind;
  if (s == "sedentary") return PolicyKind::Sedentary;
  if (s == "conventional" || s == "migration") return PolicyKind::Conventional;
  if (s == "placement") return PolicyKind::Placement;
  if (s == "compare-nodes") return PolicyKind::CompareNodes;
  if (s == "compare-reinstantiate") return PolicyKind::CompareReinstantiate;
  if (s == "load-share") return PolicyKind::LoadShare;
  if (s == "adaptive") return PolicyKind::Adaptive;
  if (s == "adaptive-load") return PolicyKind::AdaptiveLoad;
  return std::nullopt;
}

std::optional<migration::AttachTransitivity> transitivity_from_string(
    std::string_view s) {
  using migration::AttachTransitivity;
  if (s == "unrestricted") return AttachTransitivity::Unrestricted;
  if (s == "a-transitive") return AttachTransitivity::ATransitive;
  return std::nullopt;
}

std::optional<migration::ClusterTransfer> transfer_from_string(
    std::string_view s) {
  using migration::ClusterTransfer;
  if (s == "parallel") return ClusterTransfer::Parallel;
  if (s == "serial") return ClusterTransfer::Serial;
  return std::nullopt;
}

std::optional<net::TopologyKind> topology_from_string(std::string_view s) {
  using net::TopologyKind;
  if (s == "full-mesh") return TopologyKind::FullMesh;
  if (s == "ring") return TopologyKind::Ring;
  if (s == "star") return TopologyKind::Star;
  if (s == "grid") return TopologyKind::Grid;
  return std::nullopt;
}

std::optional<net::LatencyMode> latency_from_string(std::string_view s) {
  using net::LatencyMode;
  if (s == "uniform") return LatencyMode::Uniform;
  if (s == "hop-scaled") return LatencyMode::HopScaled;
  if (s == "fixed") return LatencyMode::Fixed;
  return std::nullopt;
}

std::optional<objsys::LocationScheme> location_from_string(
    std::string_view s) {
  using objsys::LocationScheme;
  if (s == "none") return LocationScheme::None;
  if (s == "name-server") return LocationScheme::NameServer;
  if (s == "forwarding") return LocationScheme::Forwarding;
  if (s == "broadcast") return LocationScheme::Broadcast;
  if (s == "immediate-update") return LocationScheme::ImmediateUpdate;
  return std::nullopt;
}

std::optional<objsys::DirectoryKind> directory_kind_from_string(
    std::string_view s) {
  return objsys::directory_from_string(std::string{s});
}

std::optional<objsys::ConsistencyStrategy> dir_strategy_from_string(
    std::string_view s) {
  return objsys::strategy_from_string(std::string{s});
}

const char* to_string(net::TopologyKind kind) {
  switch (kind) {
    case net::TopologyKind::FullMesh:
      return "full-mesh";
    case net::TopologyKind::Ring:
      return "ring";
    case net::TopologyKind::Star:
      return "star";
    case net::TopologyKind::Grid:
      return "grid";
  }
  return "unknown";
}

const char* to_string(net::LatencyMode mode) {
  switch (mode) {
    case net::LatencyMode::Uniform:
      return "uniform";
    case net::LatencyMode::HopScaled:
      return "hop-scaled";
    case net::LatencyMode::Fixed:
      return "fixed";
  }
  return "unknown";
}

const char* to_string(migration::AttachTransitivity transitivity) {
  switch (transitivity) {
    case migration::AttachTransitivity::Unrestricted:
      return "unrestricted";
    case migration::AttachTransitivity::ATransitive:
      return "a-transitive";
  }
  return "unknown";
}

const char* to_string(migration::ClusterTransfer transfer) {
  switch (transfer) {
    case migration::ClusterTransfer::Parallel:
      return "parallel";
    case migration::ClusterTransfer::Serial:
      return "serial";
  }
  return "unknown";
}

void apply_assignment(ExperimentConfig& config, std::string_view key,
                      std::string_view value) {
  auto& w = config.workload;
  if (key == "nodes") {
    w.nodes = static_cast<int>(parse_int(key, value));
  } else if (key == "clients") {
    w.clients = static_cast<int>(parse_int(key, value));
  } else if (key == "servers1") {
    w.servers1 = static_cast<int>(parse_int(key, value));
  } else if (key == "servers2") {
    w.servers2 = static_cast<int>(parse_int(key, value));
  } else if (key == "ws") {
    w.working_set_size = static_cast<int>(parse_int(key, value));
  } else if (key == "m") {
    w.migration_duration = parse_double(key, value);
  } else if (key == "n") {
    w.mean_calls = parse_double(key, value);
  } else if (key == "ti") {
    w.mean_intercall = parse_double(key, value);
  } else if (key == "tm") {
    w.mean_interblock = parse_double(key, value);
  } else if (key == "visit") {
    w.use_visit = parse_bool(key, value);
  } else if (key == "immutable") {
    w.immutable_servers = parse_bool(key, value);
  } else if (key == "fragments") {
    w.fragments = static_cast<int>(parse_int(key, value));
  } else if (key == "view") {
    w.fragment_view = static_cast<int>(parse_int(key, value));
  } else if (key == "monolithic") {
    w.monolithic = parse_bool(key, value);
  } else if (key == "scan") {
    if (value == "sequential") {
      w.parallel_scan = false;
    } else if (value == "parallel") {
      w.parallel_scan = true;
    } else {
      throw ConfigError{"unknown value '" + std::string{value} +
                        "' for 'scan' (choices: sequential|parallel)"};
    }
  } else if (key == "read-fraction") {
    w.read_fraction = parse_double(key, value);
  } else if (key == "replication") {
    if (value == "none") {
      config.replication = objsys::ReplicationMode::None;
    } else if (value == "on-read") {
      config.replication = objsys::ReplicationMode::ReplicateOnRead;
    } else {
      throw ConfigError{"unknown value '" + std::string{value} +
                        "' for 'replication' (choices: none|on-read)"};
    }
  } else if (key == "policy") {
    config.policy = parse_enum(key, value, &policy_from_string,
                               "sedentary|conventional|placement|"
                               "compare-nodes|compare-reinstantiate|"
                               "load-share|adaptive|adaptive-load");
  } else if (key == "attach") {
    config.transitivity =
        parse_enum(key, value, &transitivity_from_string,
                   "unrestricted|a-transitive");
  } else if (key == "exclusive") {
    config.exclusive_attachments = parse_bool(key, value);
  } else if (key == "transfer") {
    config.transfer =
        parse_enum(key, value, &transfer_from_string, "parallel|serial");
  } else if (key == "topology") {
    config.topology = parse_enum(key, value, &topology_from_string,
                                 "full-mesh|ring|star|grid");
  } else if (key == "latency") {
    config.latency_mode = parse_enum(key, value, &latency_from_string,
                                     "uniform|hop-scaled|fixed");
  } else if (key == "location") {
    config.location_scheme =
        parse_enum(key, value, &location_from_string,
                   "none|name-server|forwarding|broadcast|immediate-update");
  } else if (key == "directory") {
    config.directory = parse_enum(key, value, &directory_kind_from_string,
                                  "central|sharded");
  } else if (key == "dir-strategy") {
    config.dir_strategy =
        parse_enum(key, value, &dir_strategy_from_string,
                   "eager-invalidate|lazy-forward|lease-ttl");
  } else if (key == "egoistic-clients") {
    config.egoistic_clients = static_cast<int>(parse_int(key, value));
  } else if (key == "egoistic-policy") {
    config.egoistic_policy =
        parse_enum(key, value, &policy_from_string,
                   "sedentary|conventional|placement|compare-nodes|"
                   "compare-reinstantiate|load-share|adaptive|adaptive-load");
  } else if (key == "ema-decay") {
    config.ema_decay = parse_double(key, value);
    if (config.ema_decay <= 0.0 || config.ema_decay >= 1.0) {
      throw ConfigError{"'ema-decay' must be in (0,1)"};
    }
  } else if (key == "hysteresis") {
    config.hysteresis_band = parse_double(key, value);
    if (config.hysteresis_band < 0.0 || config.hysteresis_band > 1.0) {
      throw ConfigError{"'hysteresis' must be in [0,1]"};
    }
  } else if (key == "min-weight") {
    config.adaptive_min_weight = parse_double(key, value);
    if (config.adaptive_min_weight < 0.0) {
      throw ConfigError{"'min-weight' must be >= 0"};
    }
  } else if (key == "load-factor") {
    config.load_factor = parse_double(key, value);
    if (config.load_factor <= 0.0) {
      throw ConfigError{"'load-factor' must be > 0"};
    }
  } else if (key == "majority") {
    config.clear_majority_minimum = static_cast<int>(parse_int(key, value));
  } else if (key == "ci") {
    config.stopping.relative_target = parse_double(key, value);
  } else if (key == "min-blocks") {
    config.stopping.min_observations =
        static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "max-blocks") {
    config.stopping.max_observations =
        static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "warmup") {
    config.warmup_time = parse_double(key, value);
  } else if (key == "max-time") {
    config.max_time = parse_double(key, value);
  } else if (key == "seed") {
    config.seed = static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "lease") {
    config.lock_lease = parse_double(key, value);
    if (config.lock_lease < 0.0) {
      throw ConfigError{"'lease' must be >= 0 (0 = locks never expire)"};
    }
  } else if (key == "scenario") {
    config.scenario.name = std::string{value};
  } else if (key == "sc-nodes") {
    config.scenario.nodes = static_cast<int>(parse_int(key, value));
  } else if (key == "sc-sources") {
    config.scenario.sources = static_cast<int>(parse_int(key, value));
  } else if (key == "sc-objects") {
    config.scenario.objects = static_cast<int>(parse_int(key, value));
  } else if (key == "sc-rate") {
    config.scenario.rate = parse_double(key, value);
  } else if (key == "sc-theta") {
    config.scenario.zipf_theta = parse_double(key, value);
  } else if (key == "sc-read") {
    config.scenario.read_fraction = parse_double(key, value);
  } else if (key == "sc-move") {
    config.scenario.move_fraction = parse_double(key, value);
  } else if (key == "sc-fanout") {
    config.scenario.fanout = static_cast<int>(parse_int(key, value));
  } else if (key == "sc-groups") {
    config.scenario.groups = static_cast<int>(parse_int(key, value));
  } else if (key == "sc-handoff") {
    config.scenario.handoff_fraction = parse_double(key, value);
  } else if (key == "sc-burst") {
    config.scenario.burst_mean = parse_double(key, value);
  } else if (key == "sc-alpha") {
    config.scenario.burst_alpha = parse_double(key, value);
  } else if (key == "fault-plan") {
    try {
      config.fault_plan = fault::load_plan(std::string{value});
    } catch (const fault::FaultPlanError& e) {
      throw ConfigError{e.what()};
    }
  } else {
    throw ConfigError{"unknown key '" + std::string{key} + "' (see --help)"};
  }
}

ExperimentConfig parse_config(const std::vector<std::string>& tokens,
                              ExperimentConfig base) {
  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError{"expected key=value, got '" + token + "'"};
    }
    apply_assignment(base, std::string_view{token}.substr(0, eq),
                     std::string_view{token}.substr(eq + 1));
  }
  return base;
}

std::string describe(const ExperimentConfig& config) {
  const auto& w = config.workload;
  std::ostringstream os;
  os << "policy=" << migration::to_string(config.policy) << " nodes="
     << w.nodes << " clients=" << w.clients << " servers1=" << w.servers1
     << " servers2=" << w.servers2 << " m=" << w.migration_duration
     << " n=" << w.mean_calls << " ti=" << w.mean_intercall
     << " tm=" << w.mean_interblock;
  if (w.servers2 > 0) os << " ws=" << w.working_set_size;
  if (w.use_visit) os << " visit=1";
  os << " attach=" << to_string(config.transitivity);
  if (config.exclusive_attachments) os << " exclusive=1";
  if (config.transfer != migration::ClusterTransfer::Parallel) {
    os << " transfer=" << to_string(config.transfer);
  }
  if (config.topology != net::TopologyKind::FullMesh) {
    os << " topology=" << to_string(config.topology);
  }
  if (config.latency_mode != net::LatencyMode::Uniform) {
    os << " latency=" << to_string(config.latency_mode);
  }
  if (config.location_scheme != objsys::LocationScheme::None) {
    os << " location=" << objsys::to_string(config.location_scheme);
  }
  if (config.directory != objsys::DirectoryKind::Central) {
    os << " directory=" << objsys::to_string(config.directory)
       << " dir-strategy=" << objsys::to_string(config.dir_strategy);
  }
  if (config.egoistic_clients > 0) {
    os << " egoistic-clients=" << config.egoistic_clients
       << " egoistic-policy=" << migration::to_string(config.egoistic_policy);
  }
  if (config.policy == migration::PolicyKind::Adaptive ||
      config.policy == migration::PolicyKind::AdaptiveLoad) {
    os << " ema-decay=" << config.ema_decay
       << " hysteresis=" << config.hysteresis_band
       << " min-weight=" << config.adaptive_min_weight;
    if (config.policy == migration::PolicyKind::AdaptiveLoad) {
      os << " load-factor=" << config.load_factor;
    }
  }
  if (config.scenario.enabled()) {
    const auto& sc = config.scenario;
    os << " scenario=" << sc.name << " sc-nodes=" << sc.nodes
       << " sc-sources=" << sc.sources << " sc-objects=" << sc.objects
       << " sc-rate=" << sc.rate;
  }
  if (config.lock_lease > 0.0) os << " lease=" << config.lock_lease;
  if (!config.fault_plan.empty()) {
    os << " faults={" << config.fault_plan.describe() << "}";
  }
  os << " ci=" << config.stopping.relative_target << " seed=" << config.seed;
  return os.str();
}

std::string config_help() {
  return R"(keys (key=value):
  populations:   nodes clients servers1 servers2 ws
  Table 1:       m (migration duration) n (calls/block) ti tm visit
                 immutable (servers are static: moves create copies)
                 read-fraction (share of calls that only read)
                 fragments view monolithic scan={sequential|parallel}
                   (fragmented-service outlook)
                 replication={none|on-read} (mutable read replicas)
  semantics:     policy={sedentary|conventional|placement|compare-nodes|
                         compare-reinstantiate|load-share|adaptive|
                         adaptive-load}
                 attach={unrestricted|a-transitive} exclusive={0|1}
                 transfer={parallel|serial}
  adaptive:      ema-decay (EMA retention per access, docs/policies.md)
                 hysteresis (dominant-vs-host share margin)
                 min-weight (min effective EMA sample size)
                 load-factor (adaptive-load hosted-objects veto)
  substrate:     topology={full-mesh|ring|star|grid}
                 latency={uniform|hop-scaled|fixed}
                 location={none|name-server|forwarding|broadcast|
                           immediate-update}
                 directory={central|sharded} (one shard per node)
                 dir-strategy={eager-invalidate|lazy-forward|lease-ttl}
                   (lease-ttl: a cache entry lives 16 directory operations)
  scenarios:     scenario={cache|game|iot|social} (docs/scenarios.md;
                   replaces the office workload with open-loop traffic)
                 sc-nodes sc-sources sc-objects sc-rate
                 sc-theta (Zipf skew) sc-read sc-move (pull probability)
                 sc-fanout sc-groups sc-handoff (game shards)
                 sc-burst sc-alpha (IoT Pareto burst lengths)
  mixed policy:  egoistic-clients egoistic-policy
  run control:   ci min-blocks max-blocks warmup max-time seed
                 majority (clear-majority threshold for reinstantiation)
  robustness:    fault-plan=FILE (drop/delay/dup/crash schedule,
                   docs/fault_model.md) lease=T (placement-lock lease,
                   0 = never expires)
)";
}

}  // namespace omig::core
