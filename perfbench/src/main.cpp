// omig_perfbench: runs one workload and prints its result as one JSON
// line. perfbench/run.py builds and drives it; see perfbench/README.md.
//
//   omig_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out DIR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "net/poller.hpp"

namespace {

using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by the untraced run, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"bursts_per_s", "1/s"},
    {"burst_p50_us", "us"},    {"burst_p99_us", "us"},
    {"invoke_p50_us", "us"},   {"peak_rss_mb", "MB"},
};

/// Printed by the traced run, on every workload; a layer the workload
/// does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"runtime.move_us.p50", "us"},
    {"runtime.move_us.p99", "us"},
    {"runtime.end_us.p50", "us"},
    {"runtime.end_us.p99", "us"},
    {"runtime.invoke_us.p50", "us"},
    {"runtime.invoke_us.p99", "us"},
    {"runtime.us_per_migration", "us"},
    {"runtime.migrations_per_burst", "count"},
    {"runtime.refusal_ratio", "ratio"},
    {"runtime.remote_ratio", "ratio"},
    {"runtime.retries", "count"},
    {"runtime.span_coverage", "ratio"},
    {"transport.frames_per_op", "count"},
    {"transport.bytes_per_op", "B"},
    {"transport.codec_ns", "ns"},
    {"transport.rtt_us.p50", "us"},
    {"transport.rtt_us.p99", "us"},
    {"node.messages_per_op", "count"},
    {"node.dedup_hits", "count"},
    {"serde.roundtrip_ns", "ns"},
    {"objsys.dir_lookups_per_invoke", "count"},
    {"objsys.dir_cache_hit_ratio", "ratio"},
    {"objsys.dir_stale_ratio", "ratio"},
    {"objsys.dir_forward_hops_per_stale", "count"},
    {"objsys.dir_updates_per_migration", "count"},
    {"store.appends_per_migration", "count"},
    {"store.fsyncs_per_migration", "count"},
    {"store.wal_bytes_per_migration", "B"},
    {"store.snapshot_installs_per_1k", "count"},
    {"store.append_us.t1.p50", "us"},
    {"store.append_us.t1.p99", "us"},
    {"store.append_us.t4.p50", "us"},
    {"store.append_us.t4.p99", "us"},
    {"sim.events_per_block", "count"},
    {"migration.migrations_per_block", "count"},
    {"migration.transfers_per_block", "count"},
    {"sim.remote_calls_per_block", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.blocks_per_s", "1/s"},
    {"proc.cpu_us_per_burst", "us"},
    {"proc.ctx_switches_per_op", "count"},
    {"trace_overhead_pct", "%"},
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// How long each workload run as a layer probe of a traced run lasts.
constexpr double kLayerProbeSeconds = 2.0;

/// Copies `from`'s metrics whose names start with one of `prefixes`, and
/// all of its checks (as "<workload>/<check>"), into `into`.
void fold(Result& into, const Result& from, const std::string& workload,
          std::initializer_list<std::string_view> prefixes) {
  for (const auto& [name, metric] : from.metrics) {
    for (const std::string_view prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) into.metrics[name] = metric;
    }
  }
  for (const auto& [name, tally] : from.checks) {
    into.checks[workload + "/" + name] = tally;
  }
  into.ops += from.ops;
  into.failed_ops += from.failed_ops;
  for (const std::string& note : from.notes) {
    into.notes.push_back(workload + ": " + note);
  }
}

/// Closed-loop callers `workload` runs. The two declared workloads run one:
/// on a few shared vCPUs, four callers (plus the runtime's node, loop and
/// strand threads) measured the host's scheduler, and their runs spread
/// past the benchmark's bounds.
unsigned callers(const std::string& workload) {
  if (workload == "social-visit" || workload == "cache-rpc") return 1;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

int usage() {
  std::cerr << "usage: omig_perfbench --workload "
               "social-visit|cache-rpc|durable-move|sim-fig16 --seed N "
               "--seconds S --trace 0|1 --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      run.workload = value;
    } else if (key == "--seed") {
      run.seed = std::stoull(value);
    } else if (key == "--seconds") {
      run.seconds = std::stod(value);
    } else if (key == "--trace") {
      run.trace = value == "1";
    } else if (key == "--out") {
      run.out = value;
    } else {
      return usage();
    }
  }
  const bool live = run.workload == "social-visit" ||
                    run.workload == "cache-rpc" ||
                    run.workload == "durable-move";
  if ((!live && run.workload != "sim-fig16") || run.out.empty() ||
      !(run.seconds > 0.0)) {
    return usage();
  }
  run.threads = callers(run.workload);
  std::filesystem::create_directories(run.out);

  Result r;
  try {
    r = live ? perfbench::run_live(run) : perfbench::run_sim(run);
    if (run.trace && live) {
      // The store and the simulator are measured on every traced live run
      // by short runs of durable-move and sim-fig16: their layer metrics
      // and checks join this run's.
      perfbench::RunOptions probe = run;
      probe.seconds = kLayerProbeSeconds;
      probe.probes = false;
      if (run.workload != "durable-move") {
        probe.workload = "durable-move";
        probe.threads = callers(probe.workload);
        fold(r, perfbench::run_live(probe), probe.workload,
             {"store.appends", "store.fsyncs", "store.wal", "store.snapshot"});
      }
      probe.workload = "sim-fig16";
      probe.threads = callers(probe.workload);
      fold(r, perfbench::run_sim(probe), probe.workload,
           {"sim.", "migration."});
    }
  } catch (const std::exception& e) {
    std::cerr << "omig_perfbench: " << run.workload << ": " << e.what() << "\n";
    return 1;
  }

  if (!run.trace) r.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  std::ostringstream metrics;
  const char* sep = "";
  auto emit = [&](const auto& table) {
    for (const MetricSpec& spec : table) {
      const auto it = r.metrics.find(spec.name);
      const double value = it != r.metrics.end() ? it->second.value : 0.0;
      metrics << sep << quoted(spec.name) << ":{\"value\":" << number(value)
              << ",\"unit\":" << quoted(spec.unit) << "}";
      sep = ",";
    }
  };
  if (run.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }

  std::uint64_t attempted = r.ops;
  std::uint64_t failed = r.failed_ops;
  std::ostringstream checks;
  sep = "";
  for (const auto& [name, tally] : r.checks) {
    attempted += tally.first;
    failed += tally.second;
    checks << sep << quoted(name) << ":{\"attempted\":" << tally.first
           << ",\"failed\":" << tally.second << "}";
    sep = ",";
  }
  r.detail["failed_ratio"] =
      perfbench::ratio(static_cast<double>(failed),
                       static_cast<double>(attempted));
  std::ostringstream detail;
  sep = "";
  for (const auto& [name, value] : r.detail) {
    detail << sep << quoted(name) << ":" << number(value);
    sep = ",";
  }
  std::ostringstream notes;
  sep = "";
  for (const std::string& note : r.notes) {
    notes << sep << quoted(note);
    sep = ",";
  }

  std::cout << "{\"workload\":" << quoted(run.workload)
            << ",\"seed\":" << run.seed
            << ",\"seconds\":" << number(run.seconds)
            << ",\"trace\":" << (run.trace ? 1 : 0)
            << ",\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{" << metrics.str() << "}"
            << ",\"checks\":{" << checks.str() << "}"
            << ",\"detail\":{" << detail.str() << "}"
            << ",\"notes\":[" << notes.str() << "]"
            << ",\"machine\":{\"threads\":" << run.threads
            << ",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency() << ",\"poller\":"
            << quoted(omig::net::make_poller()->name()) << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
