// The live workloads: social-visit, cache-rpc and durable-move, each a
// closed loop of caller threads on one runtime::LiveSystem.
#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "runtime/demo_types.hpp"
#include "store/store.hpp"
#include "util/assert.hpp"

namespace perfbench {
namespace {

using omig::runtime::LiveSystem;

constexpr int kSetupReps = 31;
constexpr std::size_t kNodes = 4;

/// Everything the per-layer metrics difference between two instants.
struct Counters {
  std::uint64_t invocations = 0;
  std::uint64_t remote = 0;
  std::uint64_t migrations = 0;
  std::uint64_t refused = 0;
  std::uint64_t retries = 0;
  std::uint64_t dir_lookups = 0;
  std::uint64_t dir_hits = 0;
  std::uint64_t dir_stale = 0;
  std::uint64_t dir_hops = 0;
  std::uint64_t dir_updates = 0;
  omig::obs::Snapshot registry;
  rusage usage{};

  static Counters read(const LiveSystem& system) {
    Counters c;
    c.invocations = system.invocations();
    c.remote = system.remote_invocations();
    c.migrations = system.migrations();
    c.refused = system.refused_moves();
    c.retries = system.retries();
    c.dir_lookups = system.dir_lookups();
    c.dir_hits = system.dir_cache_hits();
    c.dir_stale = system.dir_stale_hits();
    c.dir_hops = system.dir_forward_hops();
    c.dir_updates = system.dir_updates();
    c.registry = omig::obs::MetricsRegistry::global().snapshot();
    getrusage(RUSAGE_SELF, &c.usage);
    return c;
  }

  /// Sum of every series of registry family `name`.
  [[nodiscard]] std::uint64_t family(const std::string& name) const {
    std::uint64_t total = 0;
    for (auto it = registry.lower_bound(name);
         it != registry.end() && it->first.compare(0, name.size(), name) == 0;
         ++it) {
      if (it->first.size() == name.size() || it->first[name.size()] == '{') {
        total += it->second;
      }
    }
    return total;
  }
};

/// One caller's closed loop: issues one burst per call.
class Caller {
public:
  virtual ~Caller() = default;
  virtual void burst(LiveSystem& system, Lane& lane) = 0;
};

/// Replays a share of a scenario's sources round-robin.
class ScenarioCaller final : public Caller {
public:
  ScenarioCaller(const omig::scenario::Scenario& scenario,
                 std::vector<std::size_t> sources, std::uint64_t seed)
      : population_(&scenario.population()) {
    for (const std::size_t s : sources) {
      streams_.emplace_back(scenario, s, seed, kNodes);
    }
  }

  void burst(LiveSystem& system, Lane& lane) override {
    SourceStream& stream = streams_[next_++ % streams_.size()];
    const omig::scenario::Burst& burst = stream.next();
    run_burst(system, *population_, burst, stream.origin(), lane);
  }

private:
  const omig::scenario::Population* population_;
  std::vector<SourceStream> streams_;
  std::size_t next_ = 0;
};

/// Owns one counter and moves it one node on per burst: move, add, get
/// (checked against the caller's own count), end.
class DurableCaller final : public Caller {
public:
  DurableCaller(std::string object, std::size_t home)
      : object_(std::move(object)), node_(home) {}

  void burst(LiveSystem& system, Lane& lane) override {
    const std::uint64_t root = lane.tracing ? lane.next_id() : 0;
    const std::size_t dest = (node_ + 1) % kNodes;
    const auto burst_start = Clock::now();
    LiveSystem::MoveToken token = system.move(object_, dest);
    const auto moved = Clock::now();
    lane.span(SpanKind::Move, root, burst_start, moved);
    ++lane.blocks;
    if (token.granted) {
      node_ = dest;
    } else {
      ++lane.refused;
      ++lane.failures;  // callers never conflict, so a refusal is a bug
    }
    invoke(system, lane, root, "add", "1");
    const omig::runtime::InvokeResult got =
        invoke(system, lane, root, "get", "");
    if (got.ok && got.value != std::to_string(count_)) ++lane.failures;
    const auto t0 = Clock::now();
    system.end(token);
    const auto burst_end = Clock::now();
    lane.span(SpanKind::End, root, t0, burst_end);
    lane.record_burst(burst_start, burst_end);
    lane.span(SpanKind::Burst, 0, burst_start, burst_end, root);
  }

  [[nodiscard]] const std::string& object() const { return object_; }
  /// Node of the last acked move.
  [[nodiscard]] std::size_t node() const { return node_; }

private:
  omig::runtime::InvokeResult invoke(LiveSystem& system, Lane& lane,
                                     std::uint64_t root, const char* method,
                                     const char* argument) {
    const auto t0 = Clock::now();
    omig::runtime::InvokeResult result =
        system.invoke_from(node_, object_, method, argument);
    const auto t1 = Clock::now();
    lane.record_invoke(t0, t1);
    lane.span(SpanKind::Invoke, root, t0, t1);
    ++lane.invokes;
    if (!result.ok) {
      ++lane.failures;
    } else if (std::string_view(method) == "add") {
      ++lane.adds;
      ++count_;
    }
    return result;
  }

  std::string object_;
  std::size_t node_;
  std::uint64_t count_ = 0;
};

/// A workload's fixed description: system options and population.
struct Workload {
  LiveSystem::Options options;
  std::unique_ptr<omig::scenario::Scenario> scenario;  ///< null: durable
  std::vector<std::string> objects;
  std::vector<std::size_t> homes;
  std::filesystem::path data_root;  ///< durable-move only
};

Workload make_workload(const RunOptions& run) {
  Workload w;
  w.options.nodes = kNodes;
  if (run.workload == "social-visit") {
    w.scenario = omig::scenario::make_scenario(scenario_options("social"));
  } else if (run.workload == "cache-rpc") {
    w.scenario = omig::scenario::make_scenario(scenario_options("cache"));
    w.options.transport = omig::runtime::TransportKind::AsyncTcp;
    w.options.directory = omig::objsys::DirectoryKind::Sharded;
    w.options.dir_strategy = omig::objsys::ConsistencyStrategy::LazyForward;
  } else {
    OMIG_REQUIRE(run.workload == "durable-move", "unknown live workload");
    w.data_root = run.out / "data" / run.workload;
    for (unsigned t = 0; t < run.threads; ++t) {
      w.objects.push_back("acct-" + std::to_string(t));
      w.homes.push_back(t % kNodes);
    }
  }
  if (w.scenario) {
    for (const auto& spec : w.scenario->population().objects) {
      w.objects.push_back(spec.name);
      w.homes.push_back(spec.home % kNodes);
    }
  }
  return w;
}

/// Construct, start, materialise the population and its attachments.
std::unique_ptr<LiveSystem> build(const Workload& w, int rep) {
  LiveSystem::Options options = w.options;
  if (!w.data_root.empty()) {
    options.data_dir = (w.data_root / ("rep" + std::to_string(rep))).string();
  }
  auto system = std::make_unique<LiveSystem>(options);
  omig::runtime::register_demo_types(*system);
  system->start();
  for (std::size_t i = 0; i < w.objects.size(); ++i) {
    const bool created = system->create(
        w.objects[i], omig::runtime::make_state("counter", {{"count", "0"}}),
        w.homes[i]);
    OMIG_REQUIRE(created, "benchmark object could not be created");
  }
  if (w.scenario) {
    const auto& pop = w.scenario->population();
    for (const auto& edge : pop.attachments) {
      system->attach(pop.objects[edge.a].name, pop.objects[edge.b].name,
                     edge.alliance != omig::scenario::kNone
                         ? pop.alliances[edge.alliance]
                         : "");
    }
  }
  return system;
}

struct Phase {
  std::vector<Lane> lanes;
  double wall_s = 0.0;
  Counters before;
  Counters after;
  double window_s = 0.0;
  double rate = 0.0;  ///< median window's bursts per second

  [[nodiscard]] std::uint64_t sum(std::uint64_t Lane::*field) const {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes) total += lane.*field;
    return total;
  }
  [[nodiscard]] std::vector<double> span_us(
      std::initializer_list<SpanKind> kinds) const {
    std::vector<double> all;
    for (const Lane& lane : lanes) {
      for (const Span& s : lane.spans) {
        if (std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
          all.push_back(s.us());
        }
      }
    }
    return all;
  }
};

/// Runs every caller in its own thread until `seconds` have passed.
Phase run_phase(LiveSystem& system,
                std::vector<std::unique_ptr<Caller>>& callers, double seconds,
                bool tracing, Clock::time_point epoch) {
  Phase phase;
  phase.lanes.resize(callers.size());
  for (std::size_t i = 0; i < callers.size(); ++i) {
    phase.lanes[i].index = static_cast<std::uint32_t>(i);
    phase.lanes[i].tracing = tracing;
    phase.lanes[i].epoch = epoch;
  }
  phase.before = Counters::read(system);
  std::mutex error_mutex;
  std::string error;
  const auto start = Clock::now();
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto deadline = start + length;
  for (Lane& lane : phase.lanes) lane.start_windows(start, length);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < callers.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          while (Clock::now() < deadline) {
            callers[i]->burst(system, phase.lanes[i]);
          }
        } catch (const std::exception& e) {
          ++phase.lanes[i].failures;
          const std::lock_guard<std::mutex> lock(error_mutex);
          error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  phase.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  phase.after = Counters::read(system);
  OMIG_REQUIRE(error.empty(), "caller thread failed: " + error);
  phase.window_s = seconds / kWindows;
  phase.rate = median_rate(merge_windows(phase.lanes, &Lane::burst_us),
                           phase.window_s);
  return phase;
}

void end_to_end(Result& r, const Phase& p, std::vector<double>& setup_s) {
  // The plain median of an odd count of set-ups is one of the samples.
  std::sort(setup_s.begin(), setup_s.end());
  r.set("setup_s", setup_s[setup_s.size() / 2], "s");
  const auto bursts = static_cast<double>(p.sum(&Lane::bursts));
  r.set("bursts_per_s", p.rate, "1/s");
  const Windows burst_us = merge_windows(p.lanes, &Lane::burst_us);
  // Each window's rate, so that a slow run shows whether the host slowed
  // it throughout or for a few windows.
  for (std::size_t w = 0; w < burst_us.size(); ++w) {
    r.detail["bursts_per_s.window" + std::to_string(w)] =
        static_cast<double>(burst_us[w].seen) / p.window_s;
  }
  r.set_quantile("burst_p50_us", burst_us, 0.50, "us");
  r.set_quantile("burst_p99_us", burst_us, 0.99, "us");
  r.set_quantile("invoke_p50_us", merge_windows(p.lanes, &Lane::invoke_us),
                 0.50, "us");
  r.detail["bursts"] = bursts;
  r.detail["invokes"] = static_cast<double>(p.sum(&Lane::invokes));
  r.detail["measured_s"] = p.wall_s;
}

/// Counter-derived layer metrics come from the untraced part `a`, span-
/// derived ones from the traced part `b`.
void layer_metrics(Result& r, const Phase& a, const Phase& b) {
  const Counters& c0 = a.before;
  const Counters& c1 = a.after;
  const auto d = [&](std::uint64_t Counters::*f) {
    return static_cast<double>(c1.*f - c0.*f);
  };
  const auto fam = [&](const char* name) {
    return static_cast<double>(c1.family(name) - c0.family(name));
  };
  const auto bursts = static_cast<double>(a.sum(&Lane::bursts));
  const auto invokes = static_cast<double>(a.sum(&Lane::invokes));
  const auto blocks = static_cast<double>(a.sum(&Lane::blocks));
  const double migrations = d(&Counters::migrations);

  r.set("runtime.migrations_per_burst", ratio(migrations, bursts), "count");
  r.set("runtime.refusal_ratio", ratio(d(&Counters::refused), blocks),
        "ratio");
  r.set("runtime.remote_ratio",
        ratio(d(&Counters::remote), d(&Counters::invocations)), "ratio");
  r.set("runtime.retries", d(&Counters::retries), "count");
  r.set("transport.frames_per_op",
        ratio(fam("omig_transport_frames_out_total") +
                  fam("omig_transport_frames_in_total"),
              invokes),
        "count");
  r.set("transport.bytes_per_op",
        ratio(fam("omig_transport_frame_bytes_out_total") +
                  fam("omig_transport_frame_bytes_in_total"),
              invokes),
        "B");
  r.set("node.messages_per_op", ratio(fam("omig_node_messages_total"), invokes),
        "count");
  r.set("node.dedup_hits", fam("omig_node_dedup_hits_total"), "count");
  const double lookups = d(&Counters::dir_lookups);
  const double stale = d(&Counters::dir_stale);
  r.set("objsys.dir_lookups_per_invoke", ratio(lookups, invokes), "count");
  r.set("objsys.dir_cache_hit_ratio", ratio(d(&Counters::dir_hits), lookups),
        "ratio");
  r.set("objsys.dir_stale_ratio", ratio(stale, lookups), "ratio");
  r.set("objsys.dir_forward_hops_per_stale",
        ratio(d(&Counters::dir_hops), stale), "count");
  r.set("objsys.dir_updates_per_migration",
        ratio(d(&Counters::dir_updates), migrations), "count");
  r.set("store.appends_per_migration",
        ratio(fam("omig_store_wal_appends_total"), migrations), "count");
  r.set("store.fsyncs_per_migration",
        ratio(fam("omig_store_wal_fsyncs_total"), migrations), "count");
  r.set("store.wal_bytes_per_migration",
        ratio(fam("omig_store_wal_bytes_total"), migrations), "B");
  r.set("store.snapshot_installs_per_1k",
        1000.0 * ratio(fam("omig_store_snapshot_installs_total"), migrations),
        "count");
  r.set("proc.cpu_us_per_burst",
        ratio(cpu_us(c1.usage) - cpu_us(c0.usage), bursts), "us");
  r.set("proc.ctx_switches_per_op",
        ratio(ctx_switches(c1.usage) - ctx_switches(c0.usage), invokes),
        "count");

  // Span-derived, from the traced half.
  std::vector<double> move_us = b.span_us({SpanKind::Move, SpanKind::Visit});
  std::vector<double> end_us = b.span_us({SpanKind::End});
  std::vector<double> invoke_us = b.span_us({SpanKind::Invoke});
  std::vector<double> burst_us = b.span_us({SpanKind::Burst});
  double block_us = 0.0;
  for (const double v : move_us) block_us += v;
  for (const double v : end_us) block_us += v;
  double child_us = block_us;
  for (const double v : invoke_us) child_us += v;
  double root_us = 0.0;
  for (const double v : burst_us) root_us += v;
  r.set("runtime.us_per_migration",
        ratio(block_us, static_cast<double>(b.after.migrations -
                                            b.before.migrations)),
        "us");
  r.set("runtime.span_coverage", ratio(child_us, root_us), "ratio");
  r.check("span_coverage", ratio(child_us, root_us) >= 0.9);
  r.set_quantile("runtime.move_us.p50", as_window(move_us), 0.50, "us");
  r.set_quantile("runtime.move_us.p99", as_window(move_us), 0.99, "us");
  r.set_quantile("runtime.end_us.p50", as_window(end_us), 0.50, "us");
  r.set_quantile("runtime.end_us.p99", as_window(end_us), 0.99, "us");
  r.set_quantile("runtime.invoke_us.p50", as_window(invoke_us), 0.50, "us");
  r.set_quantile("runtime.invoke_us.p99", as_window(invoke_us), 0.99, "us");

  const double rate_a = a.rate;
  const double rate_b = b.rate;
  r.set("trace_overhead_pct", 100.0 * ratio(rate_a - rate_b, rate_a), "%");
  r.detail["untraced_bursts_per_s"] = rate_a;
  r.detail["traced_bursts_per_s"] = rate_b;
  r.detail["spans"] = static_cast<double>(b.span_us({SpanKind::Burst}).size() +
                                          move_us.size() + end_us.size() +
                                          invoke_us.size());
}

}  // namespace

Result run_live(const RunOptions& run) {
  Workload w = make_workload(run);
  std::error_code ignored;
  if (!w.data_root.empty()) std::filesystem::remove_all(w.data_root, ignored);

  // Set-up, repeated; the last system built is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<LiveSystem> system;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    system.reset();
    const auto t0 = Clock::now();
    system = build(w, rep);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  std::vector<std::unique_ptr<Caller>> callers;
  std::vector<DurableCaller*> durable;
  for (unsigned t = 0; t < run.threads; ++t) {
    if (w.scenario) {
      std::vector<std::size_t> sources;
      for (std::size_t s = t; s < w.scenario->sources(); s += run.threads) {
        sources.push_back(s);
      }
      callers.push_back(std::make_unique<ScenarioCaller>(
          *w.scenario, std::move(sources), run.seed));
    } else {
      auto caller = std::make_unique<DurableCaller>(w.objects[t], w.homes[t]);
      durable.push_back(caller.get());
      callers.push_back(std::move(caller));
    }
  }

  Result r;
  const auto epoch = Clock::now();
  std::vector<Phase> phases;
  // Warm-up: caches fill and lazy connections open before timing.
  phases.push_back(run_phase(*system, callers,
                             std::min(1.0, 0.1 * run.seconds), false, epoch));
  if (!run.trace) {
    phases.push_back(run_phase(*system, callers, run.seconds, false, epoch));
    end_to_end(r, phases.back(), setup_s);
  } else {
    const double traced_s = std::min(run.seconds / 2, kMaxTracedSeconds);
    phases.push_back(
        run_phase(*system, callers, run.seconds - traced_s, false, epoch));
    phases.push_back(run_phase(*system, callers, traced_s, true, epoch));
    layer_metrics(r, phases[1], phases[2]);
  }

  // --- correctness ---------------------------------------------------------
  std::uint64_t adds = 0;
  for (const Phase& p : phases) {
    adds += p.sum(&Lane::adds);
    r.ops += p.sum(&Lane::invokes) + p.sum(&Lane::blocks);
    r.failed_ops += p.sum(&Lane::failures);
  }
  r.check("no_retries", system->retries() == 0);
  std::uint64_t total = 0;
  for (const std::string& name : w.objects) {
    const std::optional<std::size_t> host = system->location(name);
    bool local = false;
    if (host) {
      const std::uint64_t remote_before = system->remote_invocations();
      const omig::runtime::InvokeResult got =
          system->invoke_from(*host, name, "get", "");
      local = got.ok && system->remote_invocations() == remote_before;
      if (got.ok) total += std::stoull(got.value);
    }
    r.check("single_host", local);
  }
  r.check("counters_conserved", total == adds);
  r.detail["adds"] = static_cast<double>(adds);

  // The probes' object state: a counter as this run left it.
  omig::runtime::ObjectState state{"counter",
                                   {{"count", std::to_string(adds)}}};
  const std::string probe_object = w.objects.front();
  system->stop();
  if (!durable.empty()) {
    // A fresh store on the measured system's data dir must place every
    // object on the node of its last acked move.
    omig::store::DurableStore reopened;
    omig::store::DurableStore::OpenOptions open;
    open.dir =
        (w.data_root / ("rep" + std::to_string(kSetupReps - 1))).string();
    open.create_if_missing = false;
    const bool opened = reopened.open(open);
    const auto view = reopened.view();
    for (const DurableCaller* caller : durable) {
      const auto it = view.find(caller->object());
      r.check("durable_location", opened && it != view.end() &&
                                      it->second.node == caller->node());
    }
  }
  system.reset();

  if (run.trace) {
    std::vector<Lane> lanes = std::move(phases.back().lanes);
    if (run.probes) run_probes(run, state, probe_object, r, lanes);
    const auto path = run.out / ("spans-" + run.workload + ".json");
    r.check("spans_written", write_spans(path, lanes));
    r.notes.push_back("spans: " + path.string());
  }
  if (!w.data_root.empty()) std::filesystem::remove_all(w.data_root, ignored);
  return r;
}

}  // namespace perfbench
