// sim-fig16: the paper's Figure 16 grid on the simulator, swept
// repeatedly for the run's budget.
#include <algorithm>
#include <array>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

using omig::migration::AttachTransitivity;
using omig::migration::PolicyKind;

constexpr int kSetupReps = 11;
/// Simulated blocks per grid point (the CI stopping rule is off).
constexpr std::uint64_t kBlocksPerPoint = 2000;
constexpr std::array<int, 6> kClients = {2, 4, 6, 8, 10, 12};

/// Per-point seed: the command-line seed hashed with the point's label.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = seed;
  for (const char c : salt) {
    h = omig::sim::SplitMix64{h ^ static_cast<unsigned char>(c)}.next();
  }
  return h;
}

struct Point {
  PolicyKind policy;
  AttachTransitivity transitivity;
  int clients;
  std::string label;
  omig::core::ExperimentConfig config;
};

omig::core::ExperimentConfig point_config(const Point& p, std::uint64_t seed,
                                          std::uint64_t blocks) {
  omig::core::ExperimentConfig cfg =
      omig::core::fig16_config(p.clients, p.policy, p.transitivity);
  cfg.stopping.relative_target = -1.0;  // never met: run the fixed count
  cfg.stopping.min_observations = blocks;
  cfg.stopping.max_observations = blocks;
  cfg.seed = derive_seed(seed, p.label);
  return cfg;
}

std::vector<Point> grid(std::uint64_t seed) {
  std::vector<Point> points;
  for (const PolicyKind policy :
       {PolicyKind::Placement, PolicyKind::Conventional}) {
    for (const AttachTransitivity trans :
         {AttachTransitivity::Unrestricted, AttachTransitivity::ATransitive}) {
      for (const int clients : kClients) {
        Point p{policy, trans, clients, "", {}};
        p.label = std::string(policy == PolicyKind::Placement
                                  ? "placement"
                                  : "conventional") +
                  (trans == AttachTransitivity::ATransitive ? "+A-transitive"
                                                            : "+unrestricted") +
                  "/c" + std::to_string(clients);
        p.config = point_config(p, seed, kBlocksPerPoint);
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

/// The exact counts a point must repeat on every sweep.
struct Counts {
  std::uint64_t blocks = 0;
  std::uint64_t calls = 0;
  std::uint64_t migrations = 0;
  std::uint64_t transfers = 0;
  std::uint64_t remote_calls = 0;
  std::uint64_t events = 0;
  double total_per_call = 0.0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts counts_of(const omig::core::ExperimentResult& r) {
  return Counts{r.blocks,       r.calls,  r.migrations,    r.transfers,
                r.remote_calls, r.events, r.total_per_call};
}

/// What one timed pass of the sweepers produced.
struct Sweep {
  std::vector<Lane> lanes;
  std::uint64_t points = 0;
  std::uint64_t mismatches = 0;  ///< points whose counts differed
  double wall_s = 0.0;
  double rate = 0.0;  ///< median window's points per second
  Windows point_us;   ///< wall time per grid point
  Windows call_us;    ///< point wall time / simulated calls
  rusage before{};
  rusage after{};
};

}  // namespace

Result run_sim(const RunOptions& run) {
  Result r;
  const std::vector<Point> points = grid(run.seed);
  const std::size_t n = points.size();
  const std::size_t threads = run.threads;

  // Runs `body(t)` on each sweeper thread, joins them, and rethrows the
  // first exception a sweeper raised.
  auto parallel = [&](const auto& body) {
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          body(t);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  };

  // Set-up: engine construction, population spawn and warm-up of every
  // grid point, each capped at one block, shared among the sweepers.
  std::vector<omig::core::ExperimentConfig> setup_cfgs;
  for (const Point& p : points) {
    setup_cfgs.push_back(point_config(p, run.seed, 1));
  }
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t t) {
      for (std::size_t i = t; i < n; i += threads) {
        (void)omig::core::run_experiment(setup_cfgs[i]);
      }
    });
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(setup_s.begin(), setup_s.end());

  // Reference pass, which doubles as the warm-up: every point once. Its
  // exact counts are what every later run of the point must repeat.
  std::vector<Counts> reference(n);
  parallel([&](std::size_t t) {
    for (std::size_t i = t; i < n; i += threads) {
      reference[i] = counts_of(omig::core::run_experiment(points[i].config));
    }
  });
  Counts grid_sum;
  for (const Counts& c : reference) {
    r.check("sim_blocks_fixed", c.blocks == kBlocksPerPoint);
    grid_sum.blocks += c.blocks;
    grid_sum.migrations += c.migrations;
    grid_sum.transfers += c.transfers;
    grid_sum.remote_calls += c.remote_calls;
    grid_sum.events += c.events;
  }
  r.ops += n;
  auto at_max = [&](PolicyKind policy, AttachTransitivity trans) {
    for (std::size_t i = 0; i < n; ++i) {
      if (points[i].policy == policy && points[i].transitivity == trans &&
          points[i].clients == kClients.back()) {
        return reference[i].total_per_call;
      }
    }
    return 0.0;
  };
  for (const PolicyKind policy :
       {PolicyKind::Placement, PolicyKind::Conventional}) {
    r.check("claim_a_transitive_beats_unrestricted",
            at_max(policy, AttachTransitivity::ATransitive) <
                at_max(policy, AttachTransitivity::Unrestricted));
  }
  for (const AttachTransitivity trans :
       {AttachTransitivity::Unrestricted, AttachTransitivity::ATransitive}) {
    r.check("claim_placement_beats_conventional",
            at_max(PolicyKind::Placement, trans) <
                at_max(PolicyKind::Conventional, trans));
  }

  // Each sweeper walks the grid in order from its own offset, so the
  // sweepers run different points at any moment; cursors persist across
  // passes.
  std::vector<std::size_t> cursor(threads);
  for (std::size_t t = 0; t < threads; ++t) cursor[t] = t * n / threads;
  const Clock::time_point epoch = Clock::now();
  auto sweep = [&](double seconds, bool tracing) {
    Sweep s;
    s.lanes.resize(threads);
    std::vector<std::uint64_t> mismatches(threads, 0);
    getrusage(RUSAGE_SELF, &s.before);
    const auto start = Clock::now();
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const auto deadline = start + length;
    for (std::size_t t = 0; t < threads; ++t) {
      Lane& lane = s.lanes[t];
      lane.index = static_cast<std::uint32_t>(t);
      lane.tracing = tracing;
      lane.epoch = epoch;
      lane.start_windows(start, length);
    }
    parallel([&](std::size_t t) {
      Lane& lane = s.lanes[t];
      while (Clock::now() < deadline) {
        const std::size_t i = cursor[t]++ % n;
        const auto t0 = Clock::now();
        const Counts c =
            counts_of(omig::core::run_experiment(points[i].config));
        const auto t1 = Clock::now();
        lane.span(SpanKind::SimPoint, 0, t0, t1);
        lane.record_burst(t0, t1);
        lane.record(lane.invoke_us, t1,
                    ratio(static_cast<double>(ns_between(t0, t1)) / 1e3,
                          static_cast<double>(c.calls)));
        if (!(c == reference[i])) ++mismatches[t];
      }
    });
    s.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    getrusage(RUSAGE_SELF, &s.after);
    for (std::size_t t = 0; t < threads; ++t) {
      s.points += s.lanes[t].bursts;
      s.mismatches += mismatches[t];
    }
    s.point_us = merge_windows(s.lanes, &Lane::burst_us);
    s.call_us = merge_windows(s.lanes, &Lane::invoke_us);
    s.rate = median_rate(s.point_us, seconds / kWindows);
    r.ops += s.points;
    auto& [repeated, mismatched] = r.checks["sim_counts_repeat"];
    repeated += s.points;
    mismatched += s.mismatches;
    return s;
  };

  if (!run.trace) {
    Sweep s = sweep(run.seconds, false);
    r.set("setup_s", setup_s[setup_s.size() / 2], "s");
    r.set("bursts_per_s", s.rate, "1/s");
    r.set_quantile("burst_p50_us", s.point_us, 0.50, "us");
    r.set_quantile("burst_p99_us", s.point_us, 0.99, "us");
    r.set_quantile("invoke_p50_us", s.call_us, 0.50, "us");
    r.detail["sim_blocks_per_s"] =
        s.rate * static_cast<double>(kBlocksPerPoint);
    r.detail["bursts"] = static_cast<double>(s.points);
    r.detail["measured_s"] = s.wall_s;
  } else {
    const double traced_s = std::min(run.seconds / 2, kMaxTracedSeconds);
    Sweep a = sweep(run.seconds - traced_s, false);
    Sweep b = sweep(traced_s, true);
    // Exact per-block counts of one grid; rates from the untraced half.
    const auto blocks = static_cast<double>(grid_sum.blocks);
    r.set("sim.events_per_block",
          ratio(static_cast<double>(grid_sum.events), blocks), "count");
    r.set("migration.migrations_per_block",
          ratio(static_cast<double>(grid_sum.migrations), blocks), "count");
    r.set("migration.transfers_per_block",
          ratio(static_cast<double>(grid_sum.transfers), blocks), "count");
    r.set("sim.remote_calls_per_block",
          ratio(static_cast<double>(grid_sum.remote_calls), blocks), "count");
    const double points_a = static_cast<double>(a.points);
    r.set("sim.blocks_per_s", a.rate * static_cast<double>(kBlocksPerPoint),
          "1/s");
    r.set("sim.events_per_s",
          a.rate * static_cast<double>(grid_sum.events) /
              static_cast<double>(n),
          "1/s");
    r.set("proc.cpu_us_per_burst",
          ratio(cpu_us(a.after) - cpu_us(a.before), points_a), "us");
    r.set("proc.ctx_switches_per_op",
          ratio(ctx_switches(a.after) - ctx_switches(a.before), points_a),
          "count");
    r.set("trace_overhead_pct", 100.0 * ratio(a.rate - b.rate, a.rate), "%");
    r.detail["untraced_points_per_s"] = a.rate;
    r.detail["traced_points_per_s"] = b.rate;
    const auto path = run.out / ("spans-" + run.workload + ".json");
    r.check("spans_written", write_spans(path, b.lanes));
    r.notes.push_back("spans: " + path.string());
  }
  return r;
}

}  // namespace perfbench
