// Microbenchmarks for the adaptive placement machinery (google-benchmark):
// the locality tracker's record()/estimate() hot path in isolation, and
// the end-to-end per-block cost of a full experiment. Two distinct ratios:
//   Sedentary vs SedentaryTracked — identical simulation, tracker attached
//     but unconsumed: the pure bookkeeping overhead. Budget <5% on
//     BM_ExperimentBlocks, matching the PR 4 instrumentation discipline
//     (docs/metrics.md's cost table). docs/REPRODUCING.md measures it in
//     interleaved runs; docs/policies.md reports the result.
//   Sedentary vs Adaptive/AdaptiveLoad — a *behavioral* delta (the policy
//     actually migrates objects); informational, not an overhead number.
#include <benchmark/benchmark.h>

#include "core/presets.hpp"
#include "objsys/locality.hpp"

namespace {

using namespace omig;

void BM_LocalityRecord(benchmark::State& state) {
  // Steady-state record() cost: a working set of objects, callers striding
  // over the node set so every caller slot stays warm. O(1) per call by
  // contract (objsys/locality.hpp) — this pins the constant.
  const std::uint32_t objects = static_cast<std::uint32_t>(state.range(0));
  objsys::LocalityTracker tracker{8};
  std::uint32_t i = 0;
  for (auto _ : state) {
    tracker.record(objsys::ObjectId{i % objects},
                   objsys::NodeId{(i * 5) % 8});
    ++i;
  }
  benchmark::DoNotOptimize(tracker.updates());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityRecord)->Arg(1)->Arg(64)->Arg(4096);

void BM_LocalityEstimate(benchmark::State& state) {
  // The decision-point read: one estimate() per simulated move().
  objsys::LocalityTracker tracker{8};
  for (std::uint32_t i = 0; i < 64 * 16; ++i) {
    tracker.record(objsys::ObjectId{i % 64}, objsys::NodeId{(i * 5) % 8});
  }
  std::uint32_t i = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += tracker.estimate(objsys::ObjectId{i % 64},
                            objsys::NodeId{i % 8})
               .share;
    ++i;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityEstimate);

void run_blocks(benchmark::State& state, migration::PolicyKind kind,
                bool track_locality = false) {
  // Same shape as bench_kernel_throughput's BM_ExperimentBlocks: 500
  // Figure-9 move-blocks end to end.
  for (auto _ : state) {
    auto cfg = core::fig8_config(30.0, kind);
    cfg.track_locality = track_locality;
    cfg.stopping.min_observations = 500;
    cfg.stopping.max_observations = 500;
    cfg.stopping.relative_target = 1.0;
    const auto r = core::run_experiment(cfg);
    benchmark::DoNotOptimize(r.total_per_call);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}

void BM_ExperimentBlocksSedentary(benchmark::State& state) {
  run_blocks(state, migration::PolicyKind::Sedentary);
}
BENCHMARK(BM_ExperimentBlocksSedentary)->Unit(benchmark::kMillisecond);

void BM_ExperimentBlocksSedentaryTracked(benchmark::State& state) {
  // The <5% budget pair: identical simulation (the tracker is RNG-free and
  // nothing consumes it under Sedentary), so the delta vs the untracked
  // run above is purely the per-invocation record() bookkeeping.
  run_blocks(state, migration::PolicyKind::Sedentary,
             /*track_locality=*/true);
}
BENCHMARK(BM_ExperimentBlocksSedentaryTracked)->Unit(benchmark::kMillisecond);

void BM_ExperimentBlocksAdaptive(benchmark::State& state) {
  run_blocks(state, migration::PolicyKind::Adaptive);
}
BENCHMARK(BM_ExperimentBlocksAdaptive)->Unit(benchmark::kMillisecond);

void BM_ExperimentBlocksAdaptiveLoad(benchmark::State& state) {
  run_blocks(state, migration::PolicyKind::AdaptiveLoad);
}
BENCHMARK(BM_ExperimentBlocksAdaptiveLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
