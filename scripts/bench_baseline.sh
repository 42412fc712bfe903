#!/usr/bin/env bash
# Records the simulation-kernel perf trajectory into BENCH_kernel.json.
#
# Builds a Release tree and runs the kernel microbench suite
# (bench_kernel_throughput, google-benchmark: 3 repetitions, medians) plus
# two representative figure benches (fig 8 usage-frequency and fig 11
# migration-load, wall-clock medians of 3 runs at a fixed reduced
# resolution). Results are merged into BENCH_kernel.json under the given
# label, so running it once per kernel revision accumulates the before/after
# trajectory:
#
#   scripts/bench_baseline.sh --label before   # on the old kernel
#   scripts/bench_baseline.sh --label after    # on the new kernel
#
# When both labels are present the script also computes the headline
# speedup (raw kernel event-dispatch throughput, after/before).
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL=after
OUT=BENCH_kernel.json
MIN_TIME=0.5
MODE=kernel
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label) LABEL="$2"; shift 2 ;;
    --output) OUT="$2"; shift 2 ;;
    --min-time) MIN_TIME="$2"; shift 2 ;;
    --store) MODE=store; shift ;;
    --directory) MODE=directory; shift ;;
    --scenario) MODE=scenario; shift ;;
    --policy) MODE=policy; shift ;;
    *) echo "usage: $0 [--label NAME] [--output FILE] [--min-time SECS]" >&2
       echo "          [--store]      # bench the durable store into BENCH_store.json" >&2
       echo "          [--directory]  # bench directory lookups into BENCH_directory.json" >&2
       echo "          [--scenario]   # bench the scenario pack into BENCH_scenario.json" >&2
       echo "          [--policy]     # bench adaptive placement into BENCH_policy.json" >&2
       exit 2 ;;
  esac
done

BUILD_DIR=build-bench

# --scenario: record scenario-pack live-runtime throughput (issued ops/sec
# and per-op p50/p99 in microseconds, per scenario in the zoo) into
# BENCH_scenario.json. Medians of 3 runs per scenario.
if [[ "$MODE" == scenario ]]; then
  [[ "$OUT" == BENCH_kernel.json ]] && OUT=BENCH_scenario.json
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_scenario >/dev/null
  SCEN_JSON=$(mktemp)
  for rep in 1 2 3; do
    "$BUILD_DIR/bench/bench_scenario" >>"$SCEN_JSON"
  done
  GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  LABEL="$LABEL" OUT="$OUT" SCEN_JSON="$SCEN_JSON" GIT_REV="$GIT_REV" \
  python3 - <<'PY'
import json, os, statistics

# Three concatenated JSON documents (one per repetition): decode them in
# sequence, then take the per-scenario median of each measure.
reps, decoder, text, pos = [], json.JSONDecoder(), open(os.environ["SCEN_JSON"]).read(), 0
while pos < len(text):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    reps.append(doc)

series = {}
for doc in reps:
    for row in doc["results"]:
        entry = series.setdefault(row["scenario"], {
            "issued_ops": [], "wall_ms": [], "ops_per_sec": [],
            "op_p50_us": [], "op_p99_us": [],
            "bursts": row["bursts"], "moves": row["moves"],
            "visits": row["visits"],
        })
        for key in ("issued_ops", "wall_ms", "ops_per_sec",
                    "op_p50_us", "op_p99_us"):
            entry[key].append(row[key])

results = [
    {
        "scenario": scenario,
        "issued_ops": statistics.median(entry["issued_ops"]),
        "bursts": entry["bursts"],
        "moves": entry["moves"],
        "visits": entry["visits"],
        "wall_ms": statistics.median(entry["wall_ms"]),
        "ops_per_sec": statistics.median(entry["ops_per_sec"]),
        "op_p50_us": statistics.median(entry["op_p50_us"]),
        "op_p99_us": statistics.median(entry["op_p99_us"]),
    }
    for scenario, entry in sorted(series.items())
]

out = os.environ["OUT"]
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc.setdefault("bench", "scenario-pack")
doc.setdefault("recipe", {
    "build": "Release",
    "scenario": "bench_scenario (in-process LiveSystem, 4 nodes, 8 sources "
                "x 200 bursts, 4 worker threads; medians of 3 runs)",
    "headline": "issued ops/sec per scenario on the live runtime",
})
doc.setdefault("runs", {})[os.environ["LABEL"]] = {
    "git": os.environ["GIT_REV"],
    "nproc": os.cpu_count(),
    "scenarios": results,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} [{os.environ['LABEL']}]")
PY
  rm -f "$SCEN_JSON"
  exit 0
fi

# --policy: record the adaptive-placement cost picture into
# BENCH_policy.json — the locality tracker's isolated record()/estimate()
# hot path, the Sedentary-vs-SedentaryTracked BM_ExperimentBlocks pair
# (identical simulation, tracker attached but unconsumed: the pure
# bookkeeping overhead, budget <5%, docs/policies.md), and the
# Sedentary-vs-Adaptive behavioral delta for context.
if [[ "$MODE" == policy ]]; then
  [[ "$OUT" == BENCH_kernel.json ]] && OUT=BENCH_policy.json
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_policy >/dev/null
  POLICY_JSON=$(mktemp)
  "$BUILD_DIR/bench/bench_policy" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json >"$POLICY_JSON" 2>/dev/null
  GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  LABEL="$LABEL" OUT="$OUT" POLICY_JSON="$POLICY_JSON" GIT_REV="$GIT_REV" \
  python3 - <<'PY'
import json, os

with open(os.environ["POLICY_JSON"]) as f:
    raw = json.load(f)
scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
bench = {}
for b in raw["benchmarks"]:
    if b["name"].endswith("_median"):
        name = b["name"][: -len("_median")]
        entry = {"real_time_ns": b["real_time"] * scale[b["time_unit"]]}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        bench[name] = entry

out = os.environ["OUT"]
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc.setdefault("bench", "adaptive-placement")
doc.setdefault("recipe", {
    "build": "Release",
    "policy": "bench_policy --benchmark_min_time=<min-time> "
              "--benchmark_repetitions=3 (medians)",
    "headline": "BM_ExperimentBlocksSedentaryTracked / "
                "BM_ExperimentBlocksSedentary real_time ratio - 1 "
                "(pure locality-tracker bookkeeping per block; budget <5%, "
                "docs/policies.md). adaptive_policy_delta_pct is the "
                "behavioral Sedentary-vs-Adaptive delta, for context.",
})
run = {
    "git": os.environ["GIT_REV"],
    "nproc": os.cpu_count(),
    "policy": bench,
}
sed = bench.get("BM_ExperimentBlocksSedentary", {}).get("real_time_ns")
trk = bench.get("BM_ExperimentBlocksSedentaryTracked", {}).get("real_time_ns")
ada = bench.get("BM_ExperimentBlocksAdaptive", {}).get("real_time_ns")
if sed and trk:
    run["tracker_overhead_pct"] = round((trk / sed - 1.0) * 100.0, 2)
if sed and ada:
    run["adaptive_policy_delta_pct"] = round((ada / sed - 1.0) * 100.0, 2)
doc.setdefault("runs", {})[os.environ["LABEL"]] = run
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} [{os.environ['LABEL']}]")
if "tracker_overhead_pct" in run:
    print(f"tracker bookkeeping overhead: {run['tracker_overhead_pct']}%")
if "adaptive_policy_delta_pct" in run:
    print(f"adaptive behavioral delta: {run['adaptive_policy_delta_pct']}%")
PY
  rm -f "$POLICY_JSON"
  exit 0
fi

# --directory: record location-directory lookup latency (p50/p99 per
# lookup, Central vs Sharded, at 10/100/1000 simulated nodes) into
# BENCH_directory.json. Medians of 3 runs per percentile.
if [[ "$MODE" == directory ]]; then
  [[ "$OUT" == BENCH_kernel.json ]] && OUT=BENCH_directory.json
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_directory >/dev/null
  DIR_JSON=$(mktemp)
  for rep in 1 2 3; do
    "$BUILD_DIR/bench/bench_directory" >>"$DIR_JSON"
  done
  GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  LABEL="$LABEL" OUT="$OUT" DIR_JSON="$DIR_JSON" GIT_REV="$GIT_REV" \
  python3 - <<'PY'
import json, os, statistics

# Three concatenated JSON documents (one per repetition): decode them in
# sequence, then take the per-series median of each percentile.
reps, decoder, text, pos = [], json.JSONDecoder(), open(os.environ["DIR_JSON"]).read(), 0
while pos < len(text):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    reps.append(doc)

series = {}
for doc in reps:
    for row in doc["results"]:
        key = (row["kind"], row["nodes"])
        entry = series.setdefault(key, {"p50_ns": [], "p99_ns": [],
                                        "objects": row["objects"],
                                        "lookups": row["lookups"]})
        entry["p50_ns"].append(row["p50_ns"])
        entry["p99_ns"].append(row["p99_ns"])

results = [
    {
        "kind": kind,
        "nodes": nodes,
        "objects": entry["objects"],
        "lookups": entry["lookups"],
        "p50_ns": statistics.median(entry["p50_ns"]),
        "p99_ns": statistics.median(entry["p99_ns"]),
    }
    for (kind, nodes), entry in sorted(series.items(),
                                       key=lambda kv: (kv[0][1], kv[0][0]))
]

out = os.environ["OUT"]
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc.setdefault("bench", "location-directory")
doc.setdefault("recipe", {
    "build": "Release",
    "directory": "bench_directory (200k lookups per config, one migration "
                 "per 8 lookups; per-lookup latency medians of 3 runs)",
    "headline": "sharded p99_ns at nodes=1000 vs central p99_ns at "
                "nodes=1000 (tail lookup latency at scale)",
})
doc.setdefault("runs", {})[os.environ["LABEL"]] = {
    "git": os.environ["GIT_REV"],
    "nproc": os.cpu_count(),
    "directory": results,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} [{os.environ['LABEL']}]")
PY
  rm -f "$DIR_JSON"
  exit 0
fi

# --store: record the durable-store microbench medians (WAL append with
# both fsync disciplines, replay, compaction) into BENCH_store.json.
if [[ "$MODE" == store ]]; then
  [[ "$OUT" == BENCH_kernel.json ]] && OUT=BENCH_store.json
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_store >/dev/null
  STORE_JSON=$(mktemp)
  "$BUILD_DIR/bench/bench_store" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json >"$STORE_JSON" 2>/dev/null
  GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  LABEL="$LABEL" OUT="$OUT" STORE_JSON="$STORE_JSON" GIT_REV="$GIT_REV" \
  python3 - <<'PY'
import json, os

with open(os.environ["STORE_JSON"]) as f:
    raw = json.load(f)
scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
bench = {}
for b in raw["benchmarks"]:
    if b["name"].endswith("_median"):
        name = b["name"][: -len("_median")]
        entry = {"real_time_ns": b["real_time"] * scale[b["time_unit"]]}
        for key in ("items_per_second", "bytes_per_second"):
            if key in b:
                entry[key] = b[key]
        bench[name] = entry

out = os.environ["OUT"]
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc.setdefault("bench", "durable-store")
doc.setdefault("recipe", {
    "build": "Release",
    "store": "bench_store --benchmark_min_time=<min-time> "
             "--benchmark_repetitions=3 (medians)",
    "headline": "BM_WalAppend/64/1 real_time_ns "
                "(one fsynced 64-byte checkpoint append)",
})
doc.setdefault("runs", {})[os.environ["LABEL"]] = {
    "git": os.environ["GIT_REV"],
    "nproc": os.cpu_count(),
    "store": bench,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} [{os.environ['LABEL']}]")
PY
  rm -f "$STORE_JSON"
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target \
  bench_kernel_throughput bench_fig08_usage_frequency \
  bench_fig11_migration_load >/dev/null

KERNEL_JSON=$(mktemp)
"$BUILD_DIR/bench/bench_kernel_throughput" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$KERNEL_JSON" 2>/dev/null

# Figure benches at a fixed reduced resolution (the absolute tables are not
# the point here — only the wall-clock trend of the same workload).
time_fig() {
  local bin="$1" runs=3 best=""
  local t0 t1 dt
  for _ in $(seq "$runs"); do
    t0=$(date +%s%N)
    OMIG_THREADS=1 OMIG_CI_TARGET=0.05 OMIG_MAX_BLOCKS=4000 \
      "$BUILD_DIR/bench/$bin" >/dev/null
    t1=$(date +%s%N)
    dt=$(( (t1 - t0) / 1000000 ))  # ms
    best="$best $dt"
  done
  # median of three
  echo "$best" | tr ' ' '\n' | sed '/^$/d' | sort -n | sed -n 2p
}

FIG08_MS=$(time_fig bench_fig08_usage_frequency)
FIG11_MS=$(time_fig bench_fig11_migration_load)

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

LABEL="$LABEL" OUT="$OUT" KERNEL_JSON="$KERNEL_JSON" FIG08_MS="$FIG08_MS" \
FIG11_MS="$FIG11_MS" GIT_REV="$GIT_REV" python3 - <<'PY'
import json, os

label = os.environ["LABEL"]
out = os.environ["OUT"]

with open(os.environ["KERNEL_JSON"]) as f:
    raw = json.load(f)

kernel = {}
for b in raw["benchmarks"]:
    if b["name"].endswith("_median"):
        name = b["name"][: -len("_median")]
        entry = {"real_time_ns": b["real_time"] * {"ns": 1, "us": 1e3,
                                                   "ms": 1e6, "s": 1e9}[b["time_unit"]]}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        kernel[name] = entry

doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
doc.setdefault("bench", "simulation-kernel")
doc.setdefault("recipe", {
    "build": "Release",
    "kernel": "bench_kernel_throughput --benchmark_min_time=<min-time> "
              "--benchmark_repetitions=3 (medians)",
    "figures": "OMIG_THREADS=1 OMIG_CI_TARGET=0.05 OMIG_MAX_BLOCKS=4000, "
               "wall-clock median of 3 runs",
    "headline": "BM_EngineEventThroughput/100000 items_per_second "
                "(kernel event dispatch, 100k-event run)",
})
doc["recipe"]["headline"] = (
    "BM_EngineEventThroughput/100000 items_per_second "
    "(kernel event dispatch, 100k-event run)")
runs = doc.setdefault("runs", {})
runs[label] = {
    "git": os.environ["GIT_REV"],
    "nproc": os.cpu_count(),
    "kernel": kernel,
    "fig08_usage_frequency_ms": int(os.environ["FIG08_MS"]),
    "fig11_migration_load_ms": int(os.environ["FIG11_MS"]),
}

if "before" in runs and "after" in runs:
    head = "BM_EngineEventThroughput/100000"
    b = runs["before"]["kernel"][head]["items_per_second"]
    a = runs["after"]["kernel"][head]["items_per_second"]
    speedups = {}
    for name, rec in runs["after"]["kernel"].items():
        if name in runs["before"]["kernel"] and "items_per_second" in rec:
            prev = runs["before"]["kernel"][name].get("items_per_second")
            if prev:
                speedups[name] = round(rec["items_per_second"] / prev, 3)
    doc["headline"] = {
        "metric": head + " events/sec",
        "before": b,
        "after": a,
        "speedup": round(a / b, 3),
        "all_speedups": speedups,
        "fig08_speedup": round(
            runs["before"]["fig08_usage_frequency_ms"]
            / runs["after"]["fig08_usage_frequency_ms"], 3),
        "fig11_speedup": round(
            runs["before"]["fig11_migration_load_ms"]
            / runs["after"]["fig11_migration_load_ms"], 3),
    }

with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} [{label}]")
PY

rm -f "$KERNEL_JSON"
