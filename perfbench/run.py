#!/usr/bin/env python3
"""End-to-end benchmark of the omig migration runtime and simulator.

Builds perfbench/ (which compiles the repo's libraries from src/) into
.bench_build/, runs one workload, checks its outputs, writes the full
record under .bench_out/, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload cache-rpc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cache-rpc --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes .bench_out/spans-<workload>.json. perfbench/README.md lists
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("social-visit", "cache-rpc", "durable-move", "sim-fig16")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_cmd(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout.
    Returns (returncode, stdout) and never leaves a child behind."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 124, ""
    return proc.returncode, out or ""


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_cmd(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    code, _ = run_cmd(["cmake", "--build", BUILD, "-j", jobs,
                       "--target", target], BUILD_TIMEOUT_S)
    return code == 0


def source_digest():
    """sha256 over the sources the binary is built from (src/, perfbench/):
    identifies the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the repository this checkout is, or None outside git (a
    repository further up the tree does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cmake_build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def selftest():
    if not build("perfbench_selftest"):
        log("build failed")
        return 1
    code, _ = run_cmd([os.path.join(BUILD, "perfbench_selftest")],
                      RUN_TIMEOUT_S)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    if not build("omig_perfbench"):
        log("build failed")
        return 1
    os.makedirs(OUT, exist_ok=True)
    code, out = run_cmd(
        [os.path.join(BUILD, "omig_perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--out", os.path.relpath(OUT, ROOT)],
        RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload}: no result (exit code {code})")
        return 1

    declared = declared_metrics(args.trace == 1)
    emitted = [(name, m["unit"]) for name, m in record["metrics"].items()]
    if declared is not None and sorted(declared) != sorted(emitted):
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(emitted))}")
        return 1

    record["machine"].update({
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_type": cmake_build_type(),
        "data_dir_fs": filesystem_of(OUT),
    })
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} seconds {args.seconds:g}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for metric, m in record["metrics"].items():
        print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':36s} {record['detail']['failed_ratio']:>16.6g}"
          " ratio")
    for check, tally in sorted(record["checks"].items()):
        state = "ok" if tally["failed"] == 0 else "FAILED"
        print(f"  check {check:30s} {state} "
              f"({tally['failed']}/{tally['attempted']} failed)")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(f"record {os.path.relpath(os.path.join(OUT, name), ROOT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if code == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
