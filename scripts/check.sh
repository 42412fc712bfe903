#!/usr/bin/env bash
# Sanitizer gate for the concurrent code paths: builds a Debug tree with
# ThreadSanitizer + UBSan and runs the suites that exercise real threads —
# the live runtime, the transport layer (wire codec, TCP sockets,
# multi-process cluster), the fault-injection / chaos tests, the durable
# store (WAL, snapshots, crash recovery), the work-stealing executor +
# parallel sweep engine, the scenario pack's threaded live driver, the
# adaptive placement policies (EMA tracker, hysteresis, live moves), and
# the sim-vs-live protocol parity suite.
#
# Usage: scripts/check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread,undefined"
cmake --build "$BUILD_DIR"

# Combining the tsan and ubsan shared runtimes makes tsan intercept pipe()
# calls issued from libubsan's own internals (IsAccessibleMemoryRange) and
# report them as races; suppress anything rooted in libubsan — reports in
# *our* code keep firing.
SUPP="$PWD/$BUILD_DIR/tsan.supp"
printf 'called_from_lib:libubsan\n' > "$SUPP"

# halt_on_error so a race fails the run instead of scrolling past.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1} suppressions=$SUPP"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j \
  -R 'Mailbox|LiveNode|LiveSystem|OfficeWorkflow|LiveFault|FaultPlan|FaultInjector|NodeHealth|CrashDriver|Chaos|Executor|SweepParallel|SweepGolden|EnginePool|EventHeap|DenseTable|Transport|Wire|MultiProcess|TcpLink|InProcTransport|Metrics|Histogram|Exporter|Wal|Store|Snapshot|Recovery|ShardedDirectory|LocationCache|LocationFuzz|Scenario|Zipf|Adaptive|Locality|Hysteresis|EventLoop|AsyncTcp|Net|ProtocolParity' \
  "$@"

echo "check.sh: sanitized runtime + fault suites passed"
