#!/usr/bin/env bash
# Sanitizer gate: builds a Debug tree with ThreadSanitizer + UBSan and runs
# every ctest case under it, in parallel — the threaded suites (live
# runtime, transports, fault injection and chaos, durable store, executor
# and parallel sweeps, the scenario pack's live driver, adaptive policies,
# the sim-vs-live parity suites) and the single-threaded rest alike.
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

# -j takes a value here: a bare -j would swallow the next argument.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

echo "check.sh: every test passed under TSan + UBSan"
