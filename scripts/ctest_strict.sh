#!/usr/bin/env bash
# ctest that cannot pass vacuously: runs `ctest --no-tests=error ARGS...` and
# exits nonzero when any test failed, when the -L/-R selection matched no
# test, or when ctest reports any test "Not Run" -- a binary that was never
# built fails ctest already, but a disabled test is "Not Run" with exit 0.
# scripts/tsan_fleet.sh and scripts/fuzz.sh drive ctest through it.
#
# Usage: scripts/ctest_strict.sh [ctest args...]
set -euo pipefail

LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

status=0
ctest --no-tests=error "$@" 2>&1 | tee "$LOG" || status=$?
if grep -q 'Not Run' "$LOG"; then
  echo "ctest_strict: ctest reported tests Not Run:" >&2
  grep 'Not Run' "$LOG" >&2
  exit 1
fi
if [ "$status" -ne 0 ]; then
  echo "ctest_strict: ctest exited with status $status" >&2
fi
exit "$status"
