#!/usr/bin/env sh
# Drives the coverage-guided fuzzers under tests/fuzz.
#
# With clang on PATH (libFuzzer ships with clang), builds every harness with
# -DMOBIWEB_FUZZ=ON and runs each for a bounded time over its seed corpus,
# collecting new coverage-increasing inputs back into the corpus directory.
# Without clang, falls back to building the plain replay drivers and running
# the checked-in corpora once — the same thing `ctest -L fuzz` does, except
# that a replay ctest reports "Not Run", or an empty fuzz label, fails the
# script (scripts/ctest_strict.sh).
#
# Usage:
#   scripts/fuzz.sh [seconds-per-target] [target...]
#
#   scripts/fuzz.sh                 # 60s per target, all targets
#   scripts/fuzz.sh 300 fuzz_xml    # 5 minutes on the XML harness only
#
# Crashing inputs land in <build>/fuzz-artifacts/<target>/; minimize with
#   <build>/tests/fuzz/<target> -minimize_crash=1 -runs=10000 <artifact>
# then check the minimized reproducer into tests/fuzz/corpus/<area>/ and add
# a named regression test.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
DURATION=${1:-60}
[ $# -gt 0 ] && shift
TARGETS=${*:-fuzz_xml fuzz_html fuzz_sc fuzz_dtd fuzz_packet fuzz_ida fuzz_lzss fuzz_gf fuzz_content fuzz_fault_schedule}

corpus_for() {
  case "$1" in
    fuzz_xml) echo xml ;;
    fuzz_html) echo html ;;
    fuzz_sc) echo sc ;;
    fuzz_dtd) echo dtd ;;
    fuzz_packet) echo packet ;;
    fuzz_ida) echo ida ;;
    fuzz_lzss) echo lzss ;;
    fuzz_gf) echo gf ;;
    fuzz_content) echo content ;;
    fuzz_fault_schedule) echo fault_schedule ;;
    *) echo "unknown fuzz target: $1" >&2; exit 2 ;;
  esac
}

if command -v clang++ >/dev/null 2>&1; then
  BUILD="$ROOT/build-fuzz"
  cmake -B "$BUILD" -S "$ROOT" \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DMOBIWEB_FUZZ=ON -DMOBIWEB_SANITIZE=ON \
    -DMOBIWEB_BUILD_BENCH=OFF -DMOBIWEB_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD" -j
  for t in $TARGETS; do
    corpus="$ROOT/tests/fuzz/corpus/$(corpus_for "$t")"
    artifacts="$BUILD/fuzz-artifacts/$t"
    mkdir -p "$artifacts"
    echo "== $t: ${DURATION}s over $corpus =="
    "$BUILD/tests/fuzz/$t" -max_total_time="$DURATION" \
      -artifact_prefix="$artifacts/" "$corpus"
  done
else
  echo "clang not found: running corpus replay (no coverage-guided fuzzing)" >&2
  BUILD="$ROOT/build-fuzz-replay"
  cmake -B "$BUILD" -S "$ROOT" -DMOBIWEB_SANITIZE=ON \
    -DMOBIWEB_BUILD_BENCH=OFF -DMOBIWEB_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD" -j
  for t in $TARGETS; do
    corpus_for "$t" >/dev/null  # validate the name even in replay mode
  done
  "$ROOT/scripts/ctest_strict.sh" --test-dir "$BUILD" -L fuzz --output-on-failure
fi
