#!/usr/bin/env bash
# ThreadSanitizer pass over the fleet concurrency surface: the sharded engine
# (each shard writing its own range of the run's session-indexed columns),
# the shared DocumentCache, ThreadPool re-entrancy, the MetricsRegistry's
# concurrent writers, and the GF kernel dispatch tables' first use.
#
# Builds an out-of-tree TSan tree (build-tsan/) so the regular build stays
# untouched, then runs the labels that exercise real multi-threading:
#   fleet    — engine, cache, the session walk (test_sim), bench smoke
#   obs      — metrics registry hammer
#   coding   — thread pool + GF kernel tests (test_util / test_gf_kernels),
#              and test_ida once per forced kernel (coding.kernel_env.*)
#   stats    — tail summaries folded from concurrent shards (test_stats_workload)
#   proxy    — edge tier: proxied engine walk across shards, origin-clone
#              streams, the proxied bench smoke (test_proxy / bench_proxy)
#
# A test ctest reports "Not Run" (say, a binary missing from the build list
# below) or a selection that matches nothing fails the script
# (scripts/ctest_strict.sh).
#
# Usage: scripts/tsan_fleet.sh [extra ctest args...]
set -euo pipefail

ROOT=${MOBIWEB_REPO_ROOT:-$(cd "$(dirname "$0")/.." && pwd)}
BUILD="$ROOT/build-tsan"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMOBIWEB_TSAN=ON \
  -DMOBIWEB_BUILD_BENCH=ON \
  -DMOBIWEB_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j \
  --target test_fleet test_sim test_util test_obs test_gf_kernels test_ida \
  test_stats test_stats_workload test_proxy test_timeseries bench_fleet bench_proxy

export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
"$ROOT/scripts/ctest_strict.sh" --test-dir "$BUILD" --output-on-failure \
  -L 'fleet|obs|coding|stats|proxy' "$@"

# Weak-connectivity / workload knobs under TSan: per-session outage clones,
# the suspend/backoff path, Zipf document draws and Poisson arrivals all run
# on the sharded hot path, so race them here too.
MOBIWEB_FAST=1 "$BUILD/bench/bench_fleet" \
  --sessions=5000 --duty=0.2 --zipf=0.8 --arrival=100 --json=/dev/null

# Edge tier under TSan: per-session origin-outage clones, the cold-proxy
# suspend loop, handoff/reconciliation state and the FleetProxyTotals merge
# all run across shards in one proxied cell stacked on link fades.
MOBIWEB_FAST=1 "$BUILD/bench/bench_proxy" \
  --sessions=2000 --origin-duty=0.4 --warm=0.6 --duty=0.2 --json=/dev/null

# Telemetry under TSan: per-shard TimeSeries writers fed through each shard's
# shared sink and the bounded tail-retention heaps race across shards; the
# post-run merge, the retained sessions' replay and the timeline document
# follow on the calling thread.
MOBIWEB_FAST=1 "$BUILD/bench/bench_fleet" \
  --sessions=5000 --duty=0.25 --timeline=/dev/null
MOBIWEB_FAST=1 "$BUILD/bench/bench_proxy" \
  --sessions=2000 --origin-duty=0.4 --warm=0.6 --duty=0.2 --timeline=/dev/null

echo "tsan_fleet: ok"
