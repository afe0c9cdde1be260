#!/usr/bin/env bash
# Golden outputs: "same numbers" as a tier-1 check, wired into ctest as
# `golden.outputs`.
#
#   scripts/golden.sh [BENCH_DIR]           compare live runs to the goldens
#   scripts/golden.sh --update [BENCH_DIR]  regenerate every golden file
#
# BENCH_DIR holds the built bench binaries (default: build/bench). Two kinds
# of golden are checked, both under MOBIWEB_FAST=1:
#   1. tests/golden/*: the text (and --json / --trace / --timeline) output of
#      the figure, table, outage, throughput and ablation benches plus one
#      fleet and one proxy timeline, compared byte for byte;
#   2. bench/baselines/*.json: every key of a live run must equal the
#      baseline's value exactly, except the wall-clock keys named in
#      WALL_CLOCK below, whose values are the host's and never compare. A key
#      present on one side only fails.
# --update rewrites both; a baseline keeps its recorded wall-clock values.
# A change that moves a golden names the file in CHANGES.md and says why.
set -euo pipefail

ROOT=${MOBIWEB_REPO_ROOT:-$(cd "$(dirname "$0")/.." && pwd)}
UPDATE=0
if [[ ${1:-} == --update ]]; then
  UPDATE=1
  shift
fi
BIN=${1:-$ROOT/build/bench}
GOLDEN="$ROOT/tests/golden"
BASELINES="$ROOT/bench/baselines"
export MOBIWEB_FAST=1
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# run OUT BENCH [ARGS...]: one bench invocation, stdout captured as OUT.
run() {
  local out=$1 bench=$2
  shift 2
  "$BIN/$bench" "$@" >"$TMP/out/$out"
}

mkdir -p "$TMP/out" "$TMP/base"
for fig in fig2 fig3 fig4 fig5 fig6 fig7 table1 table2 outage throughput \
           ablation_arq ablation_broadcast ablation_channel ablation_content \
           ablation_gamma ablation_packetsize ablation_prefetch \
           ablation_ranking; do
  run "bench_$fig.txt" "bench_$fig"
done
for fig in fig2 fig4 table2 outage throughput; do
  run "bench_$fig.json" "bench_$fig" --json
done
run bench_outage.trace.json bench_outage --trace
run bench_fleet.timeline.json bench_fleet --sessions=2000 --duty=0.25 --timeline
run bench_proxy.timeline.json bench_proxy --sessions=800 --timeline

# The baseline runs, invoked exactly as scripts/perf_smoke.sh does.
"$BIN/bench_fleet" --json="$TMP/base/fleet.json" >/dev/null
"$BIN/bench_fleet" --duty=0.2 --json="$TMP/base/fleet_duty.json" >/dev/null
"$BIN/bench_proxy" --sessions=800 --json="$TMP/base/proxy.json" >/dev/null
"$BIN/bench_micro_coding" --json="$TMP/base/micro_coding.json" >/dev/null
"$BIN/bench_micro_pipeline" --json="$TMP/base/micro_pipeline.json" >/dev/null

if ((UPDATE)); then
  rm -f "$GOLDEN"/*
  mkdir -p "$GOLDEN"
  cp "$TMP/out/"* "$GOLDEN/"
fi

status=0
if ((!UPDATE)); then
  for f in "$TMP/out/"*; do
    name=$(basename "$f")
    if [[ ! -f "$GOLDEN/$name" ]]; then
      echo "golden: $name: no golden file (run scripts/golden.sh --update)" >&2
      status=1
    elif ! cmp -s "$GOLDEN/$name" "$f"; then
      echo "golden: $name differs from tests/golden/$name:" >&2
      diff -u "$GOLDEN/$name" "$f" | head -n 20 >&2 || true
      status=1
    fi
  done
  for f in "$GOLDEN/"*; do
    name=$(basename "$f")
    if [[ ! -f "$TMP/out/$name" ]]; then
      echo "golden: tests/golden/$name: no bench produces it" >&2
      status=1
    fi
  done
fi

python3 - "$UPDATE" "$BASELINES" "$TMP/base" <<'EOF' || status=1
import fnmatch, json, os, re, sys

# Keys that measure the host rather than the simulation, as
# "<bench>:<key glob>" over the flattened "meta.*" / "metrics.*" keys.
WALL_CLOCK = (
    "fleet:metrics.*.sessions_per_s",
    "fleet:metrics.*.frames_per_s",
    "proxy:metrics.*.sessions_per_s",
    "micro_coding:meta.active_kernel",
    "micro_coding:metrics.*mbps",
    "micro_pipeline:metrics.*_per_s",
    "micro_pipeline:metrics.profiler_scope_*_ns",
)

def wall_clock(bench, key):
    return any(fnmatch.fnmatchcase(f"{bench}:{key}", p) for p in WALL_CLOCK)

def flatten(run):
    out = {"schema": run.get("schema"), "bench": run.get("bench")}
    for section in ("meta", "metrics"):
        for k, v in run.get(section, {}).items():
            out[f"{section}.{k}"] = v
    return out

update, base_dir, live_dir = sys.argv[1] == "1", sys.argv[2], sys.argv[3]
failed = False
for name in sorted(os.listdir(live_dir)):
    base_path, live_path = os.path.join(base_dir, name), os.path.join(live_dir, name)
    with open(live_path, encoding="utf-8") as f:
        live_text = f.read()
    live = json.loads(live_text)
    bench = live.get("bench", "?")  # fleet_duty.json is bench "fleet" too
    if update:
        # Re-record, keeping the baseline's wall-clock values as recorded.
        old = {}
        if os.path.exists(base_path):
            with open(base_path, encoding="utf-8") as f:
                for line in f:
                    m = re.match(r'\s*"([^"]+)": (.*?),?$', line)
                    if m:
                        old[m.group(1)] = m.group(2)
        lines = []
        for line in live_text.splitlines(keepends=True):
            m = re.match(r'(\s*"([^"]+)": )(.*?)(,?\n)$', line)
            if m and m.group(2) in old and (
                    wall_clock(bench, "metrics." + m.group(2)) or
                    wall_clock(bench, "meta." + m.group(2))):
                line = m.group(1) + old[m.group(2)] + m.group(4)
            lines.append(line)
        with open(base_path, "w", encoding="utf-8") as f:
            f.write("".join(lines))
        continue
    with open(base_path, encoding="utf-8") as f:
        base = flatten(json.load(f))
    live = flatten(live)
    for key in sorted(set(base) | set(live)):
        if key not in live or key not in base:
            side = "baseline" if key in base else "live run"
            print(f"golden: {name}: {key} only in the {side}", file=sys.stderr)
            failed = True
        elif not wall_clock(bench, key) and base[key] != live[key]:
            print(f"golden: {name}: {key}: baseline {base[key]!r} != "
                  f"live {live[key]!r}", file=sys.stderr)
            failed = True
sys.exit(1 if failed else 0)
EOF

if ((UPDATE)); then
  echo "golden: updated tests/golden/ and bench/baselines/"
elif ((status == 0)); then
  echo "golden: ok"
fi
exit $status
