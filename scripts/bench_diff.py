#!/usr/bin/env python3
"""Perf-regression gate over "mobiweb-bench/1" JSON runs.

Usage:
    bench_diff.py [--tolerance=FRAC] [--quiet] [--summary] OLD.json NEW.json
    bench_diff.py --check-tails BENCH_BINARY [bench args...]

Compares the flat `metrics` maps of two bench runs produced by any harness's
--json mode (bench_micro_coding, bench_micro_pipeline, bench_throughput,
bench_outage, ...). Exits 0 when no metric regressed by more than the
tolerance (default 0.10 = 10%), 1 when at least one did, 2 on usage or
schema errors.

Metric direction is encoded in the key suffix:
  higher-is-better: *mbps, *per_hour, *per_s, *completed, *content
  lower-is-better:  *_s, *_ms, *_us, *_ns, *frames, *timeouts, *attempts,
                    *gave_up
Tail statistics inherit the direction of the metric they summarize: a key
ending in _p50/_p95/_p99/_p999/_mean is classified by stripping that suffix
and re-inferring (so session_time_s_p99 gates lower-is-better exactly like
session_time_s) — a p99 regression fails the gate even when the mean is
flat. *_ci95 keys (confidence half-widths) are always informational.
Keys matching neither list are informational: printed, never gating.
Metrics present in only one run are reported but do not gate (benches may
gain or drop metrics across revisions — in particular, baselines recorded
before the tail keys existed still compare cleanly).

--summary appends a one-block tally after the per-key table — how many keys
gated clean, how many regressed, how many are informational-only or present
in a single run — so a PASS still leaves an at-a-glance delta record in the
CI log (composes with --quiet: just the tally, no per-key table).

--check-tails runs `BENCH_BINARY [bench args...] --json` and checks the
session-time tail keys this gate compares (ctest `bench.fleet_tails`):
  * every scale (metric-key prefix) that reports session_time_s_mean also
    reports _p50, _p95, _p99, _p999 and _ci95;
  * all six are finite and non-negative;
  * the quantiles are monotone (p50 <= p95 <= p99 <= p999) and
    mean <= p999;
  * direction() classifies the _p* and _mean keys as lower-is-better and
    _ci95 as informational, so a schema or direction-inference regression
    fails here, not in a real perf hunt.
It exits 0 when every check holds, 1 on any violation.

Stdlib only; no third-party imports.
"""

import json
import math
import subprocess
import sys

HIGHER_BETTER = ("mbps", "per_hour", "per_s", "completed", "content")
LOWER_BETTER = ("_s", "_ms", "_us", "_ns", "frames", "timeouts", "attempts",
                "gave_up")
# Distribution-summary suffixes: direction comes from the summarized metric.
TAIL_SUFFIXES = ("_p50", "_p95", "_p99", "_p999", "_mean")
# Error-bar suffixes: context for a mean, never a gate by themselves.
INFORMATIONAL_SUFFIXES = ("_ci95",)

SCHEMA = "mobiweb-bench/1"


def direction(key):
    """+1 higher-is-better, -1 lower-is-better, 0 informational."""
    if key.endswith(INFORMATIONAL_SUFFIXES):
        return 0
    for suffix in TAIL_SUFFIXES:
        if key.endswith(suffix):
            return direction(key[:-len(suffix)])
    if key.endswith(HIGHER_BETTER):
        return 1
    if key.endswith(LOWER_BETTER):
        return -1
    return 0


def load_run(path):
    try:
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if run.get("schema") != SCHEMA:
        sys.exit(f"bench_diff: {path}: expected schema {SCHEMA!r}, "
                 f"got {run.get('schema')!r}")
    metrics = run.get("metrics")
    if not isinstance(metrics, dict):
        sys.exit(f"bench_diff: {path}: missing metrics object")
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            sys.exit(f"bench_diff: {path}: metric {key!r} is not a number")
    return run.get("bench", "?"), metrics


def check_tails(cmd):
    """Runs cmd + ["--json"] and checks its session-time tail keys."""
    def fail(msg):
        sys.exit(f"bench_diff --check-tails: {msg}")

    cmd = cmd + ["--json"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    try:
        run = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"bench emitted invalid JSON: {e}")
    if run.get("schema") != SCHEMA:
        fail(f"unexpected schema {run.get('schema')!r}")
    metrics = run.get("metrics", {})

    scales = sorted(k[: -len("session_time_s_mean")] for k in metrics
                    if k.endswith("session_time_s_mean"))
    if not scales:
        fail("no session_time_s_mean keys in the run")
    for scale in scales:
        base = scale + "session_time_s"
        names = ("p50", "p95", "p99", "p999", "mean", "ci95")
        for name in names:
            if f"{base}_{name}" not in metrics:
                fail(f"missing {base}_{name}")
        v = {name: metrics[f"{base}_{name}"] for name in names}
        for name, x in v.items():
            if not math.isfinite(x) or x < 0:
                fail(f"{base}_{name} = {x!r} is not a finite non-negative "
                     "number")
        if not v["p50"] <= v["p95"] <= v["p99"] <= v["p999"]:
            fail(f"{base}: quantiles not monotone: p50={v['p50']} "
                 f"p95={v['p95']} p99={v['p99']} p999={v['p999']}")
        if v["mean"] > v["p999"]:
            fail(f"{base}: mean {v['mean']} exceeds p999 {v['p999']}")
        # Direction-inference contract: tails gate, CI halfwidths do not.
        for name in names:
            key = f"{base}_{name}"
            want = 0 if name == "ci95" else -1
            if direction(key) != want:
                fail(f"direction({key!r}) is {direction(key)}, want {want}")

    print(f"bench_diff --check-tails: ok ({len(scales)} scale(s): "
          f"{', '.join(s.rstrip('.') for s in scales)})")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--check-tails":
        if len(argv) < 3:
            sys.exit(f"bench_diff: --check-tails needs BENCH_BINARY\n{__doc__}")
        return check_tails(argv[2:])
    tolerance = 0.10
    quiet = False
    summary = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            try:
                tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                sys.exit(f"bench_diff: bad tolerance {arg!r}")
            if tolerance < 0:
                sys.exit("bench_diff: tolerance must be >= 0")
        elif arg == "--quiet":
            quiet = True
        elif arg == "--summary":
            summary = True
        elif arg.startswith("-"):
            sys.exit(f"bench_diff: unknown option {arg!r}\n{__doc__}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(f"bench_diff: need exactly OLD.json NEW.json\n{__doc__}")

    old_bench, old = load_run(paths[0])
    new_bench, new = load_run(paths[1])
    if old_bench != new_bench:
        print(f"bench_diff: warning: comparing bench {old_bench!r} "
              f"against {new_bench!r}", file=sys.stderr)

    regressions = []
    lines = []
    gated_ok = info_only = single_sided = 0
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            side = "new" if key in new else "old"
            lines.append(f"  {key}: only in {side} run")
            single_sided += 1
            continue
        a, b = float(old[key]), float(new[key])
        if a == b:
            delta = 0.0
        elif a == 0.0:
            delta = float("inf") if b > 0 else float("-inf")
        else:
            delta = (b - a) / abs(a)
        sign = direction(key)
        # delta > 0 is an increase; a regression is a decrease of a
        # higher-is-better metric or an increase of a lower-is-better one.
        regressed = sign != 0 and -sign * delta > tolerance
        tag = "REGRESSED" if regressed else (
            "info" if sign == 0 else "ok")
        lines.append(f"  {key}: {a:g} -> {b:g} ({delta:+.1%}) [{tag}]")
        if regressed:
            regressions.append(key)
        elif sign == 0:
            info_only += 1
        else:
            gated_ok += 1

    if not quiet:
        print(f"bench_diff: {old_bench}: {paths[0]} -> {paths[1]} "
              f"(tolerance {tolerance:.0%})")
        for line in lines:
            print(line)
    if summary:
        print(f"bench_diff: summary: {gated_ok} gating ok, "
              f"{len(regressions)} regressed, {info_only} informational, "
              f"{single_sided} only in one run")
    if regressions:
        print(f"bench_diff: {len(regressions)} metric(s) regressed beyond "
              f"{tolerance:.0%}: {', '.join(regressions)}", file=sys.stderr)
        return 1
    if not quiet:
        print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
