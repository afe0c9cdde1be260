#!/usr/bin/env python3
"""A/B pairs for the repository benchmark: is a change faster than its base?

Usage (from anywhere inside the repository):

    scripts/ab_perf.py --base REV --workload W --pairs N --seconds S --seed K
                       [--change REV] [--trace 0|1]
    scripts/ab_perf.py --self-test

Exports the base revision with `git archive` into a temporary directory (and
the change revision too when --change is given; by default the change is the
working tree), builds each tree through its own `perfbench/run.py`, then runs
N pairs of the perfbench binary on workload W with seed K for S seconds each.
The order alternates inside the pairs (base first, then change first, ...)
so that slow drift of a shared host cancels out.

Each run's raw `op_s` / `setup_s` come straight from the binary, and each
run is scored the way perfbench/run.py scores it: sessions/s from the
10th-percentile operation time, setup_s as the median cold start. Reported:

  * per pair: both runs' sessions/s and setup_s, and the change/base ratio;
  * the median ratio with a bootstrap 95% interval over the pair ratios;
  * the win count (pairs where the change is faster, resp. starts faster);
  * the median and quartiles of each side, and whether the medians differ
    by more than the base's interquartile range;
  * `correct` / `failed` of every run;
  * the host: CPU model, logical CPUs, SIMD flags, load average before and
    after.

With --trace 1 the runs attach the profiler; the per-layer self times
(`layers` of the raw record) are then reported too, as per-side medians.

Output: a progress line per run on stderr, then one markdown line (for
CHANGES.md) and one JSON record as the last line on stdout. Exit code 0 when
every run was correct with no failed operation, 1 otherwise, 2 on usage or
build errors.

--self-test checks the statistics on canned inputs (no build, no timing).
Stdlib only.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("warm_fleet", "weak_fleet", "byte_path")
BINARY = os.path.join(".bench_build", "perfbench", "perfbench")
SIMD_FLAGS = ("ssse3", "sse4_2", "avx2", "avx512f", "avx512bw", "gfni",
              "pclmulqdq", "vpclmulqdq", "asimd", "pmull")
BOOTSTRAP_REPS = 10000


def fail(message, code=2):
    print("ab_perf: " + message, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Statistics (pure; pinned by --self-test)


def p10(op_s):
    """The 10th-percentile operation time exactly as perfbench/run.py picks
    it: the element at index len // 10 of the sorted times."""
    return sorted(op_s)[len(op_s) // 10]


def quantile(xs, q):
    """Type-7 (linear interpolation) sample quantile."""
    s = sorted(xs)
    h = (len(s) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def bootstrap_ci(values, reps=BOOTSTRAP_REPS, seed=0):
    """Percentile bootstrap 95% interval of the median, from a fixed seed so
    the same pairs always give the same interval."""
    rng = random.Random(seed)
    n = len(values)
    medians = [statistics.median(rng.choices(values, k=n))
               for _ in range(reps)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def score_run(raw):
    """One binary record -> the scored run (a traced record adds layers)."""
    run = {"correct": bool(raw["correct"]), "failed": int(raw["failed"]),
           "sessions_per_s": raw["sessions_per_op"] / p10(raw["op_s"]),
           "setup_s": statistics.median(raw["setup_s"])}
    if "layers" in raw:
        run["layers"] = raw["layers"]
    return run


def compare(base, change, higher_is_better):
    """Pair-wise comparison of one metric; base[i] and change[i] are pair i."""
    ratios = [c / b for b, c in zip(base, change)]
    wins = sum((c > b) if higher_is_better else (c < b)
               for b, c in zip(base, change))
    lo, hi = bootstrap_ci(ratios)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_iqr = iqr(base)
    quartiles = lambda xs: [quantile(xs, 0.25), quantile(xs, 0.75)]
    return {
        "base": base,
        "change": change,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "ci95": [lo, hi],
        "ci_excludes_1": not lo <= 1.0 <= hi,
        "wins": wins,
        "pairs": len(ratios),
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": quartiles(base),
        "change_quartiles": quartiles(change),
        "base_iqr": base_iqr,
        "median_gap_exceeds_base_iqr":
            abs(change_median - base_median) > base_iqr,
    }


def summarize(pairs):
    """pairs: [{"base": run, "change": run}, ...] of scored runs."""
    runs = [p[side] for p in pairs for side in ("base", "change")]
    out = {
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": [{side: {"correct": p[side]["correct"],
                         "failed": p[side]["failed"]}
                  for side in ("base", "change")} for p in pairs],
    }
    for metric, higher in (("sessions_per_s", True), ("setup_s", False)):
        out[metric] = compare([p["base"][metric] for p in pairs],
                              [p["change"][metric] for p in pairs], higher)
    if "layers" in pairs[0]["base"]:
        out["layers"] = {
            side: {k: statistics.median(p[side]["layers"][k] for p in pairs)
                   for k in pairs[0][side]["layers"]}
            for side in ("base", "change")}
    return out


def markdown(record):
    a = record["args"]
    head = (f"ab_perf `{a['workload']}` seed {a['seed']}, {a['pairs']}×"
            f"{a['seconds']} s alternating pairs, {record['base']} → "
            f"{record['change']}")
    s = record["summary"]
    h = record["host"]
    host = (f"host {h['cpu']}, {h['nproc']} CPUs ({' '.join(h['simd'])}), "
            f"load {h['load_before']:.2f} → {h['load_after']:.2f}")
    health = (f"correct {'in every run' if s['all_correct'] else 'FALSE'}, "
              f"{s['failed']} failed")
    sps, setup = s["sessions_per_s"], s["setup_s"]
    if "layers" in s:
        base, change = s["layers"]["base"], s["layers"]["change"]
        layers = ", ".join(f"{k} {base[k]:.4g} → {change[k]:.4g}"
                           for k in base)
        return (f"{head} (traced; per-side median layers): {layers}; traced "
                f"sessions/s ratio {sps['median_ratio']:.3f}, wins "
                f"{sps['wins']}/{sps['pairs']}; {health}; {host}")
    q = lambda m: f"[q {m[0]:.0f}–{m[1]:.0f}]"
    return (f"{head}: sessions/s {sps['base_median']:.0f} "
            f"{q(sps['base_quartiles'])} → {sps['change_median']:.0f} "
            f"{q(sps['change_quartiles'])}, median ratio "
            f"{sps['median_ratio']:.3f} [95% CI {sps['ci95'][0]:.3f}, "
            f"{sps['ci95'][1]:.3f}], wins {sps['wins']}/{sps['pairs']}, "
            f"base IQR {sps['base_iqr']:.0f}; setup_s "
            f"{setup['base_median']:.4f} → {setup['change_median']:.4f} s, "
            f"ratio {setup['median_ratio']:.3f} [{setup['ci95'][0]:.3f}, "
            f"{setup['ci95'][1]:.3f}], wins {setup['wins']}/{setup['pairs']}; "
            f"{health}; {host}")


# ---------------------------------------------------------------------------
# Trees, builds and runs


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(root, rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        fail(f"git archive {rev} failed")
    return dest


def build(tree, args):
    """Builds through the tree's own perfbench/run.py (a 1 s run)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--trace", "0"],
        cwd=tree, stdout=subprocess.DEVNULL, check=False)
    if proc.returncode not in (0, 1):
        fail(f"perfbench build in {tree} failed (exit {proc.returncode})")


def run_once(tree, args):
    cmd = [os.path.join(tree, BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                          timeout=3 * args.seconds + 120, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{cmd[0]} exited with code {proc.returncode}")
    return score_run(json.loads(lines[-1]))


def host_info():
    cpu, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key in ("flags", "Features") and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "simd": [f for f in SIMD_FLAGS if f in flags]}


def describe(run):
    return (f"{run['sessions_per_s']:.0f} sessions/s, setup "
            f"{run['setup_s']:.4f} s, correct {run['correct']}, failed "
            f"{run['failed']}")


def measure(args):
    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
               "--show-toplevel")
    record = {"args": {k: getattr(args, k) for k in
                       ("base", "change", "workload", "pairs", "seconds",
                        "seed", "trace")},
              "base": git(root, "rev-parse", "--short", args.base)}
    with tempfile.TemporaryDirectory(prefix="ab_perf.") as tmp:
        trees = {"base": export(root, args.base, os.path.join(tmp, "base"))}
        if args.change:
            record["change"] = git(root, "rev-parse", "--short", args.change)
            trees["change"] = export(root, args.change,
                                     os.path.join(tmp, "change"))
        else:
            record["change"] = git(root, "describe", "--always", "--dirty")
            trees["change"] = root
        for side in ("base", "change"):
            print(f"ab_perf: building {side} ({record[side]})",
                  file=sys.stderr)
            build(trees[side], args)
        host = host_info()
        host["load_before"] = os.getloadavg()[0]
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                pair[side] = run_once(trees[side], args)
                print(f"ab_perf: pair {i + 1}/{args.pairs} {side}: "
                      f"{describe(pair[side])}", file=sys.stderr)
            pairs.append(pair)
        host["load_after"] = os.getloadavg()[0]
    record["host"] = host
    record["summary"] = summarize(pairs)
    return record


# ---------------------------------------------------------------------------
# Self-test


def self_test():
    def check(cond, what):
        if not cond:
            fail("self-test: " + what, code=1)

    # p10 is run.py's index pick, not an interpolated quantile.
    check(p10([5.0, 1.0, 4.0, 2.0, 3.0]) == 1.0, "p10 of 5 values")
    check(p10([float(x) for x in range(20, 0, -1)]) == 3.0, "p10 of 20 values")
    check(quantile([1, 2, 3, 4], 0.5) == 2.5, "type-7 median")
    check(quantile([1, 2, 3, 4, 5], 0.25) == 2.0, "type-7 lower quartile")
    check(iqr([1, 2, 3, 4, 5, 6, 7, 8]) == 3.5, "IQR")

    # A raw record from the binary is scored the way run.py scores it.
    raw = {"correct": True, "failed": 0, "sessions_per_op": 400,
           "op_s": [0.02] * 9 + [0.01] + [0.03] * 10,
           "setup_s": [0.3, 0.1, 0.2]}
    run = score_run(raw)
    check(run["sessions_per_s"] == 400 / 0.02, "sessions/s from p10")
    check(run["setup_s"] == 0.2, "setup_s median")

    def pairs_of(base_sps, change_sps, setup=(0.2, 0.1)):
        return [{"base": {"correct": True, "failed": 0, "sessions_per_s": b,
                          "setup_s": setup[0]},
                 "change": {"correct": True, "failed": 0,
                            "sessions_per_s": c, "setup_s": setup[1]}}
                for b, c in zip(base_sps, change_sps)]

    # A clear 2x change: every pair wins, the interval excludes 1.
    base = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 96.0]
    fast = [2 * b + (i % 3) for i, b in enumerate(base)]
    s = summarize(pairs_of(base, fast))
    sps = s["sessions_per_s"]
    check(sps["wins"] == 10 and sps["pairs"] == 10, "2x wins 10/10")
    check(1.99 < sps["median_ratio"] < 2.03, "2x median ratio")
    check(sps["ci_excludes_1"] and sps["ci95"][0] > 1.9, "2x interval")
    check(sps["ci95"][0] <= sps["median_ratio"] <= sps["ci95"][1],
          "interval brackets the median")
    check(sps["base_iqr"] == iqr(base), "base IQR")
    check(sps["base_quartiles"] == [quantile(base, 0.25), quantile(base, 0.75)],
          "base quartiles")
    check(sps["median_gap_exceeds_base_iqr"], "2x gap beyond IQR")
    check(s["setup_s"]["wins"] == 10, "lower setup_s wins")
    check(s["all_correct"] and s["failed"] == 0, "health of clean runs")

    # A/A: same program both sides, alternating noise; the interval holds 1
    # and the medians sit within the base's IQR.
    noise = [1.0, -2.0, 3.0, -1.0, 2.0, -3.0, 0.5, -0.5, 1.5, -1.5]
    same = [b + n for b, n in zip(base, noise)]
    s = summarize(pairs_of(base, same, setup=(0.2, 0.2)))
    sps = s["sessions_per_s"]
    check(not sps["ci_excludes_1"], "A/A interval contains 1")
    check(not sps["median_gap_exceeds_base_iqr"], "A/A gap within IQR")
    check(s["setup_s"]["wins"] == 0, "equal setup_s never wins")

    # The interval is reproducible (fixed bootstrap seed).
    check(bootstrap_ci([1.0, 1.2, 0.9, 1.1]) == bootstrap_ci([1.0, 1.2, 0.9, 1.1]),
          "bootstrap is deterministic")

    # One bad run taints the summary.
    bad = pairs_of(base[:2], fast[:2])
    bad[1]["change"]["correct"] = False
    bad[0]["base"]["failed"] = 3
    s = summarize(bad)
    check(not s["all_correct"] and s["failed"] == 3, "bad runs reported")

    # Traced runs add per-side medians of each layer.
    traced = pairs_of(base[:3], fast[:3])
    for pair, (b, c) in zip(traced, ((21.0, 6.0), (20.0, 7.0), (22.0, 6.5))):
        pair["base"]["layers"] = {"session_ms": b}
        pair["change"]["layers"] = {"session_ms": c}
    s = summarize(traced)
    check(s["layers"]["base"]["session_ms"] == 21.0 and
          s["layers"]["change"]["session_ms"] == 6.5, "traced layer medians")

    record = {"args": {"workload": "byte_path", "seed": 3, "pairs": 10,
                       "seconds": 30},
              "base": "aaaaaaa", "change": "bbbbbbb",
              "host": {"cpu": "cpu", "nproc": 4, "simd": ["avx2"],
                       "load_before": 0.1, "load_after": 0.2},
              "summary": summarize(pairs_of(base, fast))}
    line = markdown(record)
    check("wins 10/10" in line and "byte_path" in line, "markdown line")
    print("ab_perf: self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--base")
    parser.add_argument("--change", default=None)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.base, args.workload, args.pairs, args.seconds, args.seed):
        parser.error("--base, --workload, --pairs, --seconds and --seed are "
                     "required")
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error("--pairs and --seconds must be >= 1, --seed >= 0")
    record = measure(args)
    print(markdown(record))
    print(json.dumps(record))
    s = record["summary"]
    return 0 if s["all_correct"] and s["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
