#!/usr/bin/env python3
"""SLO gate over "mobiweb-timeline/1" documents (ctest `bench.fleet_timeline`).

Usage:
    slo_check.py TIMELINE.json
    slo_check.py --from-bench BENCH_BINARY [bench args...]
    slo_check.py --self-test

Validates the timeline document bench_fleet/bench_proxy emit under
--timeline[=PATH] and gates on its SLO verdict:

  * schema is "mobiweb-timeline/1" with the meta / timeseries / derived /
    slo / traceEvents sections present;
  * every raw time series is a same-length array of finite non-negative
    integers, and the session-accounting channels are consistent (starts sum
    to the session count, every start precedes its end bucket-wise, failures
    never exceed ends, losses never exceed sends);
  * every derived series is a same-length array of numbers or nulls
    (null = undefined bucket, e.g. a ratio with a zero denominator);
  * trace retention is bounded: retained_traces <= trace_tail_target +
    failed_traces, and the Perfetto traceEvents section is structurally
    sound (complete spans carry non-negative durations);
  * every retained round is whole: each "round" span sent at least one frame
    and accounts for each one (intact + corrupted + duplicate + lost ==
    sent), and no per-frame ("frame" category) event is rendered;
  * each slo series verdict is internally consistent (drift is the recorded
    slope extrapolated across the fitted window, a breach implies
    significance and drift beyond tolerance in the bad direction) and the
    top-level breach count matches the per-series flags.

Exit code 0 when the document is valid and reports zero breaches, 1 on any
structural violation or SLO breach, 2 on usage errors.

--from-bench runs `BENCH_BINARY [args] --timeline` and checks its stdout.
--self-test exercises the verdict semantics on synthetic series (a flat
series must PASS and an injected mid-run regression must FAIL) and the round
check on synthetic spans (a whole round passes; an empty or unbalanced round
and a per-frame event fail). Stdlib only.
"""

import json
import math
import subprocess
import sys

SCHEMA = "mobiweb-timeline/1"
META_KEYS = ("sessions", "seed", "trace_tail_target", "retained_traces",
             "failed_traces")
SLO_SERIES_KEYS = ("name", "direction", "buckets", "window", "mean", "p50",
                   "p95", "p99", "max", "slope", "slope_ci95", "r2", "drift",
                   "tolerance", "significant", "breach")
MIN_BUCKETS = 8  # mirrors stats::kSloMinBuckets


def fail(msg):
    sys.exit(f"slo_check: {msg}")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# Verdict semantics (mirrors stats::evaluate_slo_series) — used by the
# self-test, with a conservative normal-theory t approximation.


def evaluate_series(values, direction, tolerance):
    """Returns (significant, breach) for one derived series."""
    pts = [(i, v) for i, v in enumerate(values)
           if v is not None and math.isfinite(v)]
    n = len(pts)
    if n < 3:
        return False, False
    mean_x = sum(p[0] for p in pts) / n
    mean_y = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mean_x) ** 2 for p in pts)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in pts)
    if sxx == 0:
        return False, False
    slope = sxy / sxx
    ss_res = sum((p[1] - (mean_y + slope * (p[0] - mean_x))) ** 2
                 for p in pts)
    df = n - 2
    stderr = math.sqrt(ss_res / df / sxx) if sxx > 0 else 0.0
    t95 = 1.96 * (1.0 + 2.5 / df)  # inflates toward small df
    ci95 = t95 * stderr
    significant = (len(values) >= MIN_BUCKETS and abs(slope) > ci95
                   and ci95 > 0.0)
    window = len(values)
    drift = slope * (window - 1) / max(abs(mean_y), 1e-12)
    breach = (direction != 0 and significant
              and (drift > tolerance if direction < 0 else -drift > tolerance))
    return significant, breach


# ---------------------------------------------------------------------------
# Document validation


def check_int_series(name, values, buckets):
    if not isinstance(values, list) or len(values) != buckets:
        fail(f"timeseries {name!r}: expected {buckets} buckets, "
             f"got {values if not isinstance(values, list) else len(values)}")
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(f"timeseries {name!r}[{i}] = {v!r} is not a non-negative "
                 "integer")


ROUND_COUNTS = ("sent", "intact", "corrupted", "duplicate", "lost")


def trace_event_errors(events):
    """Problems with the retained rounds: a round span that sent nothing or
    does not account for every frame it sent, or a per-frame event."""
    errors = []
    for i, e in enumerate(events):
        if e.get("cat") == "frame":
            errors.append(f"traceEvents[{i}]: per-frame event {e.get('name')!r}")
        if e.get("ph") != "X" or e.get("cat") != "round":
            continue
        args = e.get("args", {})
        counts = [args.get(key) for key in ROUND_COUNTS]
        if not all(isinstance(c, int) and not isinstance(c, bool)
                   for c in counts):
            errors.append(f"traceEvents[{i}]: round counts {counts!r}")
            continue
        sent, intact, corrupted, duplicate, lost = counts
        if sent < 1:
            errors.append(f"traceEvents[{i}]: {e.get('name')!r} sent no frames")
        elif intact + corrupted + duplicate + lost != sent:
            errors.append(f"traceEvents[{i}]: {e.get('name')!r} accounts for "
                          f"{intact + corrupted + duplicate + lost} of "
                          f"{sent} frames")
    return errors


def check_document(doc):
    if doc.get("schema") != SCHEMA:
        fail(f"expected schema {SCHEMA!r}, got {doc.get('schema')!r}")

    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("missing meta object")
    for key in META_KEYS:
        if not isinstance(meta.get(key), int):
            fail(f"meta.{key} missing or not an integer")
    if meta["retained_traces"] > meta["trace_tail_target"] + meta["failed_traces"]:
        fail(f"retention unbounded: retained_traces={meta['retained_traces']} "
             f"> trace_tail_target={meta['trace_tail_target']} + "
             f"failed_traces={meta['failed_traces']}")

    ts = doc.get("timeseries")
    if not isinstance(ts, dict):
        fail("missing timeseries object")
    buckets = ts.get("buckets")
    if not isinstance(buckets, int) or buckets < 0:
        fail(f"timeseries.buckets = {buckets!r}")
    if not is_number(ts.get("bucket_width_s")) or ts["bucket_width_s"] <= 0:
        fail(f"timeseries.bucket_width_s = {ts.get('bucket_width_s')!r}")
    series = ts.get("series")
    if not isinstance(series, dict) or not series:
        fail("timeseries.series missing or empty")
    for name, values in series.items():
        check_int_series(name, values, buckets)

    # Session accounting: starts sum to the fleet size, prefix-monotone
    # against ends, failures bounded by ends, losses bounded by sends.
    for key in ("sessions_started", "sessions_ended", "sessions_failed",
                "frames_sent", "frames_lost"):
        if key not in series:
            fail(f"timeseries.series missing {key!r}")
    started, ended = series["sessions_started"], series["sessions_ended"]
    if sum(started) != meta["sessions"]:
        fail(f"sessions_started sums to {sum(started)}, "
             f"meta.sessions = {meta['sessions']}")
    if sum(ended) != meta["sessions"]:
        fail(f"sessions_ended sums to {sum(ended)} != {meta['sessions']} "
             "(run not drained?)")
    cum_started = cum_ended = 0
    for i in range(buckets):
        cum_started += started[i]
        cum_ended += ended[i]
        if cum_ended > cum_started:
            fail(f"bucket {i}: cumulative ends {cum_ended} exceed "
                 f"cumulative starts {cum_started}")
    if sum(series["sessions_failed"]) > sum(ended):
        fail("sessions_failed exceeds sessions_ended")
    if sum(series["frames_lost"]) > sum(series["frames_sent"]):
        fail("frames_lost exceeds frames_sent")

    derived = doc.get("derived")
    if not isinstance(derived, dict) or not derived:
        fail("missing derived object")
    for name, values in derived.items():
        if not isinstance(values, list) or len(values) != buckets:
            fail(f"derived {name!r}: expected {buckets} buckets")
        for i, v in enumerate(values):
            if v is not None and not is_number(v):
                fail(f"derived {name!r}[{i}] = {v!r}")
            if is_number(v) and not math.isfinite(v):
                fail(f"derived {name!r}[{i}] is not finite")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents array")
    if meta["retained_traces"] > 0 and not events:
        fail("retained_traces > 0 but traceEvents is empty")
    for i, e in enumerate(events):
        if not isinstance(e, dict) or "ph" not in e:
            fail(f"traceEvents[{i}] malformed")
        if e["ph"] == "X":
            if not is_number(e.get("dur")) or e["dur"] < 0:
                fail(f"traceEvents[{i}]: complete span with dur = "
                     f"{e.get('dur')!r}")
        if e["ph"] in ("X", "i", "C") and not is_number(e.get("ts")):
            fail(f"traceEvents[{i}]: missing ts")
    errors = trace_event_errors(events)
    if errors:
        fail(f"{len(errors)} malformed retained round(s); first: {errors[0]}")

    return check_slo(doc.get("slo"))


def check_slo(slo):
    if not isinstance(slo, dict):
        fail("missing slo object")
    if not is_number(slo.get("tolerance")) or slo["tolerance"] < 0:
        fail(f"slo.tolerance = {slo.get('tolerance')!r}")
    entries = slo.get("series")
    if not isinstance(entries, list) or not entries:
        fail("slo.series missing or empty")
    breaches = []
    for s in entries:
        for key in SLO_SERIES_KEYS:
            if key not in s:
                fail(f"slo series {s.get('name', '?')!r} missing {key!r}")
        name = s["name"]
        if s["direction"] not in (-1, 0, 1):
            fail(f"slo {name!r}: direction = {s['direction']!r}")
        for key in ("mean", "p50", "p95", "p99", "max", "slope",
                    "slope_ci95", "r2", "drift", "tolerance"):
            if not is_number(s[key]) or not math.isfinite(s[key]):
                fail(f"slo {name!r}: {key} = {s[key]!r}")
        if not s["p50"] <= s["p95"] <= s["p99"] <= s["max"]:
            fail(f"slo {name!r}: quantiles not monotone: "
                 f"p50={s['p50']} p95={s['p95']} p99={s['p99']} "
                 f"max={s['max']}")
        # Drift is the fitted slope extrapolated across the gated window,
        # normalized by the series mean — recompute and compare.
        if s["window"] >= 2:
            want = s["slope"] * (s["window"] - 1) / max(abs(s["mean"]), 1e-12)
            if not math.isclose(want, s["drift"], rel_tol=1e-6, abs_tol=1e-9):
                fail(f"slo {name!r}: drift {s['drift']} inconsistent with "
                     f"slope*(window-1)/mean = {want}")
        if s["breach"]:
            if s["direction"] == 0:
                fail(f"slo {name!r}: informational series marked breached")
            if not s["significant"]:
                fail(f"slo {name!r}: breach without significance")
            bad = (s["drift"] > s["tolerance"] if s["direction"] < 0
                   else -s["drift"] > s["tolerance"])
            if not bad:
                fail(f"slo {name!r}: breach but drift {s['drift']} within "
                     f"tolerance {s['tolerance']}")
            breaches.append(name)
    if slo.get("breaches") != len(breaches):
        fail(f"slo.breaches = {slo.get('breaches')!r} but "
             f"{len(breaches)} series breached")
    return breaches


# ---------------------------------------------------------------------------
# Modes


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    return finish(doc, check_document(doc), path)


def check_bench(cmd):
    cmd = cmd + ["--timeline"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"bench emitted invalid JSON: {e}")
    return finish(doc, check_document(doc), " ".join(cmd))


def finish(doc, breaches, source):
    meta = doc["meta"]
    if breaches:
        print(f"slo_check: FAIL ({source}): {len(breaches)} SLO breach(es): "
              f"{', '.join(breaches)}", file=sys.stderr)
        return 1
    print(f"slo_check: ok ({source}): {meta['sessions']} sessions, "
          f"{doc['timeseries']['buckets']} buckets, "
          f"{meta['retained_traces']} retained trace(s) "
          f"({meta['failed_traces']} failed), 0 breaches")
    return 0


def self_test():
    """The verdict semantics on synthetic series: flat PASSes, an injected
    mid-run regression FAILs, and ramps without significance stay quiet."""
    tol = 0.25
    n = 48
    # Deterministic low-amplitude "noise" (no RNG: reproducible everywhere).
    wobble = [0.002 * math.sin(1.7 * i) for i in range(n)]

    flat = [0.2 + w for w in wobble]
    sig, breach = evaluate_series(flat, -1, tol)
    if breach:
        fail("self-test: flat series breached")

    # Injected mid-run regression: loss fraction doubles over the back half.
    regressed = [0.2 + w + (0.2 * max(0, i - n // 2) / (n // 2))
                 for i, w in enumerate(wobble)]
    sig, breach = evaluate_series(regressed, -1, tol)
    if not sig or not breach:
        fail("self-test: injected mid-run regression not flagged "
             f"(significant={sig}, breach={breach})")

    # Same shape on a higher-is-better series is an improvement, not a breach.
    _, breach = evaluate_series(regressed, 1, tol)
    if breach:
        fail("self-test: improvement flagged as breach")

    # Informational series never breach, however steep.
    _, breach = evaluate_series([float(i) for i in range(n)], 0, tol)
    if breach:
        fail("self-test: informational series breached")

    # Too few buckets: never significant, never a breach.
    _, breach = evaluate_series(regressed[:MIN_BUCKETS - 2], -1, tol)
    if breach:
        fail("self-test: breach below the minimum bucket count")

    # Undefined buckets (None) are skipped, not fatal.
    holey = list(flat)
    holey[3] = holey[17] = None
    _, breach = evaluate_series(holey, -1, tol)
    if breach:
        fail("self-test: flat series with undefined buckets breached")

    # Round spans: a whole round passes; an empty round, an unbalanced
    # round and a frame instant fail.
    def round_span(sent, intact, corrupted, duplicate, lost):
        return {"ph": "X", "cat": "round", "name": "round 1", "ts": 0,
                "dur": 1, "args": {"sent": sent, "intact": intact,
                                   "corrupted": corrupted,
                                   "duplicate": duplicate, "foreign": 0,
                                   "lost": lost, "content": 0.5}}
    if trace_event_errors([round_span(55, 40, 9, 2, 4)]):
        fail("self-test: whole round rejected")
    for bad in ([round_span(0, 0, 0, 0, 0)], [round_span(55, 40, 9, 2, 3)],
                [{"ph": "i", "cat": "frame", "name": "frame_sent", "ts": 0}]):
        if not trace_event_errors(bad):
            fail(f"self-test: malformed trace events accepted: {bad}")

    print("slo_check: self-test ok (flat passes, injected regression fails, "
          "malformed rounds rejected)")
    return 0


def main(argv):
    if len(argv) < 2:
        sys.exit(f"slo_check: usage error\n{__doc__}")
    if argv[1] == "--self-test":
        return self_test()
    if argv[1] == "--from-bench":
        if len(argv) < 3:
            sys.exit("slo_check: --from-bench needs a bench binary")
        return check_bench(argv[2:])
    if argv[1].startswith("-"):
        sys.exit(f"slo_check: unknown option {argv[1]!r}\n{__doc__}")
    return check_file(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
