"""coxwide benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) that import the
package from ``src/`` of this checkout.  With ``--trace 0`` it sets up
several times to time set-up, then runs one closed loop for ``--seconds``
(at least MIN_OPS ops) and prints the end-to-end metrics.  With
``--trace 1`` it runs the loop for half of ``--seconds`` with spans around
every library call, then the same ops again untraced, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Every op's output digest is compared with the one recorded for its
canonical input in ``--store`` (by default
``perfbench/expected/<workload>.json``); an op whose input has no recorded
digest fails.  ``--record`` instead runs every input the workload can draw
once, cross-checks the outputs against ``tests/oracles.py`` and writes their
digests to ``--store``.  To compare a changed program with a parent commit,
record on the parent with ``--store FILE`` and run the child with the same
``--store FILE``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 4          # set-ups besides the measured run's own
# Typical time of worker.speed_probe on the 2-core machine where the baseline
# was taken.  Each op's latency is scaled by REF_PROBE_S over the median of
# the probes made within PROBE_WINDOW_S of it: that machine's speed changes
# about 1.6-fold for tens of seconds at a time, and the probe follows it
# (see README.md).
REF_PROBE_S = 0.00145
PROBE_WINDOW_S = 1.0
MIN_OPS = 200             # so that at least 10 latencies lie beyond p95
# peak_rss_mb is read after this many ops: past the 256 engines that
# words.engine_for keeps, since every word-ball op builds its own engine,
# so a change to that cache or to the engines' memos shows in it.
RSS_OPS = 300
BUDGET_S = 175            # the whole run, all workers included
RECORD_BUDGET_S = 1800
COVERAGE_MIN = 0.9        # share of op time the layer spans must cover

SPAN_NAMES = (
    "graphs.parse_graph",
    "classification.compute_constants", "classification.ends_verdict",
    "avoidance.is_wide", "avoidance.is_wide_avoidant",
    "avoidance.is_wide_spherical_avoidant", "avoidance.is_affine_free",
    "classify.classify",
    "words.normalize", "words.ending_letters", "words.extend_geodesic",
    "walls.build_ball", "walls.find_pencil",
    "fans.build_fan", "fans.check_fan",
    "filters.build_filter", "filters.check_filter",
    "filters.build_multitail_filter", "filters.check_multitail_filter",
    "emit.to_json",
)
CLASSIFY_SPANS = tuple(name for name in SPAN_NAMES if name.split(".")[0]
                       in ("classification", "avoidance", "classify"))
COUNT_NAMES = (
    "classify.subsets", "words.normalize.letters_in",
    "words.normalize.letters_out", "walls.build_ball.elements",
    "filters.build_filter.vertices", "filters.check_filter.edges_checked",
    "filters.check_filter.paths_enumerated",
    "filters.check_filter.wide_windows_checked",
)


class BenchError(Exception):
    pass


def spawn_worker(args, deadline, *extra, seconds=None):
    """Run one worker to completion and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--min-ops", str(max(MIN_OPS, RSS_OPS)), "--rss-ops", str(RSS_OPS),
           "--store", args.store, *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time budget") \
            from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den else 0.0


def op_scales(rep):
    """Per op, REF_PROBE_S over the median probe time near it."""
    times = [t for t, _ in rep["probes"]]
    scales = []
    for start, lat in zip(rep["starts_s"], rep["latencies_s"]):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + lat + PROBE_WINDOW_S)
        near = [d for _, d in rep["probes"][lo:hi]] or [rep["probe_s"]]
        scales.append(REF_PROBE_S / statistics.median(near))
    return scales


def measure_end_to_end(args, deadline):
    setups = [spawn_worker(args, deadline, "--setup-only")
              for _ in range(SETUP_PROBES)]
    rep = spawn_worker(args, deadline)
    setups.append(rep)
    scaled_setups = [s["setup_s"] * REF_PROBE_S / s["probe_s"] for s in setups]
    lat = rep["latencies_s"]
    scaled = [x * k for x, k in zip(lat, op_scales(rep))]
    scale = sum(scaled) / sum(lat)      # time-weighted mean over the loop
    n = len(lat)
    p50 = statistics.median(lat)
    p95 = statistics.quantiles(lat, n=20)[18]
    failed = len(rep["failures"])
    metrics = {
        "ops_per_s": (n / rep["loop_s"] / scale, "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p95_ms": (statistics.quantiles(scaled, n=20)[18] * 1e3,
                           "ms"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(scaled_setups), "s"),
    }
    notes = [
        f"closed loop, 1 client: {n} ops in {rep['loop_s']:.2f} s",
        f"{len(rep['probes'])} speed probes, median {rep['probe_s'] * 1e3:.3f}"
        f" ms (reference {REF_PROBE_S * 1e3:.3f} ms): latencies scaled by "
        f"the probes within {PROBE_WINDOW_S} s, {scale:.4f} on time average",
        f"unscaled: {n / rep['loop_s']:.4g} ops/s, p50 {p50 * 1e3:.4g} ms, "
        f"p95 {p95 * 1e3:.4g} ms",
        f"latency_p50_ms over {n} ops; latency_p95_ms over {n} ops, "
        f"{sum(1 for x in lat if x > p95)} above it",
        f"failed_frac = {failed} / {n} = {ratio(failed, n):.4f} (count)",
        "every op's output compared with its recorded digest",
        f"peak_rss_mb after the first {RSS_OPS} ops",
        f"setup_s = median of {len(setups)} scaled set-ups; unscaled: "
        + ", ".join(f"{s['setup_s']:.3f}" for s in setups),
    ]
    return n, rep["failures"], metrics, notes, True


def measure_traced(args, deadline):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir,
                              f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = spawn_worker(args, deadline, "--trace", "--spans-out",
                          spans_path, seconds=args.seconds / 2)
    n = len(traced["latencies_s"])
    plain = spawn_worker(args, deadline, "--max-ops", str(n))
    layers, counts = traced["layers"], traced["counts"]
    ms = {name: layers.get(name, [0, 0])[0] / 1e6 for name in SPAN_NAMES}
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.ms"] = (ms[name], "ms")
        metrics[f"{name}.calls"] = (layers.get(name, [0, 0])[1], "count")
    for name in COUNT_NAMES:
        metrics[name] = (counts.get(name, 0), "count")
    cold_classify_ms = sum(ms[name] for name in CLASSIFY_SPANS)
    subsets = counts.get("classify.subsets", 0)
    elements = counts.get("walls.build_ball.elements", 0)
    edges = counts.get("filters.check_filter.edges_checked", 0)
    metrics["classify.us_per_subset"] = (
        ratio(cold_classify_ms * 1e3, subsets), "us")
    metrics["walls.build_ball.us_per_element"] = (
        ratio(ms["walls.build_ball"] * 1e3, elements), "us")
    metrics["filters.check_filter.us_per_edge"] = (
        ratio(ms["filters.check_filter"] * 1e3, edges), "us")
    metrics["words.orbit_cap_errors"] = (
        traced["errors"].get("OrbitCapError", 0), "count")
    covered_ns, op_ns = traced["coverage"]
    cover = ratio(covered_ns, op_ns)
    overhead = ratio(traced["loop_s"] / traced["probe_s"],
                     plain["loop_s"] / plain["probe_s"]) - 1
    metrics["trace.coverage_frac"] = (cover, "frac")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.ops"] = (n, "count")
    metrics["trace.spans"] = (traced["spans"], "count")
    metrics["trace.traced_loop_s"] = (traced["loop_s"], "s")
    metrics["trace.untraced_loop_s"] = (plain["loop_s"], "s")
    cover_ok = cover >= COVERAGE_MIN
    notes = [
        f"traced {n} ops in {traced['loop_s']:.2f} s; the same {n} ops "
        f"untraced in {plain['loop_s']:.2f} s",
        f"trace.overhead_frac = ({traced['loop_s']:.3f} s / "
        f"{traced['probe_s'] * 1e3:.3f} ms probe) / ({plain['loop_s']:.3f} s"
        f" / {plain['probe_s'] * 1e3:.3f} ms probe) - 1 = {overhead:.3f}"
        + (" (includes replaying classify's layers)"
           if args.workload == "classify-sweep" else ""),
        f"coverage check: layer spans cover {covered_ns / 1e6:.1f} ms of "
        f"{op_ns / 1e6:.1f} ms op time = {cover:.3f} "
        f"({'ok' if cover_ok else 'FAILED'}, needs {COVERAGE_MIN})",
        f"classify.us_per_subset = {cold_classify_ms:.1f} ms cold classify "
        f"total / {subsets} subsets",
        f"walls.build_ball.us_per_element = {ms['walls.build_ball']:.1f} ms "
        f"/ {elements} elements",
        f"filters.check_filter.us_per_edge = "
        f"{ms['filters.check_filter']:.1f} ms / {edges} edges",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    failures = dict(traced["failures"])
    failures.update(plain["failures"])
    return n, failures, metrics, notes, cover_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the output digests of every input the "
                    "workload can draw, instead of measuring")
    ap.add_argument("--store", help="digest store (default: "
                    "perfbench/expected/<workload>.json)")
    args = ap.parse_args(argv)
    if args.store is None:
        args.store = os.path.join(HERE, "expected", f"{args.workload}.json")
    args.store = os.path.abspath(args.store)
    if args.record:
        if args.trace:
            ap.error("--record runs untraced")
        args.seed, args.seconds = 0, 0
    elif args.seed is None or args.seconds is None:
        ap.error("--seed and --seconds are required")
    if not os.path.isfile(os.path.join(ROOT, "src", "coxwide", "__init__.py")):
        print("error: no src/coxwide package next to perfbench/",
              file=sys.stderr)
        return 2

    try:
        if args.record:
            rep = spawn_worker(args, time.monotonic() + RECORD_BUDGET_S,
                               "--record")
        else:
            measure = measure_traced if args.trace else measure_end_to_end
            attempted, failures, metrics, notes, checks_ok = measure(
                args, time.monotonic() + BUDGET_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        for op, msg in sorted(rep["failures"].items(),
                              key=lambda kv: int(kv[0])):
            print(f"FAILED input {op}: {msg}")
        if rep["failures"]:
            print(f"nothing recorded: {len(rep['failures'])} inputs failed")
            return 1
        print(f"recorded {rep['recorded']} outputs in {args.store}")
        return 0
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in notes:
        print("  " + line)
    for op, msg in sorted(failures.items(), key=lambda kv: int(kv[0]))[:10]:
        print(f"  FAILED op {op}: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and checks_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
