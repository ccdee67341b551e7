"""One benchmark process: set up, run a closed loop of ops, check, report.

Started by ``run.py`` in a fresh interpreter, so the library's caches start
empty and the set-up time includes the package import a ``cox`` user pays.
Prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE_EVERY_S = 0.1
SETUP_SPEED_PROBES = 5


def import_library():
    """The coxwide package of this checkout, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import coxwide
    if not os.path.abspath(coxwide.__file__).startswith(src + os.sep):
        raise ImportError(f"coxwide imported from {coxwide.__file__}, "
                          f"not from {src}")
    return coxwide


def speed_probe() -> float:
    """Time of a fixed piece of interpreter work, to follow the machine's speed.

    The loop does arithmetic on the interpreter's cached small integers
    (0-255) only: it allocates nothing and reads none of the program's data,
    and a first pass, not timed, brings its few cache lines back.  So what
    the library's ops did to the heap and the caches before it does not
    change its time; the collector is off while it runs.
    """
    gc.disable()
    try:
        x = 1
        for _ in range(2000):
            x = (x * 7 + 3) & 255
        start = time.perf_counter()
        for _ in range(20000):
            x = (x * 7 + 3) & 255
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_loop(lib, pool, *, seconds, min_ops, max_ops, tracer, rss_ops):
    """Closed loop with one client: each op starts when the previous returns.

    Stops after ``max_ops`` ops if given, else once ``seconds`` have passed
    and at least ``min_ops`` ops are done.  Between ops, at most every
    ``PROBE_EVERY_S``, it runs ``speed_probe``; the probes' time is not loop
    time.  Returns the loop time, one (start s, probe time s) pair per probe,
    the start of each op, one (latency s, input index, output digest or
    None, error or None, payload) tuple per op, and the peak RSS in MB after
    the first ``rss_ops`` ops.  Starts count from the loop's start.  A
    faster program completes more ops and fills more of the library's caches
    in the same time, so only the peak over a fixed number of ops compares
    across versions.
    """
    from workloads import OPS, output_digest
    done = []
    rss_mb = None
    starts = []
    probes = []
    probe_wall = 0.0
    start = last_probe = time.perf_counter()
    deadline = start + seconds
    i = 0
    while (i < max_ops if max_ops is not None
           else i < min_ops or time.perf_counter() < deadline):
        if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            probes.append((t0 - start, speed_probe()))
            last_probe = time.perf_counter()
            probe_wall += last_probe - t0
        _, inst = pool[i % len(pool)]
        tracer.begin_op(i)
        t0 = time.perf_counter()
        starts.append(t0 - start)
        try:
            text, prefix, payload = OPS[inst["kind"]](lib, tracer, f"r{i}_",
                                                      inst)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            text = prefix = payload = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        tracer.end_op()
        digest = None if error else output_digest(text, prefix)
        done.append((latency, i % len(pool), digest, error, payload))
        i += 1
        if i == rss_ops:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_s = time.perf_counter() - start - probe_wall
    return loop_s, probes, starts, done, rss_mb


def check_ops(pool, done, expected, oracles=None):
    """Failure message per failed op, keyed by op number.

    An op fails if it raised, if its input has no recorded output digest or
    its digest differs from the recorded one (unless ``expected`` is None,
    as when recording), if its own check_* said not ok, or if an
    independent check of its output fails.
    """
    from workloads import check_payload, oracle_check
    failures = {}
    for op, (_, idx, digest, error, payload) in enumerate(done):
        key, inst = pool[idx]
        if error is None and expected is not None:
            if key not in expected:
                error = f"no recorded output for input {key}"
            elif expected[key] != digest:
                error = f"output digest {digest}, recorded {expected[key]}"
        if error is None:
            error = check_payload(inst, payload)
        if error is None and oracles is not None:
            error = oracle_check(oracles, inst, payload)
        if error is not None:
            failures[op] = f"{inst['kind']}: {error}"
    return failures


def record(lib, workload, path):
    """Run every input of the workload's universe once, cross-check the
    outputs against tests/oracles.py, and store their digests."""
    import workloads
    from spans import NullTracer
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles
    pool = workloads.universe(workload)
    _, _, _, done, _ = run_loop(lib, pool, seconds=0, min_ops=0,
                                max_ops=len(pool), tracer=NullTracer(),
                                rss_ops=0)
    failures = check_ops(pool, done, None, oracles)
    if not failures:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({pool[idx][0]: digest for _, idx, digest, _, _
                       in sorted(done, key=lambda d: pool[d[1]][0])},
                      fh, indent=0)
            fh.write("\n")
    return {"recorded": 0 if failures else len(pool),
            "failures": {str(k): v for k, v in failures.items()}}


def load_store(path):
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--rss-ops", type=int, required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    lib = import_library()
    sys.path.insert(0, HERE)
    if args.record:
        print(json.dumps(record(lib, args.workload, args.store)))
        return 0
    import workloads
    from spans import NullTracer, Tracer, coverage, layer_times
    pool = workloads.make_pool(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        probe_s = statistics.median(speed_probe()
                                    for _ in range(SETUP_SPEED_PROBES))
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    loop_s, probes, starts, done, rss_mb = run_loop(
        lib, pool, seconds=args.seconds, min_ops=args.min_ops,
        max_ops=args.max_ops, tracer=tracer, rss_ops=args.rss_ops)
    failures = check_ops(pool, done, load_store(args.store))

    result = {"setup_s": setup_s, "loop_s": loop_s,
              "probe_s": statistics.median(d for _, d in probes),
              "probes": probes, "starts_s": starts,
              "latencies_s": [d[0] for d in done],
              "failures": {str(k): v for k, v in failures.items()},
              "peak_rss_mb": rss_mb}
    if args.trace:
        result["layers"] = layer_times(tracer.spans)
        result["counts"] = dict(tracer.counts)
        result["errors"] = dict(tracer.errors)
        result["coverage"] = coverage(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
