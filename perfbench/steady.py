"""Run every workload several times with different seeds and summarise.

    python3 perfbench/steady.py --runs 10 --first-seed 100 --out perfbench/baseline.json

For each end-to-end metric of each workload it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A benchmark is
steady when every spread but set-up time's is below a third of the metric's
bound in ``BENCHMARK.json``.  Runs go one at a time.  It also reports the
spread of the unscaled time figures each run prints, to show what the speed
probe's scaling removes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNSCALED = re.compile(r"unscaled: ([\d.e+-]+) ops/s, p50 ([\d.e+-]+) ms, "
                      r"p95 ([\d.e+-]+) ms")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    unscaled = UNSCALED.search(proc.stdout).groups()
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        dict(zip(("ops_per_s", "latency_p50_ms", "latency_p95_ms"),
                 map(float, unscaled)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append",
                    help="only this workload (repeatable)")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"runs": args.runs, "run_seconds": spec["run_seconds"],
               "seeds": [args.first_seed + k for k in range(args.runs)],
               "workloads": {}}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        raw = {name: [] for name in ("ops_per_s", "latency_p50_ms",
                                     "latency_p95_ms")}
        all_correct = True
        for seed in summary["seeds"]:
            res, unscaled = run_once(workload, seed, spec["run_seconds"])
            all_correct &= res["correct"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            for name in raw:
                raw[name].append(unscaled[name])
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok and all_correct
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                               "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": vals}
            extra = ""
            if m["name"] in raw:
                rq1, rmed, rq3 = statistics.quantiles(raw[m["name"]], n=4)
                rows[m["name"]]["unscaled_spread"] = (rq3 - rq1) / rmed
                rows[m["name"]]["unscaled_values"] = raw[m["name"]]
                extra = f", unscaled {(rq3 - rq1) / rmed:.4f}"
            print(f"{workload:15s} {m['name']:15s} median {med:10.4g} "
                  f"{m['unit']:4s} spread {spread:.4f}{extra} (bound "
                  f"{m['bound']}){'' if ok else '  TOO WIDE'}")
        summary["workloads"][workload] = {"all_correct": all_correct,
                                          "metrics": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
