"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

They take about 90 s, most of it in the smoke runs.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import coxwide  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _fingerprint(workload, seed):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(workloads.pool_fingerprint(sys.argv[2], int(sys.argv[3])))")
    out = subprocess.run([sys.executable, "-c", code, BENCH, workload,
                          str(seed)], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs_in_two_processes(workload):
    first = _fingerprint(workload, 7)
    assert first == _fingerprint(workload, 7)
    assert first != _fingerprint(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_input_of_every_seed_has_a_recorded_output(workload):
    universe = {key for key, _ in workloads.universe(workload)}
    assert set(worker.load_store(os.path.join(
        BENCH, "expected", f"{workload}.json"))) == universe
    for seed in (0, 1, 2026):
        assert {key for key, _ in workloads.make_pool(workload, seed)} \
            <= universe


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


class _CappedLibrary:
    """The package with the word engine's orbit cap forced down to 10."""

    def __getattr__(self, name):
        return getattr(coxwide, name)

    normalize = functools.partial(coxwide.normalize, orbit_cap=10)


def _run_ops(lib, ops):
    _, _, _, done, _ = worker.run_loop(lib, ops, seconds=0, min_ops=0,
                                    max_ops=len(ops),
                                    tracer=spans.NullTracer(), rss_ops=0)
    return done


def test_wrong_or_missing_digest_and_cap_error_are_failed_ops():
    wide8 = [(key, inst) for key, inst in workloads.make_pool("word-ball", 1)
             if inst["kind"] == "normalize"
             and inst["graph"] == workloads.GRAPHS["WIDE8"]][:1]
    done = _run_ops(coxwide, wide8)
    recorded = {wide8[0][0]: done[0][2]}
    assert worker.check_ops(wide8, done, recorded) == {}
    failures = worker.check_ops(wide8, done, {wide8[0][0]: "0" * 16})
    assert list(failures) == [0]
    assert "recorded 0000000000000000" in failures[0]
    failures = worker.check_ops(wide8, done, {})
    assert list(failures) == [0]
    assert "no recorded output" in failures[0]

    failures = worker.check_ops(wide8, _run_ops(_CappedLibrary(), wide8),
                                recorded)
    assert list(failures) == [0]
    assert "OrbitCapError" in failures[0]


def test_self_time_subtracts_children_and_coverage_merges_intervals():
    # op 1: root 0-100 with a child 10-60 that has a child 20-30
    recorded = [(2, "a", 10, 60, 1, 1), (3, "b", 20, 30, 2, 1),
                (1, "op", 0, 100, None, 1)]
    assert spans.layer_times(recorded) == {"a": [40, 1], "b": [10, 1]}
    assert spans.coverage(recorded) == (50, 100)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_and_prints_the_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.RSS_OPS
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_prints_the_per_layer_metrics():
    result = _run("classify-sweep", 1)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["classify.classify.calls"]["value"] >= \
        run.RSS_OPS
    assert result["metrics"]["words.normalize.calls"]["value"] == 0


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    bare.mkdir()
    subprocess.run(["cp", "-r", BENCH, os.path.join(ROOT, "BENCHMARK.json"),
                    str(bare)], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-ball",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
