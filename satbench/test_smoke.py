"""Smoke test of the benchmark itself, on the reduced-size workloads.

    python3 -m pytest satbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that no op fails, that a seed reproduces its counts and digest, that traced
spans nest, and that a directory without satkit sources gets an error exit
and no result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from spans import nesting_errors, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "satbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, report_line, last_line = proc.stdout.splitlines()
    last = json.loads(last_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(report_line)["report"], last


def assert_metrics(last, specs):
    for spec in specs:
        got = last["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]
    assert set(last["metrics"]) == {spec["name"] for spec in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_determinism(workload):
    report, last = result_of(run(workload, 0))
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert report["failed_ratio"] == 0 and report["passes_agree"]
    assert_metrics(last, SPEC["end_to_end"])
    assert all(last["metrics"][s["name"]]["value"] > 0 for s in SPEC["end_to_end"])
    for key in ("nproc", "python", "platform", "seed", "passes"):
        assert key in report
    assert all("samples" in m for m in report["metrics"].values())

    again, _ = result_of(run(workload, 0))
    assert (again["digest"], again["counts"]) == (report["digest"], report["counts"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_nesting(workload):
    report, last = result_of(run(workload, 1))
    assert last["correct"] and last["failed"] == 0
    assert_metrics(last, SPEC["per_layer"])
    # The layer probe gives every timed layer metric a measurement on every
    # workload, so none of them is a constant zero.
    for spec in SPEC["per_layer"]:
        if spec["unit"] in ("s", "ms"):
            assert last["metrics"][spec["name"]]["value"] > 0, spec["name"]
    saved = BENCH / "results" / f"{workload}-seed3-trace1-small.json"
    spans = json.loads(saved.read_text(encoding="utf-8"))["spans"]
    assert spans and nesting_errors(spans) == []
    assert min(self_times(spans)) >= 0


def test_refuses_a_directory_without_satkit():
    (BENCH / "results").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
