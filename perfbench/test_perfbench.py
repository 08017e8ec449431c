"""Tests of the benchmark itself: seeded inputs, span accounting, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The smoke runs use ``--smoke`` (a few points per workload) and
``--seconds 0`` (one pass), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 3) == workloads.generate(w, 3)
        assert workloads.generate(w, 3) != workloads.generate(w, 4)


def test_stated_shapes_cover_every_point():
    for w in workloads.WORKLOADS:
        for smoke in (False, True):
            for role, spec in workloads.generate(w, 1, smoke).items():
                assert sum(spec["blocks"]) == len(spec["config"]["points"]), (w, role)


def test_self_time_is_duration_minus_children():
    spans = [
        ["task", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 4.0]


def test_nested_library_calls_open_no_span():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner, None, (), {}) + 1

    with tracer.span("task"):
        assert tracer.call("outer", outer, None, (), {}) == 2
    assert [s[0] for s in tracer.spans] == ["task", "outer"]
    assert tracer.spans[1][3] == 0


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(NAME.match(m["name"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["separated", "cli"])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    times = [m for m in SPEC["per_layer"] if m["unit"] == "s"
             and m["name"] != "trace.overhead_s"]
    # every timed layer is exercised on every workload
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in times)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "glued", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
