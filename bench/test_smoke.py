"""Smoke test of the benchmark: a few ops per workload, names, checks, refusal.

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_OPS = 3


def seconds_for(workload: str, n_ops: int) -> str:
    """The --seconds value that gives n_ops ops."""
    seconds = n_ops / WORKLOADS[workload][1]
    assert run.op_count(workload, seconds) == n_ops
    return str(seconds)


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_code_and_spec_name_the_same_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert WORKLOAD_NAMES == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_exactly_the_spec_metrics(workload, trace):
    doc = result("--workload", workload, "--seed", "1",
                 "--seconds", seconds_for(workload, SMOKE_OPS), "--trace", str(trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] == SMOKE_OPS * (1 + trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_wrong_golden_fails_the_op(tmp_path):
    goldens = json.loads((BENCH / "goldens" / "site-survey.json").read_text())
    digests = goldens["seeds"]["1"][:SMOKE_OPS]
    run.use_checkout_sources()
    workload, _ = run.timed_setup("site-survey", 1, SMOKE_OPS, tmp_path)
    speed = run.SpeedClock(workload.speed_window_s)
    _, failures, _ = run.run_pass(workload, SMOKE_OPS, NullTracer(), speed, digests)
    assert failures == []
    digests[1] = "0" * 64
    _, failures, _ = run.run_pass(workload, SMOKE_OPS, NullTracer(), speed, digests)
    assert len(failures) == 1
    assert failures[0].startswith("op 1: digest ")


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "site-survey", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(100)]
    assert run.tail(samples) == (89.0, 90.0, 10)
    assert run.tail(samples[:5]) == (4.0, 100.0, 0)
