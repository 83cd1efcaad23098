"""Smoke check of the benchmark at tiny input sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Each workload, the ungraded ``redshifted`` included, runs once untraced and
once traced; the last stdout line must name every metric BENCHMARK.json
declares for that mode, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["redshifted"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: value["unit"] for name, value in last["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    result = run_bench(tmp_path, "survey", 0)
    assert result.returncode != 0
    assert result.stdout == ""


def test_missing_wrapper_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", [("specband.regression", "no_such_helper", "regression.gone"),
                                            ("specband.regression", "predict", "regression.predict")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["specband.regression.no_such_helper"]
    finally:
        tracer.uninstall()
    import specband.regression

    assert not hasattr(specband.regression.predict, "__wrapped__")
