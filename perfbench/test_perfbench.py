"""Tests of the benchmark itself (not collected by the repository's
tier-1 suite, whose ``testpaths`` is ``tests``).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

The smoke tests run every workload for a fraction of a second in both
modes and check the output schema; the tamper test shows that a
perturbed reference digest fails units and the command; the closure
tests show that broken spans fail the traced run's closure check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Sequence

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(
    args: Sequence[str], cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")
) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: "subprocess.CompletedProcess[str]") -> Dict[str, Any]:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    ] == [(name, unit, better) for name, unit, better, _ in run.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == tracing.per_layer_metrics()
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_manifest_matches_code() -> None:
    with open(run.MANIFEST) as handle:
        recorded = json.load(handle)
    generated = run.manifest()
    recorded.pop("environment")
    generated.pop("environment")
    assert recorded == generated


def _check_schema(result: Dict[str, Any], expected: List[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_schema(workload: str, trace: int) -> None:
    proc = _run([
        "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    assert proc.returncode == 0, proc.stderr
    section = "per_layer" if trace else "end_to_end"
    result = _result(proc)
    _check_schema(result, [m["name"] for m in BENCHMARK[section]])
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_tampered_digest_fails_units_and_exit(
    trace: int, monkeypatch: Any, capsys: Any
) -> None:
    reference = {
        key: ("0" * len(value) if key.startswith("fig6_fixed@") else value)
        for key, value in run.load_reference().items()
    }
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    # Seed 0 starts the scenario cycle at fig6_fixed.
    code = run.main([
        "--workload", "scalar_mix", "--seed", "0", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # A traced run checks every unit twice but counts it once.
    assert 1 <= result["failed"] <= result["attempted"]


def _closure(spans: List[Any], window: Any = (0.0, 10.0)) -> float:
    """Closure error of hand-made ``(name_id, parent, start, end)`` spans."""
    recorder = tracing.SpanRecorder()
    recorder.started, recorder.stopped = window
    ids, parents, starts, ends = zip(*spans)
    summary = recorder.summarize({
        "name_id": np.array(ids, dtype=np.int32),
        "parent": np.array(parents, dtype=np.int64),
        "start_s": np.array(starts, dtype=np.float64),
        "end_s": np.array(ends, dtype=np.float64),
    })
    return tracing.closure_error(summary, recorder.names)


def test_closure_holds_for_nested_spans() -> None:
    spans = [(0, -1, 1.0, 3.0), (1, 0, 1.5, 2.5), (1, -1, 4.0, 6.0)]
    assert _closure(spans) <= tracing.CLOSURE_TOLERANCE


@pytest.mark.parametrize("spans", [
    [(0, -1, 1.0, 3.0), (1, -1, 2.0, 4.0)],  # overlapping roots
    [(0, -1, 1.0, 0.0), (1, -1, 4.0, 6.0)],  # unclosed root
    [(0, -1, 9.0, 12.0)],  # root past the traced window
], ids=["overlap", "unclosed", "escaping"])
def test_closure_fails_for_broken_spans(spans: List[Any]) -> None:
    assert _closure(spans) > tracing.CLOSURE_TOLERANCE


def test_exits_without_result_when_program_is_missing(tmp_path: Any) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        ["--workload", "scalar_mix", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
