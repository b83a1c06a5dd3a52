"""Self-test of the end-to-end benchmark harness.

Slow (it starts a dozen interpreters): run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -m "slow or not slow"``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import worker
from benchmarks.e2e.trace import TARGETS, LayerTrace
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

pytestmark = pytest.mark.slow


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


def test_quick_run_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "quick.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result_set = json.loads(out.read_text())["sets"][-1]
    assert result_set["failed"] == 0
    assert set(result_set["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in result_set["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                reported = result[section][metric["name"]]
                assert reported["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(reported["value"], (int, float))
        for metric in SPEC["end_to_end"]:
            assert metric["name"] in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_workload_ends_with_the_result_line(trace):
    proc = _run("--workload", "paper_p6", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in section
    }


def test_trace_restores_every_patched_attribute():
    import importlib

    from repro.cluster.processor import Processor

    def current():
        out = []
        for module, owner, attr, *_ in TARGETS:
            mod = importlib.import_module(module)
            out.append(vars(mod if owner is None else getattr(mod, owner))[attr])
        return out

    original_submit = Processor.submit
    before = current()
    with LayerTrace():
        assert Processor.submit is not original_submit
        assert all(a is not b for a, b in zip(current(), before))
    assert Processor.submit is original_submit
    assert all(a is b for a, b in zip(current(), before))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_digests_match(name):
    from repro.api import BaselineConfig, fit_estimator

    estimator = fit_estimator(BaselineConfig(seed=0))
    (cell,) = WORKLOADS[name].cells(0, quick=True)
    untraced = worker.run_cell(cell, estimator)
    counters = worker.new_counters()
    with LayerTrace() as trace:
        traced = worker.run_cell_traced(cell, estimator, trace, counters)
    assert traced.decision_digest == untraced.decision_digest
    assert traced.metrics == untraced.metrics
    assert trace.stats["sim"].calls > 0 and counters["events"] > 0
