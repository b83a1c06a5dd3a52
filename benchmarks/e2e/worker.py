"""Child process of the end-to-end benchmark.

``run.py`` starts one of these per workload (and three ``setup`` ones
per workload for the set-up time), so every measurement begins in a
fresh interpreter.  Two commands, each printing one JSON object as the
last line of standard output:

``setup --seed N``
    Time ``import repro`` plus fitting the estimator with no cache.

``run --workload W --seed N [--seconds S | --reps R] [--trace] [--quick]``
    One untimed warm-up pass over every cell, then timed rounds (every
    cell once per round, back to back on one thread), then optionally
    one traced pass under :class:`benchmarks.e2e.trace.LayerTrace`.
    Every run of a cell must reproduce the warm-up's decision digest,
    period count and metrics; a mismatch or an exception is a failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a script: import the benchmark as a package from the
    # checkout root, not from this directory, where trace.py would
    # shadow the standard library's module of that name.
    sys.path[0] = str(ROOT)

from benchmarks.e2e.trace import LAYERS, LayerTrace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Cell  # noqa: E402

#: With a time budget, rounds continue past it until every cell has this
#: many repetitions (its lower quartile needs a few), but never past
#: twice the budget.
MIN_ROUNDS = 5
MAX_FAILURE_MESSAGES = 20


def setup(seed: int) -> dict:
    start = time.perf_counter()
    import repro.api

    imported = time.perf_counter()
    repro.api.fit_estimator(repro.api.BaselineConfig(seed=seed))
    fitted = time.perf_counter()
    return {"import_s": imported - start, "fit_s": fitted - imported}


def _hub(cell: Cell):
    """A fresh armed telemetry hub for ``cell``, or ``None`` when bare."""
    if not cell.armed:
        return None
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.slo import DEFAULT_SLO_RULES

    hub = TelemetryHub()
    hub.arm_slo(DEFAULT_SLO_RULES)
    hub.arm_profiler()
    return hub


class Gate:
    """Checks that every run of a cell reproduces its first run."""

    def __init__(self, cells: list[Cell]) -> None:
        self.cells = cells
        self.expected: list[tuple | None] = [None] * len(cells)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, i: int, phase: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{self.cells[i].label} ({phase}): {why}")

    def check(self, i: int, phase: str, result) -> None:
        metrics = result.metrics
        fingerprint = (
            result.decision_digest,
            metrics.periods_released,
            metrics.missed_deadline_ratio,
            metrics.combined,
        )
        n_periods = self.cells[i].n_periods
        if metrics.periods_released != n_periods:
            self.fail(
                i, phase, f"released {metrics.periods_released} of {n_periods} periods"
            )
        elif self.expected[i] is None:
            self.expected[i] = fingerprint
        elif fingerprint != self.expected[i]:
            self.fail(i, phase, "decision digest or metrics differ from the warm-up")

    def run(self, i: int, phase: str, fn, *args):
        """``fn(*args)`` timed; ``(result, seconds)`` or ``(None, None)``."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.fail(i, phase, traceback.format_exc().strip().splitlines()[-1])
            return None, None
        elapsed = time.perf_counter() - start
        self.check(i, phase, result)
        return result, elapsed


def run_cell(cell: Cell, estimator):
    from repro.experiments.runner import run_experiment

    return run_experiment(cell.config, estimator=estimator, telemetry=_hub(cell))


def new_counters() -> dict:
    """Zeroed public counters, summed over the traced cells."""
    return {"events": 0, "lost": 0, "delivered": 0, "dropped": 0,
            "injections": 0, "index": {}}


def run_cell_traced(cell: Cell, estimator, trace: LayerTrace, counters: dict):
    from repro.experiments.runner import build_world, finalize_world

    world = trace.call(
        "experiments.build", build_world, cell.config, estimator, 0, None, _hub(cell)
    )
    world.system.engine.run_until(world.end_time)
    result = trace.call("experiments.finalize", finalize_world, world)
    system = world.system
    counters["events"] += system.engine.executed_count
    counters["lost"] += system.network.lost_count
    counters["delivered"] += system.network.delivered_count
    counters["dropped"] += system.network.dropped_count
    if system.utilization_index is not None:
        for key, value in system.utilization_index.stats.as_dict().items():
            counters["index"][key] = counters["index"].get(key, 0) + value
    if world.injector is not None:
        counters["injections"] += len(world.injector.fault_log)
    return result


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile, interpolated linearly within the data's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def per_layer_metrics(
    trace: LayerTrace, counters: dict, traced_cell_s: float
) -> tuple[dict[str, float], dict[str, float]]:
    """The traced pass's per-layer metrics, and self seconds per layer."""
    stats = trace.stats
    layer_self = trace.layer_self_s()
    total_self = sum(layer_self.values())
    steps_us = [s * 1e6 for s in stats["core.manager"].samples]
    metrics: dict[str, float] = {
        "sim.events": counters["events"],
        "sim.self_s": layer_self["sim"],
        "sim.us_per_event": 1e6 * layer_self["sim"] / max(counters["events"], 1),
        "runtime.callbacks": stats["runtime"].calls,
        "runtime.self_s": layer_self["runtime"],
        "runtime.records_scanned": stats["runtime.completed_records"].count,
        "runtime.completed_records_s": stats["runtime.completed_records"].total_s,
        "cluster.processor.jobs": stats["cluster.processor"].count,
        "cluster.processor.self_s": layer_self["cluster.processor"],
        "cluster.network.messages": stats["cluster.network"].count,
        "cluster.network.self_s": layer_self["cluster.network"],
        "cluster.network.lost": counters["lost"],
        "cluster.meter.writes": stats["cluster.meter.write"].calls,
        "cluster.meter.write_s": stats["cluster.meter.write"].self_s,
        "cluster.meter.reads": stats["cluster.meter.read"].calls,
        "cluster.meter.read_s": stats["cluster.meter.read"].self_s,
        "cluster.index.queries": stats["cluster.index"].calls,
        "cluster.index.self_s": layer_self["cluster.index"],
        "cluster.index.meter_reads": counters["index"].get("meter_reads", 0),
        "cluster.index.rekeys": counters["index"].get("rekeys", 0),
        "core.monitor.calls": stats["core.monitor"].calls,
        "core.monitor.self_s": layer_self["core.monitor"],
        "core.allocate.calls": stats["core.allocate"].calls,
        "core.allocate.outcomes": stats["core.allocate"].count,
        "core.allocate.self_s": layer_self["core.allocate"],
        "regression.forecast_rows": stats["regression"].count,
        "regression.self_s": layer_self["regression"],
        "core.manager.steps": stats["core.manager"].calls,
        "core.manager.self_s": layer_self["core.manager"],
        "core.manager.step_p50_us": quantile(steps_us, 0.50),
        "core.manager.step_p99_us": quantile(steps_us, 0.99),
        "telemetry.calls": stats["telemetry"].calls,
        "telemetry.self_s": layer_self["telemetry"],
        "recovery.snapshots": stats["recovery"].calls,
        "recovery.snapshot_s": stats["recovery"].total_s,
        "recovery.snapshot_bytes": stats["recovery"].count,
        "chaos.injections": counters["injections"],
        "chaos.self_s": layer_self["chaos"],
        "experiments.build_s": stats["experiments.build"].self_s,
        "experiments.finalize_s": stats["experiments.finalize"].self_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = 100.0 * layer_self[layer] / total_self
    # Traced cell time = layer self times + shim cost + time outside spans.
    metrics["trace.shim_ns"] = 1e9 * trace.shim_s
    metrics["trace.shim_share"] = 100.0 * trace.shim_total_s / traced_cell_s
    metrics["trace.outside_share"] = (
        100.0 * (traced_cell_s - trace.spanned_s) / traced_cell_s
    )
    return metrics, layer_self


def run(
    workload: str,
    seed: int,
    seconds: float | None,
    reps: int | None,
    traced: bool,
    quick: bool,
) -> dict:
    boot = time.perf_counter()
    from repro.api import BaselineConfig, fit_estimator

    estimator = fit_estimator(BaselineConfig(seed=seed))
    cells = WORKLOADS[workload].cells(seed, quick)
    gate = Gate(cells)
    boot_s = time.perf_counter() - boot

    md: list[float | None] = [None] * len(cells)
    combined: list[float | None] = [None] * len(cells)
    warm = time.perf_counter()
    for i, cell in enumerate(cells):
        result, _ = gate.run(i, "warm-up", run_cell, cell, estimator)
        if result is not None:
            md[i] = result.metrics.missed_deadline_ratio
            combined[i] = result.metrics.combined
    warmup_s = time.perf_counter() - warm

    rounds: list[list[float | None]] = []
    start = time.perf_counter()
    while True:
        rounds.append(
            [gate.run(i, "timed", run_cell, cell, estimator)[1]
             for i, cell in enumerate(cells)]
        )
        timed_s = time.perf_counter() - start
        if seconds is None:
            done = len(rounds) >= reps
        else:
            done = timed_s >= 2 * seconds or (
                timed_s >= seconds and len(rounds) >= MIN_ROUNDS
            )
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace_out = None
    if traced:
        counters = new_counters()
        traced_cells: list[float | None] = []
        with LayerTrace() as trace:
            for i, cell in enumerate(cells):
                traced_cells.append(
                    gate.run(i, "traced", run_cell_traced, cell, estimator,
                             trace, counters)[1]
                )
        traced_total = sum(t for t in traced_cells if t is not None)
        metrics, layer_self = per_layer_metrics(trace, counters, traced_total)
        trace_out = {
            "cell_s": traced_cells,
            "per_layer": metrics,
            "layer_self_s": layer_self,
            "network": {k: counters[k] for k in ("delivered", "lost", "dropped")},
            "index_stats": counters["index"],
        }

    return {
        "workload": workload,
        "seed": seed,
        "cells": [cell.label for cell in cells],
        "n_periods": [cell.n_periods for cell in cells],
        "boot_s": boot_s,
        "warmup_s": warmup_s,
        "timed_s": timed_s,
        "rounds": rounds,
        "missed_deadline_ratio": md,
        "combined_c": combined,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "trace": trace_out,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--seed", type=int, required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_run.add_argument("--seed", type=int, required=True)
    budget = p_run.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--reps", type=int)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "setup":
        out = setup(args.seed)
    else:
        out = run(args.workload, args.seed, args.seconds, args.reps, args.trace,
                  args.quick)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
