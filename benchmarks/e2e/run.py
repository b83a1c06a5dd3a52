"""End-to-end benchmark of the simulator, with per-layer attribution.

Run every workload (fixed repetitions, then one traced pass each)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 \\
        --out benchmarks/e2e/out/latest.json

Run one workload for a time budget; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload paper_p6 --seed 3 --seconds 15 --trace 0

Compare two result sets (``FILE`` or ``FILE:INDEX``; the default index is
the file's last set)::

    python benchmarks/e2e/run.py compare benchmarks/e2e/out/baseline.json:0 \\
        benchmarks/e2e/out/baseline.json:1

The load is a closed loop from one process: the parent starts one child
per workload, one at a time, and the child runs its cells back to back
on one thread.  ``setup_s`` comes from three more fresh children, each
timing ``import repro`` plus an uncached estimator fit.  The exit code
is non-zero when any cell fails its correctness check.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a script: import the benchmark as a package from the
    # checkout root, not from this directory, where trace.py would
    # shadow the standard library's module of that name.
    sys.path[0] = str(ROOT)

from benchmarks.e2e.trace import LAYERS  # noqa: E402
from benchmarks.e2e.worker import quantile  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
BOOTSTRAP_RESAMPLES = 200
CHILD_TIMEOUT_S = 600
#: Reported metrics that BENCHMARK.json leaves out.  The armed-only
#: layers' seconds are exactly zero on the three bare workloads; the
#: simulated outcomes are deterministic for a seed, so any change is a
#: behaviour change (the correctness gate and the golden digests catch
#: those), while from seed to seed they vary more than any bound allows.
UNGATED_UNITS = {
    "telemetry.self_s": "s",
    "recovery.snapshot_s": "s",
    "chaos.self_s": "s",
    "missed_deadline_ratio": "fraction",
    "combined_c": "score",
    "error_rate": "fraction",
}


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    # One thread of computation per child; a fixed hash seed keeps set
    # and dict layouts, and so timings, the same from run to run.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _child(args: list[str]) -> dict:
    """Run ``worker.py ARGS`` to completion and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n{tail}"
        )
    return json.loads(lines[-1])


# -- statistics -------------------------------------------------------------


def cell_costs(rounds: list[list], n_periods: list[int]) -> list[tuple[int, float]]:
    """``(periods, seconds)`` per cell that ever ran.

    A cell's seconds are the lower quartile of its repetitions.  Every
    repetition does the same work (the gate checks the digest), so their
    spread is host noise, and on a shared host noise only ever adds time.
    """
    costs = []
    for i, n in enumerate(n_periods):
        times = [r[i] for r in rounds if r[i] is not None]
        if times:
            costs.append((n, quantile(times, 0.25)))
    return costs


def _periods_per_s(costs: list[tuple[int, float]]) -> float:
    return sum(n for n, _ in costs) / sum(s for _, s in costs)


def _bootstrap(items: list, fn) -> tuple[float, float, float]:
    """Quartiles of ``fn`` over resamples of ``items`` (seeded, repeatable)."""
    rng = random.Random(0)
    values = [
        fn([items[rng.randrange(len(items))] for _ in items])
        for _ in range(BOOTSTRAP_RESAMPLES)
    ]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(raw: dict, setup_samples: list[dict]) -> dict[str, dict]:
    """Every end-to-end metric: value plus bootstrap quartiles."""
    timing = {
        "sim_periods_per_s": _periods_per_s,
        "cell_p50_s": lambda costs: quantile(sorted(s for _, s in costs), 0.5),
        "cell_p90_s": lambda costs: quantile(sorted(s for _, s in costs), 0.9),
    }
    out = {}
    for name, fn in timing.items():
        def metric(rounds: list[list], fn=fn) -> float:
            return fn(cell_costs(rounds, raw["n_periods"]))

        q1, median, q3 = _bootstrap(raw["rounds"], metric)
        out[name] = {"value": metric(raw["rounds"]), "q1": q1, "median": median,
                     "q3": q3}
    setup = [s["import_s"] + s["fit_s"] for s in setup_samples]
    q1, median, q3 = _bootstrap(setup, statistics.median)
    out["setup_s"] = {"value": statistics.median(setup), "q1": q1, "median": median,
                      "q3": q3}
    rss = raw["peak_rss_mb"]
    out["peak_rss_mb"] = {"value": rss, "q1": rss, "median": rss, "q3": rss}
    return out


def outcomes(raw: dict) -> dict[str, float]:
    """Simulated outcomes: deterministic for a seed, reported but not gated."""
    def mean(values: list) -> float:
        present = [v for v in values if v is not None]
        return statistics.fmean(present) if present else float("nan")

    return {
        "missed_deadline_ratio": mean(raw["missed_deadline_ratio"]),
        "combined_c": mean(raw["combined_c"]),
        "error_rate": raw["failed"] / raw["attempted"],
    }


# -- one workload -------------------------------------------------------------


def measure_workload(
    name: str,
    seed: int,
    seconds: float | None,
    traced: bool,
    quick: bool,
    spec: dict,
) -> dict:
    """Set-up children, then the workload child; the workload's result."""
    n_setup = 1 if quick else SETUP_SAMPLES
    setup_samples = [_child(["setup", "--seed", str(seed)]) for _ in range(n_setup)]
    args = ["run", "--workload", name, "--seed", str(seed)]
    if quick:
        args += ["--reps", "1", "--quick"]
    elif seconds is not None:
        args += ["--seconds", repr(seconds)]
    else:
        args += ["--reps", str(WORKLOADS[name].reps)]
    if traced:
        args.append("--trace")
    raw = _child(args)

    units = dict(UNGATED_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    e2e = end_to_end(raw, setup_samples)
    for metric in e2e:
        e2e[metric]["unit"] = units[metric]
    result = {
        "workload": name,
        "seed": seed,
        "cells": raw["cells"],
        "rounds": len(raw["rounds"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "end_to_end": e2e,
        "outcomes": outcomes(raw),
        "per_layer": None,
        "setup_samples": setup_samples,
        "raw": {k: v for k, v in raw.items() if k != "trace"},
    }
    if raw["trace"] is not None:
        per_layer = dict(raw["trace"]["per_layer"])
        per_layer["setup.import_s"] = statistics.median(
            s["import_s"] for s in setup_samples
        )
        per_layer["setup.fit_s"] = statistics.median(s["fit_s"] for s in setup_samples)
        traced_s = raw["trace"]["cell_s"]
        traced_rate = sum(
            n for n, t in zip(raw["n_periods"], traced_s) if t is not None
        ) / sum(t for t in traced_s if t is not None)
        per_layer["trace_overhead"] = e2e["sim_periods_per_s"]["value"] / traced_rate
        result["per_layer"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in per_layer.items()
        }
        result["trace"] = {k: v for k, v in raw["trace"].items() if k != "per_layer"}
    return result


# -- output -------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}): {len(result['cells'])} cells x "
          f"{result['rounds']} timed repetitions")
    for metric, m in result["end_to_end"].items():
        print(f"  {metric:24s} {_fmt(m['value']):>12s} {m['unit']:10s} "
              f"[bootstrap q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}]")
    for metric, value in result["outcomes"].items():
        print(f"  {metric:24s} {_fmt(value):>12s} {UNGATED_UNITS[metric]}")
    print(f"  {result['failed']} of {result['attempted']} cell runs failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    per_layer = result["per_layer"]
    if per_layer is None:
        return
    print(f"  {'layer':20s} {'self_s':>10s} {'share':>7s}  counts and times")
    for layer in LAYERS:
        counts = ", ".join(
            f"{metric[len(layer) + 1:]}={_fmt(m['value'])}"
            for metric, m in per_layer.items()
            if metric.startswith(layer + ".")
            and not metric.endswith((".share", ".self_s"))
        )
        self_s = result["trace"]["layer_self_s"][layer]
        share = per_layer[f"{layer}.share"]["value"]
        print(f"  {layer:20s} {self_s:10.4f} {share:6.2f}%  {counts}")
    for metric in ("trace_overhead", "trace.shim_ns", "trace.shim_share",
                   "trace.outside_share", "setup.import_s",
                   "setup.fit_s"):
        m = per_layer[metric]
        print(f"  {metric:24s} {_fmt(m['value']):>12s} {m['unit']}")


def _host() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def driver_line(result: dict, traced: bool, spec: dict) -> str:
    """The one-line JSON result for a single-workload run."""
    section = "per_layer" if traced else "end_to_end"
    metrics = {
        m["name"]: {"value": result[section][m["name"]]["value"], "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# -- compare --------------------------------------------------------------------


def _load_set(ref: str) -> tuple[str, dict]:
    path, _, index = ref.partition(":")
    sets = json.loads(Path(path).read_text())["sets"]
    i = int(index) if index else -1
    return f"{path}[{i % len(sets)}]", sets[i]


def compare(ref_a: str, ref_b: str, spec: dict) -> int:
    """Print medians, quartiles and verdicts; non-zero unless all agree."""
    label_a, set_a = _load_set(ref_a)
    label_b, set_b = _load_set(ref_b)
    print(f"A = {label_a} (seed {set_a['seed']}), B = {label_b} (seed {set_b['seed']})")
    print(f"{'workload':13s} {'metric':22s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict")
    bad = 0
    for workload in WORKLOADS:
        if workload not in set_a["workloads"] or workload not in set_b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            a = set_a["workloads"][workload]["end_to_end"][metric["name"]]
            b = set_b["workloads"][workload]["end_to_end"][metric["name"]]
            bound = metric["bound"]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif -worse > bound:
                verdict = "improvement"
            else:
                verdict = "within bound"
            bad += verdict in ("unresolved", "regression")
            cell_a = f"{_fmt(a['median'])} [{_fmt(a['q1'])}, {_fmt(a['q3'])}]"
            cell_b = f"{_fmt(b['median'])} [{_fmt(b['q1'])}, {_fmt(b['q3'])}]"
            print(f"{workload:13s} {metric['name']:22s} {cell_a:>34s} {cell_b:>34s} "
                  f"{100 * worse:8.2f}% {100 * bound:5.1f}%  {verdict}")
    return 1 if bad else 0


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload and end with the one-line "
                        "JSON result (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="time budget per workload (default: fixed repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add the traced per-layer pass (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test size: first cell, 10 periods, 1 repetition")
    parser.add_argument("--out", type=Path, help="write the result set here")
    parser.add_argument("--append", action="store_true",
                        help="add the set to --out's existing sets")
    parser.add_argument("--history", type=Path,
                        help="append a one-line summary row to this JSONL file")
    parser.add_argument("--label", default="",
                        help="label of the history row (e.g. the commit measured)")
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    host = _host()
    results = {}
    try:
        for name in names:
            results[name] = measure_workload(
                name, args.seed, args.seconds, traced, args.quick, spec
            )
            print_workload(results[name])
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host["loadavg_end"] = list(os.getloadavg())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    if args.out is not None:
        result_set = {
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": host,
            "attempted": attempted,
            "failed": failed,
            "workloads": results,
        }
        sets = []
        if args.append and args.out.exists():
            sets = json.loads(args.out.read_text())["sets"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"sets": sets + [result_set]}, indent=1) + "\n")
    if args.history is not None:
        row = {
            "label": args.label,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "seed": args.seed,
            "host": host,
            "workloads": {
                name: {**{m: v["value"] for m, v in r["end_to_end"].items()},
                       **r["outcomes"]}
                for name, r in results.items()
            },
        }
        with args.history.open("a") as fh:
            fh.write(json.dumps(row) + "\n")

    print(f"host: {json.dumps(host)}")
    print(f"{attempted} cell runs, {failed} failed")
    if args.workload:
        print(driver_line(results[args.workload], traced, spec))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
