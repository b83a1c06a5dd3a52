"""The end-to-end benchmark's workloads.

A workload is a fixed list of cells; a cell is one ``run_experiment``
call.  Every cell of a workload takes the benchmark's ``--seed`` as its
``BaselineConfig.seed``, so one seed always gives the same inputs.

The cell lists were chosen so that the amount of simulated work (events
executed, meter reads) varies by only a few percent from seed to seed:
cells whose resource manager flaps between replicating and shutting
down, at some seeds but not others, would make host time follow the
seed rather than the code.  ``README.md`` records the reason for each
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Cell:
    """One ``run_experiment`` call: a label and its configuration."""

    label: str
    config: object
    #: Run under a fresh telemetry hub with SLO rules and the profiler.
    armed: bool = False

    @property
    def n_periods(self) -> int:
        return self.config.baseline.n_periods


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Timed repetitions of every cell when no time budget is given.
    reps: int
    make_cells: Callable[[int, int | None], list[Cell]]

    def cells(self, seed: int, quick: bool = False) -> list[Cell]:
        """The workload's cells; ``quick`` keeps the first, at 10 periods."""
        if quick:
            return self.make_cells(seed, 10)[:1]
        return self.make_cells(seed, None)


def _grid(
    seed: int,
    n_periods: int,
    n_nodes: int,
    combos: list[tuple[str, str, float]],
    armed: bool = False,
) -> list[Cell]:
    from repro.experiments.config import BaselineConfig, ExperimentConfig

    baseline = BaselineConfig(seed=seed, n_periods=n_periods, n_nodes=n_nodes)
    extra = (
        {"chaos_scenario": "mayhem", "hardened": True, "checkpoint": 10.0}
        if armed
        else {}
    )
    return [
        Cell(
            label=f"{policy}/{pattern}/{units:g}",
            config=ExperimentConfig(
                policy=policy,
                pattern=pattern,
                max_workload_units=units,
                baseline=baseline,
                **extra,
            ),
            armed=armed,
        )
        for policy, pattern, units in combos
    ]


def _paper_p6(seed: int, n_periods: int | None) -> list[Cell]:
    combos = [
        (policy, pattern, units)
        for policy in ("predictive", "nonpredictive")
        for pattern in ("triangular", "increasing", "decreasing")
        for units in (10.0, 20.0, 30.0)
    ]
    return _grid(seed, n_periods or 300, 6, combos)


def _cluster_p512(seed: int, n_periods: int | None) -> list[Cell]:
    combos = [
        ("predictive", "triangular", 45.0),
        ("predictive", "triangular", 60.0),
        ("predictive", "increasing", 90.0),
        ("predictive", "decreasing", 30.0),
    ]
    return _grid(seed, n_periods or 120, 512, combos)


def _fanout_p512(seed: int, n_periods: int | None) -> list[Cell]:
    combos = [
        ("nonpredictive", pattern, units)
        for pattern in ("triangular", "increasing")
        for units in (20.0, 30.0)
    ]
    return _grid(seed, n_periods or 60, 512, combos)


def _armed_p6(seed: int, n_periods: int | None) -> list[Cell]:
    combos = [
        (policy, "triangular", units)
        for policy in ("predictive", "nonpredictive")
        for units in (15.0, 30.0)
    ]
    return _grid(seed, n_periods or 120, 6, combos, armed=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_p6",
            why="The paper's own P=6 regime at 300 periods: calendar, "
            "executor, processor sharing and network dominate; cluster-state "
            "reads are cheap, so it is the control for cluster-layer changes.",
            reps=11,
            make_cells=_paper_p6,
        ),
        Workload(
            name="cluster_p512",
            why="P=512 predictive with an active RM (36-117 actions per "
            "cell): whole-cluster utilization reads dominate, the target of "
            "column-backed cluster state.",
            reps=25,
            make_cells=_cluster_p512,
        ),
        Workload(
            name="fanout_p512",
            why="P=512 non-predictive spreads replicas over ~500 processors, so "
            "each period sends hundreds of messages: network, calendar and "
            "executor dominate, with few RM reads.",
            reps=25,
            make_cells=_fanout_p512,
        ),
        Workload(
            name="armed_p6",
            why="The only workload with telemetry, SLO rules, profiler, chaos, "
            "hardening and checkpoint pickling armed; the bare workloads "
            "bypass all of these.",
            reps=41,
            make_cells=_armed_p6,
        ),
    )
}
