"""Tests for the warm-set utilization index (RM hot-path scalability).

Two families of guarantees are exercised here:

* **Query equivalence** — under randomized background load, failures,
  recoveries and reading faults, every index query (`least_utilized`,
  `processors_below`, `mean_utilization`, `utilizations`) returns
  bit-identical results to the reference O(P) scans in
  :mod:`tests.oracle`.
* **Decision equivalence** — full replication runs produce identical RM
  decision sequences on the index and with every ``System`` query
  patched to the scans, which is the acceptance bar for the index.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.index import UtilizationIndex
from repro.cluster.processor import Processor
from repro.cluster.topology import build_system
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.nonpredictive import NonPredictivePolicy
from repro.core.predictive import PredictivePolicy
from repro.errors import ClusterError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.runtime.executor import PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment

from tests import oracle
from tests.conftest import exact_estimator
from tests.oracle import same_float


def assert_queries_match(system, exclude=frozenset(), thresholds=(0.1, 0.2, 0.5)):
    """Every index-served query equals its reference scan, bit for bit."""
    got = system.least_utilized(exclude=exclude)
    want = oracle.least_utilized(system, exclude=exclude)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got.name == want.name
    for threshold in thresholds:
        got_below = [p.name for p in system.processors_below(threshold)]
        want_below = [p.name for p in oracle.processors_below(system, threshold)]
        assert got_below == want_below
    assert same_float(system.mean_utilization(), oracle.mean_utilization(system))
    got_all = system.utilizations()
    want_all = oracle.utilizations(system)
    assert list(got_all) == list(want_all)
    assert all(same_float(got_all[name], want_all[name]) for name in want_all)


def drive_random_load(system, rng, horizon, n_jobs=120):
    """Schedule bursty background jobs across the cluster."""
    for _ in range(n_jobs):
        proc = system.processors[rng.randrange(len(system.processors))]
        start = rng.uniform(0.0, horizon)
        demand = rng.uniform(0.05, 1.5)
        system.engine.schedule_at(
            start,
            lambda p=proc, d=demand: None if p.failed else p.run_for(d, kind="bg"),
            label="test.bg",
        )


class TestIndexAgainstScan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_load_agreement(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=12, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=20.0)
        t = 0.0
        while t < 22.0:
            t += rng.uniform(0.05, 1.0)
            system.engine.run_until(t)
            exclude = frozenset(
                p.name
                for p in system.processors
                if rng.random() < 0.25
            )
            assert_queries_match(system, exclude=exclude)
            # Same-timestamp repeat must agree too (served from cache).
            assert_queries_match(system, exclude=exclude)

    def test_exclude_everything_returns_none(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        everyone = frozenset(p.name for p in system.processors)
        assert system.least_utilized(exclude=everyone) is None
        assert oracle.least_utilized(system, exclude=everyone) is None

    def test_tie_break_is_by_name(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        # All idle: every utilization is 0.0, so the name decides.
        found = system.least_utilized()
        assert found is not None and found.name == "p1"
        found = system.least_utilized(exclude={"p1", "p2"})
        assert found is not None and found.name == "p3"

    def test_below_preserves_creation_order(self):
        system = build_system(n_processors=8, clock_sync_enabled=False)
        # Load the middle processors so the selected set is non-trivial.
        for proc in system.processors[2:5]:
            proc.run_for(10.0)
        system.engine.run_until(3.0)
        names = [p.name for p in system.processors_below(0.5)]
        assert names == [p.name for p in oracle.processors_below(system, 0.5)]
        assert names == sorted(names, key=lambda n: int(n[1:]))

    def test_repeated_below_never_duplicates(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.processors[0].run_for(1.0)
        system.engine.run_until(2.0)
        for _ in range(4):
            names = [p.name for p in system.processors_below(0.9)]
            assert len(names) == len(set(names))

    def test_nondefault_window_falls_back_to_scan(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.processors[3].run_for(0.5)
        system.engine.run_until(1.0)
        # window=2.0 reads a shorter history than the index tracks; the
        # System facade must bypass the index and still be correct.
        got = system.least_utilized(window=2.0)
        want = oracle.least_utilized(system, window=2.0)
        assert got is not None and want is not None
        assert got.name == want.name
        assert system.processors_below(0.3, window=2.0) == oracle.processors_below(
            system, 0.3, window=2.0
        )
        assert system.utilizations(window=2.0) == oracle.utilizations(
            system, window=2.0
        )


class TestFailuresAndRecovery:
    def test_failed_processors_never_returned(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        system.processors[0].fail()
        system.processors[1].fail()
        assert_queries_match(system)
        found = system.least_utilized()
        assert found is not None and found.name == "p3"
        assert all(not p.failed for p in system.processors_below(1.0))

    def test_recovery_readmits_processor(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        for proc in system.processors[1:]:
            proc.run_for(20.0)
        system.engine.run_until(1.0)
        system.processors[0].fail()
        assert_queries_match(system)
        system.engine.run_until(2.0)
        system.processors[0].recover()
        assert_queries_match(system)
        found = system.least_utilized()
        assert found is not None and found.name == "p1"

    def test_direct_failed_flag_writes_stay_safe(self):
        # Some tests poke `failed` directly instead of calling fail();
        # the index reads the flag at query time, so both must work.
        system = build_system(n_processors=5, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        system.processors[0].failed = True
        assert_queries_match(system)
        system.processors[0].failed = False
        system.engine.run_until(2.0)
        assert_queries_match(system)

    def test_all_failed_yields_empty_answers(self):
        system = build_system(n_processors=3, clock_sync_enabled=False)
        for proc in system.processors:
            proc.fail()
        assert system.least_utilized() is None
        assert system.processors_below(1.0) == []

    @pytest.mark.parametrize("seed", [11, 12])
    def test_randomized_churn_agreement(self, seed):
        rng = random.Random(seed)
        system = build_system(
            n_processors=10, seed=seed, clock_sync_enabled=False
        )
        drive_random_load(system, rng, horizon=15.0)
        t = 0.0
        while t < 16.0:
            t += rng.uniform(0.1, 0.8)
            system.engine.run_until(t)
            for proc in system.processors:
                roll = rng.random()
                if roll < 0.10 and not proc.failed:
                    proc.fail()
                elif roll < 0.20 and proc.failed:
                    proc.recover()
            assert_queries_match(system)


class TestReadingFaults:
    """A reading fault changes the reported value without a busy/idle
    transition; the index must report the faulted value, like the scan."""

    def test_faulted_readings_enter_mean_and_threshold_sweep(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        system.processors[0].run_for(0.7)
        system.engine.run_until(1.0)
        system.mean_utilization()  # warm the index before the faults
        system.processor("p2").reading_fault = lambda reading: 0.9
        system.processor("p4").reading_fault = lambda reading: 0.9
        assert system.mean_utilization() == oracle.mean_utilization(system)
        assert system.mean_utilization() == pytest.approx((0.7 + 0.9 + 0.9) / 4)
        assert [p.name for p in system.processors_below(0.5)] == ["p3"]
        assert_queries_match(system)

    def test_negative_reading_wins_the_argmin(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        system.processors[2].run_for(0.5)
        system.engine.run_until(1.0)
        system.processor("p3").reading_fault = lambda reading: -1.0
        assert oracle.least_utilized(system).name == "p3"
        assert system.least_utilized().name == "p3"
        assert [p.name for p in system.processors_below(0.0)] == ["p3"]
        assert_queries_match(system, thresholds=(-2.0, -1.0, 0.0, 0.5, 1.5))

    def test_fault_set_and_cleared_at_one_instant(self):
        system = build_system(n_processors=6, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        assert_queries_match(system)
        proc = system.processor("p5")
        proc.reading_fault = lambda reading: 1.5
        assert_queries_match(system, thresholds=(0.5, 1.0, 2.0))
        proc.reading_fault = None
        assert_queries_match(system, thresholds=(0.5, 1.0, 2.0))
        assert system.mean_utilization() == 0.0

    def test_nan_first_candidate_is_kept_like_min(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        system.engine.run_until(1.0)
        system.processor("p1").reading_fault = lambda reading: float("nan")
        assert system.least_utilized().name == "p1"
        assert system.least_utilized(exclude={"p1"}).name == "p2"
        system.processor("p3").reading_fault = lambda reading: float("nan")
        assert system.least_utilized(exclude={"p1"}).name == "p2"
        assert_queries_match(system, exclude={"p1"})
        assert_queries_match(system)


class TestIndexEfficiency:
    def test_same_timestamp_queries_avoid_meter_reads(self):
        system = build_system(n_processors=64, clock_sync_enabled=False)
        for proc in system.processors[::3]:
            proc.run_for(5.0)
        system.engine.run_until(2.0)
        index = system.utilization_index
        assert index is not None
        system.least_utilized()  # first query at t=2 pays the re-reads
        reads_after_warmup = index.stats.meter_reads
        for _ in range(50):
            system.least_utilized()
        # Warm queries are served from the same-timestamp cache: zero
        # additional meter reads regardless of query count.
        assert index.stats.meter_reads == reads_after_warmup
        assert index.stats.argmin_queries == 51

    def test_stats_export_shape(self):
        system = build_system(n_processors=4, clock_sync_enabled=False)
        index = system.utilization_index
        assert index is not None
        system.least_utilized()
        system.processors_below(0.5)
        stats = index.stats.as_dict()
        assert set(stats) == {
            "argmin_queries",
            "below_queries",
            "meter_reads",
            "refreshes",
        }
        assert stats["argmin_queries"] == 1
        assert stats["below_queries"] == 1

    def test_standalone_index_matches_scan_after_refresh(self):
        system = build_system(n_processors=8, clock_sync_enabled=False)
        procs = [Processor(system.engine, f"q{i}") for i in range(8)]
        index = UtilizationIndex(system.engine, procs)
        procs[4].run_for(3.0)
        system.engine.run_until(1.5)
        index.refresh()
        found = index.argmin()
        want = min(procs, key=lambda p: (p.utilization(), p.name))
        assert found == (want.utilization(), want.name)
        assert index.stats.meter_reads == 1  # only the busy processor

    def test_a_processor_serves_one_index(self):
        system = build_system(n_processors=3, clock_sync_enabled=False)
        with pytest.raises(ClusterError, match="already indexed"):
            UtilizationIndex(system.engine, system.processors)

    def test_dormant_processors_are_never_read(self):
        system = build_system(n_processors=64, clock_sync_enabled=False)
        index = system.utilization_index
        system.processors[7].run_for(1.0)
        system.engine.run_until(2.0)
        reads = index.stats.meter_reads
        system.mean_utilization()
        assert index.stats.meter_reads == reads + 1
        # Once the busy span leaves the 5 s window, p8 retires unread.
        system.engine.run_until(6.5)
        system.mean_utilization()
        assert index.stats.meter_reads == reads + 1
        assert system.mean_utilization() == 0.0


def decision_kernel(system, queries, n_steps=25, dt=0.25):
    """An acting RM step's queries, replayed every ``dt`` seconds.

    The mean-utilization feed, a Figure 5 sweep of six argmin queries
    with a growing exclusion set, the Figure 7 sweep at two thresholds,
    and the deadline reassignment's second mean.  ``queries`` supplies
    the four calls, so the index and the scans replay the same kernel.
    """
    least, below, mean = queries
    answers = []
    t = system.engine.now
    for _ in range(n_steps):
        t += dt
        system.engine.run_until(t)
        first_mean = mean(system)
        exclude: set[str] = set()
        sweep = []
        for _ in range(6):
            found = least(system, exclude)
            if found is None:
                break
            sweep.append(found.name)
            exclude.add(found.name)
        swept = [tuple(p.name for p in below(system, u)) for u in (0.2, 0.5)]
        answers.append((first_mean, mean(system), tuple(sweep), tuple(swept)))
    return answers


def bursty_system(n_processors, seed=7):
    """A cluster with seeded bursty background load on its calendar."""
    system = build_system(
        n_processors=n_processors, seed=seed, clock_sync_enabled=False
    )
    rng = random.Random(seed)
    for _ in range(4 * n_processors):
        proc = system.processors[rng.randrange(n_processors)]
        system.engine.schedule_at(
            rng.uniform(0.0, 6.0),
            lambda p=proc, d=rng.uniform(0.05, 1.0): p.run_for(d, kind="bg"),
            label="test.bg",
        )
    return system


INDEX_QUERIES = (
    lambda system, exclude: system.least_utilized(exclude=exclude),
    lambda system, threshold: system.processors_below(threshold),
    lambda system: system.mean_utilization(),
)
SCAN_QUERIES = (
    lambda system, exclude: oracle.least_utilized(system, exclude=exclude),
    oracle.processors_below,
    oracle.mean_utilization,
)


class TestDecisionKernel:
    """The RM decision-loop kernel agrees with the scans at every size."""

    @pytest.mark.parametrize("n_processors", [6, 32, 128])
    def test_kernel_matches_scans(self, n_processors):
        system = bursty_system(n_processors)
        got = decision_kernel(system, INDEX_QUERIES)
        want = decision_kernel(bursty_system(n_processors), SCAN_QUERIES)
        assert got == want
        # The load is visible, and the index read fewer meters than the
        # scans' one per processor per query.
        assert any(0.0 < step[0] for step in got)
        assert system.utilization_index.stats.meter_reads < n_processors * 25


def run_decision_history(policy, workload, n_periods=40, horizon=41.0):
    """One full replication run; returns the RM decision sequence."""
    system = build_system(n_processors=6, seed=0)
    task = aaw_task(noise_sigma=0.0)
    placement = default_initial_placement(
        task, [p.name for p in system.processors]
    )
    assignment = ReplicaAssignment(task, placement)
    executor = PeriodicTaskExecutor(system, task, assignment, workload=workload)
    manager = AdaptiveResourceManager(
        system,
        executor,
        exact_estimator(task),
        policy=policy,
        config=RMConfig(initial_d_tracks=500.0),
    )
    manager.start(n_periods)
    executor.start(n_periods)
    system.engine.run_until(horizon)
    return [
        (
            event.time,
            event.placement,
            tuple(event.shutdowns),
            tuple(event.recoveries),
            tuple(
                (
                    outcome.subtask_index,
                    outcome.added_processors,
                    outcome.success,
                    outcome.forecast_latency,
                )
                for outcome in event.outcomes
            ),
        )
        for event in manager.history
    ]


def on_index_and_scan(run):
    """``run()`` on the index, then with every query patched to the scans."""
    with_index = run()
    with pytest.MonkeyPatch.context() as monkeypatch:
        oracle.patch_system(monkeypatch)
        with_scan = run()
    return with_index, with_scan


class TestDecisionSequenceEquivalence:
    """P=6 runs are bit-identical on the index and on the scans."""

    def rise_and_fall(self, cycle):
        return 8000.0 if cycle < 10 else 300.0

    def test_predictive_run_identical(self):
        with_index, with_scan = on_index_and_scan(
            lambda: run_decision_history(PredictivePolicy(), self.rise_and_fall)
        )
        assert with_index == with_scan
        # The run actually exercised the hot paths (grew and shrank).
        assert any(step[4] and step[4][0][1] for step in with_index)
        assert any(step[2] for step in with_index)

    def test_nonpredictive_run_identical(self):
        with_index, with_scan = on_index_and_scan(
            lambda: run_decision_history(NonPredictivePolicy(), self.rise_and_fall)
        )
        assert with_index == with_scan
        assert any(step[4] and step[4][0][1] for step in with_index)

    def test_predictive_run_with_failure_identical(self):
        def run():
            system = build_system(n_processors=6, seed=0)
            task = aaw_task(noise_sigma=0.0)
            placement = default_initial_placement(
                task, [p.name for p in system.processors]
            )
            assignment = ReplicaAssignment(task, placement)
            executor = PeriodicTaskExecutor(
                system, task, assignment, workload=lambda c: 6000.0
            )
            manager = AdaptiveResourceManager(
                system,
                executor,
                exact_estimator(task),
                policy=PredictivePolicy(),
                config=RMConfig(initial_d_tracks=500.0),
            )
            manager.start(30)
            executor.start(30)
            system.engine.schedule_at(
                9.5, system.processors[2].fail, label="test.fail"
            )
            system.engine.schedule_at(
                18.5, system.processors[2].recover, label="test.recover"
            )
            system.engine.run_until(31.0)
            return [
                (event.time, event.placement, tuple(event.recoveries))
                for event in manager.history
            ]

        with_index, with_scan = on_index_and_scan(run)
        assert with_index == with_scan
        assert any(step[2] for step in with_index)  # migration happened

    @pytest.mark.parametrize("policy", ["predictive", "nonpredictive"])
    def test_mayhem_hardened_run_identical(self, policy, fitted_estimator):
        """Chaos injects negative, frozen and >1 readings; the index must
        still take the scans' decisions."""
        config = ExperimentConfig(
            policy=policy,
            pattern="triangular",
            max_workload_units=15.0,
            baseline=BaselineConfig(n_periods=120, n_nodes=6, seed=0),
            chaos_scenario="mayhem",
            hardened=True,
        )
        with_index, with_scan = on_index_and_scan(
            lambda: run_experiment(config, estimator=fitted_estimator)
        )
        assert with_index.decision_digest == with_scan.decision_digest
        assert with_index.metrics == with_scan.metrics
