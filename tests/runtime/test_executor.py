"""Integration-grade unit tests for the periodic task executor."""

from __future__ import annotations

import pytest

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.errors import ConfigurationError
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.tasks.state import ReplicaAssignment


def make_executor(
    workload=lambda c: 1000.0,
    n_processors=6,
    noise=0.0,
    drop_factor=2.0,
    seed=1,
):
    system = build_system(n_processors=n_processors, seed=seed)
    task = aaw_task(noise_sigma=noise)
    placement = default_initial_placement(task, [p.name for p in system.processors])
    assignment = ReplicaAssignment(task, placement)
    executor = PeriodicTaskExecutor(
        system,
        task,
        assignment,
        workload=workload,
        config=ExecutorConfig(drop_factor=drop_factor),
    )
    return system, task, assignment, executor


class TestBasicExecution:
    def test_period_completes_with_all_stages(self):
        system, task, _, executor = make_executor()
        executor.start(1)
        system.engine.run_until(2.0)
        record = executor.records[0]
        assert record.completed
        assert len(record.stages) == 5
        assert [s.subtask_index for s in record.stages] == [1, 2, 3, 4, 5]

    def test_latency_matches_analytic_chain(self):
        """Noise-free, idle system: latency = sum of demands + wire time."""
        system, task, _, executor = make_executor(workload=lambda c: 1000.0)
        executor.start(1)
        system.engine.run_until(2.0)
        record = executor.records[0]
        exec_total = sum(
            s.service.mean_demand_seconds(1000.0) for s in task.subtasks
        )
        wire_total = sum(
            (m.wire_payload_bytes(1000.0, 1000.0) + 1500.0) * 8 / 100e6
            for m in task.messages
        )
        assert record.latency == pytest.approx(exec_total + wire_total, rel=1e-6)

    def test_periodic_releases(self):
        system, _, _, executor = make_executor(workload=lambda c: 500.0)
        executor.start(5)
        system.engine.run_until(6.0)
        assert len(executor.records) == 5
        for c, record in enumerate(executor.records):
            assert record.release_time == pytest.approx(float(c))
            assert record.period_index == c

    def test_workload_callable_drives_data_size(self):
        system, _, _, executor = make_executor(workload=lambda c: 100.0 * (c + 1))
        executor.start(3)
        system.engine.run_until(4.0)
        assert [r.d_tracks for r in executor.records] == [100.0, 200.0, 300.0]

    def test_zero_workload_period_trivially_completes(self):
        system, _, _, executor = make_executor(workload=lambda c: 0.0)
        executor.start(1)
        system.engine.run_until(1.0)
        record = executor.records[0]
        assert record.completed
        assert record.latency == 0.0
        assert not record.missed

    def test_negative_workload_rejected(self):
        system, _, _, executor = make_executor(workload=lambda c: -1.0)
        executor.start(1)
        with pytest.raises(ConfigurationError):
            system.engine.run_until(1.0)

    def test_finish_log_records_each_finished_period(self):
        system, _, _, executor = make_executor(workload=lambda c: 500.0)
        executor.start(2)
        system.engine.run_until(3.0)
        assert executor.finish_log == executor.records
        assert executor.finished_tail(5) == executor.completed_records()

    def test_current_period_tracking(self):
        system, _, _, executor = make_executor(workload=lambda c: 100.0 * (c + 1))
        executor.start(3)
        system.engine.run_until(2.5)
        assert executor.current_period_index == 2
        assert executor.current_d_tracks == 300.0


class TestReplication:
    def test_replicated_stage_splits_work(self):
        system, task, assignment, executor = make_executor(
            workload=lambda c: 6000.0
        )
        # Unreplicated first:
        executor.start(1)
        system.engine.run_until(3.0)
        unreplicated = executor.records[0].stage(3).exec_latency
        # Now with 3 replicas of subtask 3:
        system2, task2, assignment2, executor2 = make_executor(
            workload=lambda c: 6000.0
        )
        assignment2.add_replica(3, "p6")
        assignment2.add_replica(3, "p1")
        executor2.start(1)
        system2.engine.run_until(3.0)
        replicated = executor2.records[0].stage(3).exec_latency
        truth = task.subtask(3).service
        assert unreplicated == pytest.approx(
            truth.mean_demand_seconds(6000.0), rel=1e-6
        )
        assert replicated == pytest.approx(
            truth.mean_demand_seconds(2000.0), rel=0.05
        )
        assert replicated < unreplicated / 2

    def test_stage_records_replica_count(self):
        system, _, assignment, executor = make_executor()
        assignment.add_replica(3, "p6")
        executor.start(1)
        system.engine.run_until(2.0)
        assert executor.records[0].stage(3).replica_count == 2

    def test_message_burst_per_receiving_replica(self):
        system, _, assignment, executor = make_executor(workload=lambda c: 2000.0)
        assignment.add_replica(3, "p6")
        assignment.add_replica(3, "p1")
        executor.start(1)
        system.engine.run_until(2.0)
        # 4 message stages; the burst into stage 3 has 3 messages:
        # 1 + 3 + 1 + 1 = 6 in total.
        assert system.network.delivered_count == 6

    def test_replica_snapshot_taken_at_stage_start(self):
        """Replicas added mid-period affect only later stages."""
        system, _, assignment, executor = make_executor(workload=lambda c: 3000.0)
        executor.start(1)
        # Add a replica for subtask 5 while stage 1 runs.
        system.engine.schedule(0.001, assignment.add_replica, 5, "p6")
        system.engine.run_until(3.0)
        assert executor.records[0].stage(5).replica_count == 2


class TestOverloadShedding:
    def test_hopeless_period_aborted(self):
        # 20000 tracks unreplicated: Filter alone needs ~13 s.
        system, _, _, executor = make_executor(
            workload=lambda c: 20000.0, drop_factor=2.0
        )
        executor.start(1)
        system.engine.run_until(5.0)
        record = executor.records[0]
        assert record.aborted
        assert record.missed
        assert not record.completed

    def test_abort_frees_processors(self):
        system, _, _, executor = make_executor(
            workload=lambda c: 20000.0, drop_factor=1.0
        )
        executor.start(1)
        system.engine.run_until(5.0)
        assert all(not p.is_busy for p in system.processors)

    def test_in_flight_count(self):
        system, _, _, executor = make_executor(workload=lambda c: 20000.0)
        executor.start(1)
        system.engine.run_until(0.5)
        assert executor.in_flight_count == 1
        system.engine.run_until(5.0)
        assert executor.in_flight_count == 0

    def test_drop_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(drop_factor=0.5)


class TestMonitoringViews:
    def test_overdue_subtasks_detects_stuck_stage(self):
        system, _, _, executor = make_executor(
            workload=lambda c: 20000.0, drop_factor=5.0
        )
        executor.start(1)
        system.engine.run_until(1.5)  # deadline (0.99) passed, stage 3 stuck
        overdue = executor.overdue_subtasks()
        assert 3 in overdue

    def test_no_overdue_when_on_time(self):
        system, _, _, executor = make_executor(workload=lambda c: 500.0)
        executor.start(1)
        system.engine.run_until(1.5)
        assert executor.overdue_subtasks() == set()

    def test_completed_records_view(self):
        system, _, _, executor = make_executor(workload=lambda c: 500.0)
        executor.start(3)
        system.engine.run_until(2.5)
        # Two finished, one likely in flight or finished.
        assert len(executor.completed_records()) >= 2


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        def run():
            system, _, _, executor = make_executor(noise=0.1, seed=9)
            executor.start(5)
            system.engine.run_until(7.0)
            return [r.latency for r in executor.records]

        assert run() == run()

    def test_different_seed_differs(self):
        def run(seed):
            system, _, _, executor = make_executor(noise=0.1, seed=seed)
            executor.start(5)
            system.engine.run_until(7.0)
            return [r.latency for r in executor.records]

        assert run(1) != run(2)
