"""Unit tests for the processor model (PS and quantum-RR disciplines)."""

from __future__ import annotations

import pytest

from repro.cluster.processor import Discipline, Job, Processor
from repro.errors import ClusterError
from repro.sim.engine import Engine
from repro.telemetry import MemorySink, TelemetryHub


def ps_processor(engine=None):
    engine = engine or Engine()
    return engine, Processor(engine, "p1")


def rr_processor(engine=None, quantum=0.001):
    engine = engine or Engine()
    return engine, Processor(
        engine, "p1", discipline=Discipline.ROUND_ROBIN, quantum=quantum
    )


class TestJob:
    def test_non_positive_demand_rejected(self):
        with pytest.raises(ClusterError):
            Job(0.0)
        with pytest.raises(ClusterError):
            Job(-1.0)

    def test_latency_before_completion_raises(self):
        with pytest.raises(ClusterError):
            Job(1.0).latency

    def test_ids_are_unique(self):
        assert Job(1.0).job_id != Job(1.0).job_id


class TestProcessorSharing:
    def test_single_job_runs_at_full_rate(self):
        engine, proc = ps_processor()
        job = proc.run_for(2.0)
        engine.run()
        assert job.completion_time == pytest.approx(2.0)
        assert job.latency == pytest.approx(2.0)

    def test_two_equal_jobs_share_equally(self):
        engine, proc = ps_processor()
        a = proc.run_for(1.0)
        b = proc.run_for(1.0)
        engine.run()
        # Both progress at rate 1/2; both finish at t=2.
        assert a.completion_time == pytest.approx(2.0)
        assert b.completion_time == pytest.approx(2.0)

    def test_short_job_finishes_first(self):
        engine, proc = ps_processor()
        long = proc.run_for(3.0)
        short = proc.run_for(1.0)
        engine.run()
        # Shared until short done: at t=2 short has 1.0 served. Then the
        # long job runs alone: 3 - 1 = 2 remaining -> finishes at t=4.
        assert short.completion_time == pytest.approx(2.0)
        assert long.completion_time == pytest.approx(4.0)

    def test_late_arrival_shares_from_arrival(self):
        engine, proc = ps_processor()
        first = proc.run_for(2.0)
        engine.schedule(1.0, proc.run_for, 0.5)
        engine.run()
        # [0,1): first alone, 1.0 served. [1,?): rate 1/2 each.
        # Second needs 0.5 -> 1.0 wall; finishes t=2.0; first then has
        # 2.0-1.0-0.5=0.5 left alone -> t=2.5.
        assert first.completion_time == pytest.approx(2.5)

    def test_completion_callback_fired(self):
        engine, proc = ps_processor()
        done = []
        proc.run_for(1.0, on_complete=lambda job, t: done.append(t))
        engine.run()
        assert done == [pytest.approx(1.0)]

    def test_active_count_and_busy(self):
        engine, proc = ps_processor()
        assert not proc.is_busy
        proc.run_for(1.0)
        proc.run_for(1.0)
        assert proc.active_count == 2
        assert proc.is_busy
        engine.run()
        assert proc.active_count == 0
        assert not proc.is_busy

    def test_utilization_reflects_busy_time(self):
        engine, proc = ps_processor()
        proc.run_for(1.0)
        engine.run_until(4.0)
        assert proc.utilization(window=4.0) == pytest.approx(0.25)

    def test_completed_jobs_counter(self):
        engine, proc = ps_processor()
        for _ in range(3):
            proc.run_for(0.5)
        engine.run()
        assert proc.completed_jobs == 3

    def test_many_equal_jobs_all_finish_together(self):
        engine, proc = ps_processor()
        jobs = [proc.run_for(1.0) for _ in range(5)]
        engine.run()
        for job in jobs:
            assert job.completion_time == pytest.approx(5.0)


class TestCancelPS:
    def test_cancel_prevents_completion(self):
        engine, proc = ps_processor()
        done = []
        job = proc.run_for(1.0, on_complete=lambda j, t: done.append(t))
        engine.run_until(0.5)
        assert proc.cancel_job(job)
        engine.run()
        assert done == []
        assert proc.active_count == 0

    def test_cancel_speeds_up_competitor(self):
        engine, proc = ps_processor()
        keep = proc.run_for(2.0)
        drop = proc.run_for(2.0)
        engine.run_until(1.0)  # each has 0.5 served
        proc.cancel_job(drop)
        engine.run()
        # keep has 1.5 remaining, now alone -> finishes at 2.5.
        assert keep.completion_time == pytest.approx(2.5)

    def test_cancel_unknown_job_returns_false(self):
        engine, proc = ps_processor()
        other = Job(1.0)
        assert not proc.cancel_job(other)

    def test_cancel_frees_busy_state(self):
        engine, proc = ps_processor()
        job = proc.run_for(10.0)
        engine.run_until(1.0)
        proc.cancel_job(job)
        assert not proc.is_busy


class TestRoundRobin:
    def test_single_job_latency_equals_demand(self):
        engine, proc = rr_processor()
        job = proc.run_for(0.010)
        engine.run()
        assert job.completion_time == pytest.approx(0.010)

    def test_two_jobs_interleave(self):
        engine, proc = rr_processor(quantum=0.001)
        a = proc.run_for(0.010)
        b = proc.run_for(0.010)
        engine.run()
        # Interleaved quantum by quantum; both finish around 0.020, with
        # a finishing one quantum before b.
        assert a.completion_time == pytest.approx(0.019, abs=1e-9)
        assert b.completion_time == pytest.approx(0.020, abs=1e-9)

    def test_short_quantum_final_partial_slice(self):
        engine, proc = rr_processor(quantum=0.003)
        job = proc.run_for(0.0055)
        engine.run()
        assert job.completion_time == pytest.approx(0.0055)

    def test_cancel_queued_job(self):
        engine, proc = rr_processor()
        running = proc.run_for(0.010)
        queued = proc.run_for(0.010)
        assert proc.cancel_job(queued)
        engine.run()
        assert running.completion_time == pytest.approx(0.010)
        assert queued.completion_time is None

    def test_cancel_running_job(self):
        engine, proc = rr_processor()
        running = proc.run_for(0.010)
        nxt = proc.run_for(0.010)
        engine.run_until(0.0005)  # mid-slice
        assert proc.cancel_job(running)
        engine.run()
        assert running.completion_time is None
        assert nxt.completion_time is not None

    def test_invalid_quantum_rejected(self):
        engine = Engine()
        with pytest.raises(ClusterError):
            Processor(engine, "p", quantum=0.0)


class TestPSvsRR:
    """The PS discipline must approximate quantum-RR (DESIGN.md §2)."""

    @pytest.mark.parametrize("demands", [
        (0.200, 0.200),
        (0.300, 0.100, 0.050),
        (0.500, 0.250, 0.125, 0.0625),
    ])
    def test_completion_times_close(self, demands):
        engine_ps, ps = ps_processor()
        engine_rr, rr = rr_processor(quantum=0.001)
        ps_jobs = [ps.run_for(d) for d in demands]
        rr_jobs = [rr.run_for(d) for d in demands]
        engine_ps.run()
        engine_rr.run()
        for ps_job, rr_job in zip(ps_jobs, rr_jobs):
            # RR lag behind PS is bounded by ~one quantum per competitor.
            assert ps_job.completion_time == pytest.approx(
                rr_job.completion_time, abs=0.002 * len(demands)
            )

    def test_staggered_arrivals_close(self):
        engine_ps, ps = ps_processor()
        engine_rr, rr = rr_processor(quantum=0.001)
        for engine, proc in ((engine_ps, ps), (engine_rr, rr)):
            proc.run_for(0.300)
            engine.schedule(0.100, proc.run_for, 0.200)
            engine.schedule(0.150, proc.run_for, 0.100)
        engine_ps.run()
        engine_rr.run()
        assert ps.completed_jobs == rr.completed_jobs == 3
        # Total busy time identical (work conservation).
        assert ps.meter.busy_between(0.0, 1.0) == pytest.approx(
            rr.meter.busy_between(0.0, 1.0), abs=1e-6
        )


class TestTraceRecords:
    def _traces(self, sink):
        return [(r["cat"], r["label"]) for r in sink.records if r["kind"] == "trace"]

    def test_job_traced_under_label_else_kind(self):
        sink = MemorySink()
        engine, proc = ps_processor(Engine(telemetry=TelemetryHub(sink)))
        proc.submit(Job(1.0, kind="exec", label="sub2"))
        proc.submit(Job(2.0, kind="exec"))
        engine.run()
        assert self._traces(sink) == [("job", "sub2"), ("job", "exec")]

    def test_fail_and_recover_are_traced(self):
        sink = MemorySink()
        engine, proc = ps_processor(Engine(telemetry=TelemetryHub(sink)))
        proc.submit(Job(5.0))
        engine.run_until(1.0)
        proc.fail()
        proc.recover()
        assert self._traces(sink) == [
            ("failure", "p1.fail"), ("failure", "p1.recover")
        ]
        assert sink.records[0]["data"] == {"lost": 1}
