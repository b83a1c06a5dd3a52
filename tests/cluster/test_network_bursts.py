"""Burst delivery is the per-message medium, one event at a time fewer.

:meth:`Network.send_burst` delivers a stage's ``k`` equal messages with
one calendar event.  Every test here drives the same traffic through
both paths and requires the same delivery times, meter transitions and
counters; full runs force the per-message path by patching
:attr:`Network.coalesces`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import ChaosInjector, get_scenario
from repro.cluster import network as network_module
from repro.cluster.network import Network
from repro.cluster.topology import build_system
from repro.errors import ClusterError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import build_world, finalize_world
from repro.recovery import restore_snapshot, take_snapshot
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.sim.engine import Engine
from repro.telemetry.hub import TelemetryHub


def per_message(monkeypatch) -> None:
    """Make every medium choose the per-message path."""
    monkeypatch.setattr(Network, "coalesces", property(lambda self: False))


def record_transitions(network: Network) -> list[tuple[float, bool]]:
    """Log every busy/idle call the medium makes on its meter, in order."""
    calls: list[tuple[float, bool]] = []
    set_busy = network.meter.set_busy

    def recording(now: float, busy: bool) -> None:
        calls.append((now, busy))
        set_busy(now, busy)

    network.meter.set_busy = recording
    return calls


def counters(network: Network) -> tuple:
    return (
        network.delivered_count,
        network.delivered_bytes,
        sorted(network.delivered_by_label.items()),
        network.queue_length,
    )


class Traffic:
    """Bursts sent from calendar events, through one of the two paths."""

    def __init__(self, coalesce: bool, mode: str = "shared") -> None:
        self.coalesce = coalesce
        self.engine = Engine()
        self.net = Network(self.engine, default_overhead_bytes=1500.0, mode=mode)
        self.transitions = record_transitions(self.net)
        #: (tag, completion time) per burst, in completion order.
        self.done: list[tuple[str, float]] = []
        self.reads: list[tuple] = []

    def send(self, tag: str, count: int, payload: float) -> None:
        label = f"st.{tag}"
        if self.coalesce:
            self.net.send_burst(
                count, payload, lambda _m, t: self.done.append((tag, t)), label=label
            )
            return
        left = [count]

        def one(_message, t: float) -> None:
            left[0] -= 1
            if left[0] == 0:
                self.done.append((tag, t))

        for _ in range(count):
            self.net.send_bytes(payload, label=label, on_delivered=one)

    def at(self, t: float, tag: str, count: int, payload: float, priority: int = 0):
        self.engine.schedule_at(t, self.send, tag, count, payload, priority=priority)

    def run(self, stops) -> "Traffic":
        """Run to each stop in turn, reading the counters there."""
        for stop in stops:
            self.engine.run_until(stop)
            self.reads.append((stop, len(self.net._bursts), counters(self.net)))
        self.engine.run()
        self.reads.append(("end", 0, counters(self.net)))
        return self

    def observed(self) -> tuple:
        """Everything the two paths must agree on (not the in-flight count)."""
        return (
            self.done,
            self.transitions,
            [(stop, read) for stop, _, read in self.reads],
            self.net.meter.busy_between(0.0, self.engine.now),
        )


def both(schedule, stops, mode: str = "shared") -> tuple[Traffic, Traffic]:
    runs = []
    for coalesce in (True, False):
        traffic = Traffic(coalesce, mode)
        schedule(traffic)
        runs.append(traffic.run(stops))
    return runs[0], runs[1]


#: One message of 10 kB + 1500 B overhead takes 0.92 ms at 100 Mbit/s.
TX = (10_000.0 + 1500.0) * 8 / 100e6


class TestBurstTimes:
    @pytest.mark.parametrize("mode", ["shared", "switched"])
    def test_every_burst_size_lands_on_the_queue_times(self, mode):
        # k * tx differs from k repeated additions for some k: the
        # completion times must follow the repeated additions.
        def schedule(traffic):
            t = 0.0
            for k in range(1, 25):
                traffic.at(t, f"k{k}", k, 10_000.0 + k)
                t += 0.05
        burst, single = both(schedule, stops=(), mode=mode)
        assert burst.observed() == single.observed()
        assert len(burst.done) == 24

    def test_burst_queued_behind_burst(self):
        def schedule(traffic):
            traffic.at(0.0, "a", 7, 10_000.0)
            traffic.at(0.001, "b", 5, 4_000.0)  # queues behind "a"
            traffic.at(0.002, "c", 3, 20_000.0)  # behind both
        stops = [i * 0.0007 for i in range(1, 30)]
        burst, single = both(schedule, stops)
        assert burst.observed() == single.observed()
        assert [tag for tag, _ in burst.done] == ["a", "b", "c"]
        # The reads really saw queued bursts and part-delivered ones.
        assert max(n for _, n, _ in burst.reads) == 3
        assert any(0 < read[0] < 15 for _, _, read in burst.reads)
        # One busy stretch: the queue never drained in between.
        assert [busy for _, busy in burst.transitions] == [True, False]

    @pytest.mark.parametrize("priority", [-1, 1], ids=["before-end", "after-end"])
    def test_burst_sent_at_the_instant_another_ends(self, priority):
        end = 0.0
        for _ in range(3):
            end += TX

        def schedule(traffic):
            traffic.at(0.0, "a", 3, 10_000.0)
            traffic.at(end, "b", 2, 10_000.0, priority=priority)
        burst, single = both(schedule, stops=(end,))
        assert burst.observed() == single.observed()
        expected = [(end, False), (end, True)] if priority > 0 else []
        # Sent after the end event: idle and busy again at that instant;
        # sent before it: the medium never goes idle.
        assert burst.transitions[1:-1] == expected

    @pytest.mark.parametrize("mode", ["shared", "switched"])
    def test_counters_settle_mid_burst(self, mode):
        def schedule(traffic):
            traffic.at(0.0, "a", 40, 10_000.0)
            traffic.at(0.0101, "b", 6, 10_000.0)
        stops = [0.0005, 0.0093, 0.0101, 0.0203, 0.0300, 0.0405]
        burst, single = both(schedule, stops, mode=mode)
        assert burst.observed() == single.observed()
        assert sum(n > 0 for _, n, _ in burst.reads) >= 2

    def test_message_ids_advance_per_message(self):
        ids = []
        for coalesce in (True, False):
            network_module._message_ids.reset(100)
            traffic = Traffic(coalesce)
            traffic.at(0.0, "a", 9, 10.0)
            traffic.run(())
            ids.append(network_module._message_ids.value)
        assert ids == [109, 109]


class TestPathChoice:
    def test_plain_medium_coalesces(self):
        assert Network(Engine()).coalesces

    def test_lossy_medium_keeps_messages(self):
        net = Network(
            Engine(), loss_probability=0.1, rng=np.random.default_rng(0)
        )
        assert not net.coalesces

    def test_telemetry_keeps_messages(self):
        assert not Network(Engine(telemetry=TelemetryHub())).coalesces

    def test_armed_bandwidth_fault_keeps_messages(self):
        system = build_system(n_processors=4, seed=3)
        ChaosInjector(system, get_scenario("delay_spike")).arm(30.0)
        assert not system.network.coalesces

    def test_send_bytes_fixes_the_per_message_path(self):
        net = Network(Engine())
        net.send_bytes(10.0)
        assert not net.coalesces
        with pytest.raises(AssertionError):
            net.send_burst(2, 10.0, lambda _m, t: None)

    def test_a_coalescing_medium_takes_no_single_messages(self):
        net = Network(Engine())
        net.send_burst(2, 10.0, lambda _m, t: None)
        with pytest.raises(AssertionError):
            net.send_bytes(10.0)
        with pytest.raises(ClusterError):
            net.keep_per_message()

    def test_empty_burst_rejected(self):
        with pytest.raises(ClusterError):
            Network(Engine()).send_burst(0, 10.0, lambda _m, t: None)


#: Non-predictive placement fans each stage out over most of the 64
#: nodes; at 30 Mbit/s the shared medium is the bottleneck, bursts queue
#: and some are still in flight at ``end_time``.
FANOUT = BaselineConfig(seed=0, n_periods=20, n_nodes=64, bandwidth_bps=30e6)


def fanout_config(**baseline) -> ExperimentConfig:
    return ExperimentConfig(
        policy="nonpredictive",
        pattern="triangular",
        max_workload_units=30.0,
        baseline=replace(FANOUT, **baseline),
    )


def run_world(config, estimator, stops):
    world = build_world(config, estimator)
    net = world.system.network
    transitions = record_transitions(net)
    reads = []
    in_flight = []
    for stop in (*stops, world.end_time):
        world.system.engine.run_until(stop)
        in_flight.append(len(net._bursts))
        reads.append(counters(net))
    result = finalize_world(world)
    observed = (
        result.decision_digest,
        result.metrics.as_dict(),
        result.final_placement,
        transitions,
        reads,
    )
    return observed, in_flight, world.system.engine.executed_count


class TestFullRuns:
    @pytest.mark.parametrize(
        "baseline",
        [
            pytest.param({}, id="shared"),
            pytest.param(
                {"network_mode": "switched", "bandwidth_bps": 5e6, "n_periods": 30},
                id="switched",
            ),
        ],
    )
    def test_run_is_identical_on_both_paths(
        self, baseline, fitted_estimator, monkeypatch
    ):
        config = fanout_config(**baseline)
        stops = [0.5 + 0.73 * i for i in range(24)]
        burst, in_flight, burst_events = run_world(config, fitted_estimator, stops)
        per_message(monkeypatch)
        single, _, single_events = run_world(config, fitted_estimator, stops)
        assert burst == single
        delivered = burst[-1][-1][0]
        assert delivered > 200
        assert burst_events < single_events - delivered // 2
        # Reads mid-run (and, on the shared medium, at end_time) met
        # bursts still in flight.
        assert sum(n > 0 for n in in_flight[:-1]) >= 10
        assert in_flight[-1] > 0 or "network_mode" in baseline

    def test_watchdog_aborts_a_period_with_a_burst_in_flight(
        self, task, assignment, monkeypatch
    ):
        def run():
            system = build_system(n_processors=6, seed=4, bandwidth_bps=2e5)
            net = system.network
            transitions = record_transitions(net)
            executor = PeriodicTaskExecutor(
                system, task, assignment, lambda c: 3000.0, ExecutorConfig()
            )
            bursts_at_abort = []
            abort = executor._abort

            def recording_abort(flight):
                bursts_at_abort.append(len(net._bursts))
                abort(flight)

            executor._abort = recording_abort
            executor.start(6)
            system.engine.run_until(12.0)
            records = [
                (r.period_index, r.aborted, r.completion_time,
                 [(s.subtask_index, s.start_time, s.message_in_delay,
                   s.exec_finish_time) for s in r.stages])
                for r in executor.records
            ]
            return (records, transitions, counters(net)), bursts_at_abort

        burst, bursts_at_abort = run()
        per_message(monkeypatch)
        single, _ = run()
        assert burst == single
        assert any(r[1] for r in burst[0])  # some period was aborted
        assert any(n > 0 for n in bursts_at_abort)

    def test_snapshot_with_a_burst_in_flight_resumes_identically(
        self, fitted_estimator
    ):
        config = fanout_config()

        def finish(world):
            world.system.engine.run_until(world.end_time)
            result = finalize_world(world)
            net = world.system.network
            meter = net.meter
            return (
                result.decision_digest,
                result.metrics.as_dict(),
                counters(net),
                (meter._total_busy, meter._times, meter._cum_busy),
            )

        reference = finish(build_world(config, fitted_estimator))
        world = build_world(config, fitted_estimator)
        engine = world.system.engine
        while engine.now < 5.0 or len(world.system.network._bursts) < 2:
            assert engine.step()
        snapshot = take_snapshot(world, label="burst")
        assert finish(restore_snapshot(snapshot)) == reference
