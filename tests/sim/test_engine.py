"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine


class _RefEvent:
    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceCalendar:
    """A linear-scan calendar with the engine's ordering contract.

    Runs events in ``(time, priority, seq)`` order by scanning a plain
    list — slow but obviously right — so :class:`Engine` can be checked
    against it on arbitrary driver programs.
    """

    def __init__(self):
        self.now = 0.0
        self._pending = []
        self._seq = 0

    def schedule_at(self, time, callback, priority=0):
        self._seq += 1
        event = _RefEvent(time, priority, self._seq, callback)
        self._pending.append(event)
        return event

    def schedule_many(self, times, callbacks, priority=0):
        return [self.schedule_at(t, cb, priority=priority)
                for t, cb in zip(times, callbacks)]

    def run_until(self, until):
        while True:
            live = [e for e in self._pending if not e.cancelled]
            if not live:
                break
            nxt = min(live, key=lambda e: (e.time, e.priority, e.seq))
            if nxt.time > until:
                break
            self._pending.remove(nxt)
            self.now = nxt.time
            nxt.callback()
        self.now = until


def _order_log(calendar, drive):
    """Run ``drive(calendar, log)`` and return the execution-order log."""
    log: list = []
    drive(calendar, log)
    return log


def assert_follows_reference(drive):
    """The engine must run ``drive`` in exactly the reference order."""
    expected = _order_log(_ReferenceCalendar(), drive)
    assert expected  # the driver really ran something
    assert _order_log(Engine(), drive) == expected


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_schedule_returns_pending_event(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        assert event.pending
        assert event.time == 1.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.run_until(2.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(1.0, lambda: None)

    def test_zero_delay_allowed(self):
        engine = Engine()
        fired = []
        engine.schedule(0.0, lambda: fired.append(engine.now))
        engine.run_until(0.0)
        assert fired == [0.0]

    def test_pending_count(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.pending_count == 5


class TestScheduleMany:
    def test_returns_events_in_input_order_with_consecutive_seqs(self):
        engine = Engine()
        engine.schedule_at(0.25, lambda: None)
        times = [3.0, 1.0, 2.0, 5.0, 4.0, 0.5, 6.0, 7.0]
        events = engine.schedule_many(times, lambda: None)
        assert [e.time for e in events] == times
        seqs = [e.seq for e in events]
        assert seqs == list(range(seqs[0], seqs[0] + len(times)))

    def test_per_entry_callbacks_args_and_labels(self):
        engine = Engine()
        got = []
        events = engine.schedule_many(
            [2.0, 1.0],
            [got.append, lambda x: got.append(-x)],
            [(1,), (2,)],
            labels=["a", "b"],
        )
        assert [e.label for e in events] == ["a", "b"]
        engine.run()
        assert got == [-2, 1]

    def test_length_mismatch_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.schedule_many([1.0, 2.0], [lambda: None])
        with pytest.raises(SchedulingError):
            engine.schedule_many([1.0] * 8, lambda: None, args_list=[(1,)] * 7)
        with pytest.raises(SchedulingError):
            engine.schedule_many([1.0] * 8, lambda: None, labels=["a"] * 7)

    def test_past_times_rejected(self):
        engine = Engine()
        engine.run_until(2.0)
        with pytest.raises(SchedulingError):
            engine.schedule_many([3.0, 1.0] + [4.0] * 6, lambda: None)

    def test_pending_and_executed_counts(self):
        engine = Engine()
        engine.schedule_many([float(i) for i in range(10)], lambda: None)
        engine.schedule_at(0.5, lambda: None)
        assert engine.pending_count == 11
        engine.run_until(4.5)
        assert engine.executed_count == 6
        assert engine.pending_count == 5

    def test_step_and_run_over_a_batch(self):
        engine = Engine()
        fired: list[float] = []
        engine.schedule_many(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            lambda: fired.append(engine.now),
        )
        assert engine.step() is True
        assert fired == [1.0]
        assert engine.run(max_events=3) == 3
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert engine.run() == 4
        assert engine.step() is False

    def test_empty_batch_is_a_no_op(self):
        engine = Engine()
        assert engine.schedule_many([], lambda: None) == []
        assert engine.pending_count == 0
        first = engine.schedule_at(1.0, lambda: None)
        assert first.seq == 1

    def test_shared_label_and_priority_apply_to_every_entry(self):
        engine = Engine()
        order = []
        engine.schedule_at(1.0, order.append, "single")
        events = engine.schedule_many(
            [1.0, 1.0, 1.0], order.append, [(0,), (1,), (2,)],
            priority=-1, labels="batch",
        )
        assert [e.label for e in events] == ["batch"] * 3
        assert [e.priority for e in events] == [-1] * 3
        engine.run()
        assert order == [0, 1, 2, "single"]

    def test_peek_time_spans_batches_and_singles(self):
        engine = Engine()
        engine.schedule_many([2.0 + i / 10.0 for i in range(8)], lambda: None)
        assert engine.peek_time() == 2.0
        engine.schedule_at(1.5, lambda: None)
        assert engine.peek_time() == 1.5

    def test_drain_after_partial_run_yields_the_rest_in_order(self):
        engine = Engine()
        engine.schedule_many(
            [5.0, 1.0, 3.0, 4.0, 2.0, 6.0, 8.0, 7.0],
            lambda: None,
            labels=[f"b{i}" for i in range(8)],
        )
        engine.schedule_at(0.5, lambda: None, label="s")
        engine.run_until(2.5)
        drained = [(e.time, e.label) for e in engine.drain()]
        assert drained == [
            (3.0, "b2"), (4.0, "b3"), (5.0, "b0"),
            (6.0, "b5"), (7.0, "b7"), (8.0, "b6"),
        ]
        assert engine.pending_count == 0
        assert engine.peek_time() is None


class TestOrderMatchesReference:
    """Driver programs mixing batches, singles, priorities, cancellations
    and mid-run scheduling run in the reference calendar's order."""

    def test_sorted_large_batches(self):
        def drive(engine, log):
            for c in range(5):
                base = float(c)
                times = [base + i / 20.0 for i in range(16)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append((i, j, engine.now)))
                        for j in range(16)
                    ],
                )
                engine.run_until(base + 1.0)

        assert_follows_reference(drive)

    def test_unsorted_batches(self):
        def drive(engine, log):
            rng = np.random.default_rng(3)
            for c in range(5):
                base = float(c)
                times = [base + d for d in rng.uniform(0.0, 0.9, size=24)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append((i, j, engine.now)))
                        for j in range(24)
                    ],
                )
                engine.run_until(base + 1.0)

        assert_follows_reference(drive)

    def test_batches_racing_singles_and_priorities(self):
        def drive(engine, log):
            rng = np.random.default_rng(11)
            for c in range(6):
                base = float(c)
                times = [base + d for d in rng.uniform(0.0, 0.9, size=12)]
                engine.schedule_many(
                    times,
                    [
                        (lambda i=c, j=j: log.append(("m", i, j, engine.now)))
                        for j in range(12)
                    ],
                )
                engine.schedule_at(
                    base + 0.45,
                    lambda i=c: log.append(("hi", i, engine.now)),
                    priority=-10,
                )
                engine.schedule_at(
                    base + 0.45, lambda i=c: log.append(("lo", i, engine.now))
                )
                engine.run_until(base + 1.0)

        assert_follows_reference(drive)

    def test_equal_times_resolve_by_priority_then_seq(self):
        def drive(engine, log):
            times = [1.0] * 8
            engine.schedule_many(
                times,
                [(lambda j=j: log.append(("a", j))) for j in range(8)],
                priority=5,
            )
            engine.schedule_many(
                times,
                [(lambda j=j: log.append(("b", j))) for j in range(8)],
                priority=-5,
            )
            engine.run_until(2.0)

        assert_follows_reference(drive)

    def test_callbacks_scheduling_mid_run(self):
        def drive(engine, log):
            def spawn(tag):
                log.append((tag, engine.now))
                if tag % 3 == 0:
                    engine.schedule_at(
                        engine.now + 0.01,
                        lambda: log.append(("spawned", tag, engine.now)),
                    )

            times = [1.0 + i / 10.0 for i in range(12)]
            engine.schedule_many(
                times, [(lambda j=j: spawn(j)) for j in range(12)]
            )
            engine.run_until(5.0)

        assert_follows_reference(drive)

    def test_cancellation_before_and_during_run(self):
        def drive(engine, log):
            events = engine.schedule_many(
                [1.0 + i / 10.0 for i in range(12)],
                [(lambda j=j: log.append(j)) for j in range(12)],
            )
            events[3].cancel()
            events[7].cancel()

            # Cancel a later batch event from inside a callback.
            def cancel_ten():
                log.append("cancelling")
                events[10].cancel()

            engine.schedule_at(1.55, cancel_ten, priority=-1)
            engine.run_until(3.0)

        assert_follows_reference(drive)

    def test_interleaved_many_batches_and_singles(self):
        def drive(engine, log):
            rng = np.random.default_rng(23)
            for c in range(4):
                base = float(c)
                for _ in range(3):
                    size = int(rng.integers(2, 20))
                    times = [
                        base + d for d in rng.uniform(0.0, 0.9, size=size)
                    ]
                    engine.schedule_many(
                        times,
                        [
                            (lambda t=round(t, 6): log.append(("m", t)))
                            for t in times
                        ],
                    )
                engine.schedule_at(
                    base + float(rng.uniform(0.0, 0.9)),
                    lambda i=c: log.append(("s", i, engine.now)),
                )
                engine.run_until(base + 1.0)

        assert_follows_reference(drive)


class TestExecutionOrder:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append(3))
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(2.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2, 3]

    def test_fifo_at_equal_times(self):
        engine = Engine()
        order = []
        for i in range(10):
            engine.schedule(1.0, order.append, i)
        engine.run()
        assert order == list(range(10))

    def test_priority_breaks_ties(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, order.append, "late", priority=5)
        engine.schedule(1.0, order.append, "early", priority=-5)
        engine.schedule(1.0, order.append, "mid", priority=0)
        engine.run()
        assert order == ["early", "mid", "late"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]

    def test_callback_args_passed(self):
        engine = Engine()
        got = []
        engine.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        engine.run()
        assert got == [(1, "x")]


class TestRunUntil:
    def test_stops_at_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(2.0, fired.append, 2)
        engine.schedule(3.0, fired.append, 3)
        engine.run_until(2.0)
        assert fired == [1, 2]
        assert engine.now == 2.0

    def test_clock_lands_exactly_on_until(self):
        engine = Engine()
        engine.run_until(7.25)
        assert engine.now == 7.25

    def test_run_until_past_rejected(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(SchedulingError):
            engine.run_until(4.0)

    def test_events_scheduled_during_run_execute(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(0.5, lambda: fired.append("chained"))

        engine.schedule(1.0, first)
        engine.run_until(2.0)
        assert fired == ["first", "chained"]

    def test_event_exactly_at_boundary_runs(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, fired.append, True)
        engine.run_until(2.0)
        assert fired == [True]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, fired.append, 1)
        assert event.cancel()
        engine.run()
        assert fired == []

    def test_double_cancel_returns_false(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        assert event.cancel()
        assert not event.cancel()

    def test_cancel_after_execution_returns_false(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        assert not event.cancel()

    def test_peek_time_skips_cancelled(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert engine.peek_time() == 2.0

    def test_drain_cancels_everything(self):
        engine = Engine()
        for i in range(4):
            engine.schedule(float(i + 1), lambda: None)
        drained = list(engine.drain())
        assert len(drained) == 4
        assert engine.peek_time() is None


class TestStepAndRun:
    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_step_executes_one_event(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(2.0, fired.append, 2)
        assert engine.step()
        assert fired == [1]

    def test_run_returns_executed_count(self):
        engine = Engine()
        for i in range(7):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.run() == 7

    def test_run_max_events(self):
        engine = Engine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.executed_count == 3


class TestEvery:
    def test_periodic_firing(self):
        engine = Engine()
        fired = []
        engine.every(1.0, lambda: fired.append(engine.now))
        engine.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_start_delay(self):
        engine = Engine()
        fired = []
        engine.every(1.0, lambda: fired.append(engine.now), start_delay=0.0)
        engine.run_until(2.5)
        assert fired == [0.0, 1.0, 2.0]

    def test_stop_halts_recurrence(self):
        engine = Engine()
        fired = []
        stop = engine.every(1.0, lambda: fired.append(engine.now))
        engine.run_until(2.0)
        stop()
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        engine = Engine()
        with pytest.raises(SchedulingError):
            engine.every(0.0, lambda: None)

    def test_stop_from_within_callback(self):
        engine = Engine()
        fired = []
        holder = {}

        def tick():
            fired.append(engine.now)
            if len(fired) == 2:
                holder["stop"]()

        holder["stop"] = engine.every(1.0, tick)
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]


class TestTracing:
    def test_determinism_same_seeded_program(self):
        def program():
            engine = Engine()
            out = []
            engine.schedule(1.0, out.append, "a")
            engine.schedule(1.0, out.append, "b", priority=-1)
            engine.schedule(0.5, out.append, "c")
            engine.run()
            return out

        assert program() == program() == ["c", "b", "a"]
