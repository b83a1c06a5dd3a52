"""Property-based tests for the DES engine.

:class:`TestCalendarContract` pins the engine's ordering contract against
an independent reference: events run in ``(time, priority, seq)`` order,
where ``seq`` counts scheduling calls in program order — including
zero-delay follow-ups scheduled from inside callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.events import Event

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


class TestEventOrdering:
    @given(delays=delays)
    def test_events_execute_in_nondecreasing_time(self, delays):
        engine = Engine()
        fired: list[float] = []
        for delay in delays:
            engine.schedule(delay, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=delays)
    def test_clock_never_goes_backwards(self, delays):
        engine = Engine()
        observed: list[float] = []
        for delay in delays:
            engine.schedule(delay, lambda: observed.append(engine.now))
        last = -1.0
        while engine.step():
            assert engine.now >= last
            last = engine.now

    @given(delays=delays, cancel_mask=st.lists(st.booleans(), min_size=50, max_size=50))
    def test_cancelled_events_never_fire(self, delays, cancel_mask):
        engine = Engine()
        fired: list[int] = []
        events = []
        for i, delay in enumerate(delays):
            events.append(engine.schedule(delay, fired.append, i))
        expected = set(range(len(delays)))
        for i, event in enumerate(events):
            if cancel_mask[i % len(cancel_mask)]:
                event.cancel()
                expected.discard(i)
        engine.run()
        assert set(fired) == expected

    @given(
        delays=delays,
        boundary=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_run_until_executes_exactly_prefix(self, delays, boundary):
        engine = Engine()
        fired: list[float] = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(d))
        engine.run_until(boundary)
        assert all(d <= boundary for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= boundary)

    @settings(max_examples=25)
    @given(
        same_time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        count=st.integers(min_value=1, max_value=20),
    )
    def test_fifo_among_simultaneous_events(self, same_time, count):
        engine = Engine()
        fired: list[int] = []
        for i in range(count):
            engine.schedule(same_time, fired.append, i)
        engine.run()
        assert fired == list(range(count))


# Few distinct times and priorities, so ties are common.
tie_times = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
priorities = st.integers(min_value=-2, max_value=2)
single_op = st.tuples(st.just("at"), st.lists(tie_times, min_size=1, max_size=1),
                      priorities, st.booleans(), st.booleans())
batch_op = st.tuples(st.just("many"), st.lists(tie_times, min_size=1, max_size=12),
                     priorities, st.booleans(), st.booleans())
programs = st.lists(st.one_of(single_op, batch_op), min_size=1, max_size=15)

#: Offset separating follow-up ids from the ids of scheduled entries.
CHILD = 10_000


@dataclass
class _Entry:
    time: float
    priority: int
    seq: int
    ident: int
    cancelled: bool = False


def _spawns(ident: int) -> bool:
    return ident < CHILD and ident % 3 == 0


def _cancels_next(ident: int) -> bool:
    return ident < CHILD and ident % 4 == 1


def _child_priority(ident: int) -> int:
    return ident % 5 - 2


def _reference_order(entries: list[_Entry], seq: int) -> list[int]:
    """Execution order by linear scan for the ``(time, priority, seq)`` min."""
    pending = list(entries)
    by_ident = {e.ident: e for e in entries}
    order: list[int] = []
    while pending:
        nxt = min(pending, key=lambda e: (e.time, e.priority, e.seq))
        pending.remove(nxt)
        if nxt.cancelled:
            continue
        order.append(nxt.ident)
        if _cancels_next(nxt.ident) and nxt.ident + 1 in by_ident:
            by_ident[nxt.ident + 1].cancelled = True
        if _spawns(nxt.ident):
            seq += 1
            child = _Entry(nxt.time, _child_priority(nxt.ident), seq,
                           nxt.ident + CHILD)
            pending.append(child)
    return order


class TestCalendarContract:
    @settings(max_examples=200)
    @given(program=programs, cancel_mask=st.lists(st.booleans(), min_size=1))
    def test_events_run_in_time_priority_seq_order(self, program, cancel_mask):
        engine = Engine()
        fired: list[int] = []
        handles: dict[int, Event] = {}

        def fire(ident: int) -> None:
            fired.append(ident)
            if _cancels_next(ident) and ident + 1 in handles:
                handles[ident + 1].cancel()
            if _spawns(ident):
                engine.schedule(0.0, fire, ident + CHILD,
                                priority=_child_priority(ident))

        entries: list[_Entry] = []
        seq = 0
        for kind, times, priority, flag_a, flag_b in program:
            idents = list(range(len(entries), len(entries) + len(times)))
            if kind == "at":
                # flag_a: schedule() with a delay from t=0, else schedule_at().
                event = (engine.schedule(times[0], fire, idents[0],
                                         priority=priority)
                         if flag_a else
                         engine.schedule_at(times[0], fire, idents[0],
                                            priority=priority))
                events = [event]
            else:
                # flag_a: sorted batch; flag_b: one shared callback.
                if flag_a:
                    times = sorted(times)
                if flag_b:
                    events = engine.schedule_many(
                        times, fire, [(i,) for i in idents], priority=priority
                    )
                else:
                    events = engine.schedule_many(
                        times,
                        [(lambda i=i: fire(i)) for i in idents],
                        priority=priority,
                    )
            for ident, t, event in zip(idents, times, events):
                seq += 1
                entries.append(_Entry(t, priority, seq, ident))
                handles[ident] = event
        for entry in entries:
            if cancel_mask[entry.ident % len(cancel_mask)]:
                handles[entry.ident].cancel()
                entry.cancelled = True

        engine.run()
        assert fired == _reference_order(entries, seq)


def _load(engine: Engine, times: list[float], priorities: list[int],
          fired: list[int]) -> list[Event]:
    """Schedule entry ``i`` at ``times[i]``; every third one spawns a
    zero-delay follow-up ``i + CHILD`` when it runs."""
    def fire(ident: int) -> None:
        fired.append(ident)
        if _spawns(ident):
            engine.schedule(0.0, fire, ident + CHILD)

    return [engine.schedule_at(t, fire, i, priority=p)
            for i, (t, p) in enumerate(zip(times, priorities))]


calendars = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(st.lists(tie_times, min_size=n, max_size=n),
                        st.lists(priorities, min_size=n, max_size=n))
)


class TestCalendarApi:
    @given(times=st.lists(tie_times, min_size=0, max_size=20),
           priority=priorities)
    def test_schedule_many_is_a_loop_of_schedule_at(self, times, priority):
        batch, loop = Engine(), Engine()
        got_batch: list[int] = []
        got_loop: list[int] = []
        events = batch.schedule_many(
            times, got_batch.append, [(i,) for i in range(len(times))],
            priority=priority,
        )
        singles = [loop.schedule_at(t, got_loop.append, i, priority=priority)
                   for i, t in enumerate(times)]
        assert [(e.time, e.seq, e.priority) for e in events] == [
            (e.time, e.seq, e.priority) for e in singles
        ]
        batch.run()
        loop.run()
        assert got_batch == got_loop

    @given(calendar=calendars,
           cuts=st.lists(st.floats(min_value=0.0, max_value=2.5,
                                   allow_nan=False), max_size=6))
    def test_chunked_run_until_matches_one_run(self, calendar, cuts):
        times, prios = calendar
        whole, chunked = Engine(), Engine()
        fired_whole: list[int] = []
        fired_chunked: list[int] = []
        _load(whole, times, prios, fired_whole)
        _load(chunked, times, prios, fired_chunked)
        whole.run()
        for cut in sorted(cuts):
            chunked.run_until(cut)
            assert chunked.now == cut
        chunked.run()
        assert fired_chunked == fired_whole

    @given(calendar=calendars, budget=st.integers(min_value=1, max_value=7))
    def test_run_max_events_resumes_where_it_stopped(self, calendar, budget):
        times, prios = calendar
        whole, sliced = Engine(), Engine()
        fired_whole: list[int] = []
        fired_sliced: list[int] = []
        _load(whole, times, prios, fired_whole)
        _load(sliced, times, prios, fired_sliced)
        total = whole.run()
        ran = 0
        while (step := sliced.run(max_events=budget)) > 0:
            assert step <= budget
            ran += step
        assert ran == total == sliced.executed_count
        assert fired_sliced == fired_whole

    @given(calendar=calendars, cancel_mask=st.lists(st.booleans(), min_size=1))
    def test_peek_time_predicts_every_step(self, calendar, cancel_mask):
        times, prios = calendar
        engine = Engine()
        for i, event in enumerate(_load(engine, times, prios, [])):
            if cancel_mask[i % len(cancel_mask)]:
                event.cancel()
        while True:
            expected = engine.peek_time()
            if not engine.step():
                assert expected is None
                break
            assert engine.now == expected

    @given(calendar=calendars,
           boundary=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 2.0]),
           cancel_mask=st.lists(st.booleans(), min_size=1))
    def test_drain_yields_exactly_the_unrun_events_in_order(
        self, calendar, boundary, cancel_mask
    ):
        times, prios = calendar
        engine = Engine()
        fired: list[int] = []
        events = _load(engine, times, prios, fired)
        for i, event in enumerate(events):
            if cancel_mask[i % len(cancel_mask)]:
                event.cancel()
        engine.run_until(boundary)
        drained = list(engine.drain())
        keys = [(e.time, e.priority, e.seq) for e in drained]
        assert keys == sorted(keys)
        assert all(e.time > boundary for e in drained)
        ran = {i for i in fired if i < CHILD}
        expected = {
            id(e) for i, e in enumerate(events)
            if not cancel_mask[i % len(cancel_mask)] and i not in ran
        }
        assert {id(e) for e in drained} == expected
        assert engine.peek_time() is None

    @given(interval=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
           start=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 3.0])),
           horizon=st.integers(min_value=0, max_value=20))
    def test_every_fires_on_the_interval_grid(self, interval, start, horizon):
        # Dyadic intervals keep the accumulated clock exact.
        engine = Engine()
        fired: list[float] = []
        engine.every(interval, lambda: fired.append(engine.now),
                     start_delay=start)
        engine.run_until(float(horizon))
        first = interval if start is None else start
        expected = []
        t = first
        while t <= horizon:
            expected.append(t)
            t += interval
        assert fired == expected
