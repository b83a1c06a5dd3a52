"""Property: the manager's bounded finished-period tail loses nothing.

Periods are released once per period and resolve (complete, or are
aborted by the watchdog) within ``drop_factor`` periods, so they finish
out of release order.  At random instants the monitor's verdicts on
:meth:`~repro.runtime.executor.PeriodicTaskExecutor.finished_tail` must
equal its verdicts on the full
:meth:`~repro.runtime.executor.PeriodicTaskExecutor.completed_records`
list, with and without the hardened age filter, and the breaker must
see exactly the forecast/realization pairs of the full-history scan
that ``_feed_breaker`` used to make — also across a standby takeover
that restores the manager from :meth:`state_dict`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.app import aaw_task, default_initial_placement
from repro.cluster.topology import build_system
from repro.core.hardening import HardeningConfig
from repro.core.manager import AdaptiveResourceManager, RMConfig
from repro.core.predictive import PredictivePolicy
from repro.runtime.executor import ExecutorConfig, PeriodicTaskExecutor
from repro.runtime.records import PeriodRecord, StageRecord
from repro.tasks.state import ReplicaAssignment

from tests.conftest import exact_estimator

TASK = aaw_task(noise_sigma=0.0)
SUBTASKS = [s.index for s in TASK.subtasks]


@st.composite
def periods(draw):
    """One period: how it resolves and its stage latencies."""
    outcome = draw(st.sampled_from(["complete", "complete", "abort", "empty"]))
    fraction = draw(
        st.one_of(st.sampled_from([0.0, 0.05, 0.95, 1.0]), st.floats(0.0, 1.0))
    )
    stages = draw(
        st.lists(
            st.tuples(st.floats(0.0, 0.6), st.integers(1, 2)),
            min_size=len(SUBTASKS),
            max_size=len(SUBTASKS),
        )
    )
    return outcome, fraction, stages


@st.composite
def scenarios(draw):
    return (
        draw(st.sampled_from([1.0, 2.0, 3.5])),  # drop_factor
        draw(st.integers(1, 5)),  # monitor window
        draw(st.sampled_from([None, 0.25, 0.5, 1.5, 4.0, 40.0])),  # max_record_age_s
        draw(st.lists(periods(), min_size=1, max_size=30)),
        draw(
            st.lists(
                st.one_of(st.floats(0.0, 0.5), st.floats(0.5, 4.0)),
                min_size=1,
                max_size=40,
            )
        ),  # query gaps: short ones age records, long ones reorder a batch
        draw(st.lists(st.booleans(), max_size=40)),  # takeovers
        draw(
            st.lists(
                st.lists(
                    st.tuples(
                        st.sampled_from(SUBTASKS),
                        st.integers(1, 2),
                        st.floats(0.01, 1.0),
                    ),
                    max_size=4,
                ),
                max_size=40,
            )
        ),  # pending forecasts added before each query
    )


def build(drop_factor, window, max_age):
    system = build_system(n_processors=6, seed=0, clock_sync_enabled=False)
    placement = default_initial_placement(TASK, [p.name for p in system.processors])
    executor = PeriodicTaskExecutor(
        system,
        TASK,
        ReplicaAssignment(TASK, placement),
        workload=lambda c: 500.0,
        config=ExecutorConfig(drop_factor=drop_factor),
    )

    def manager():
        return AdaptiveResourceManager(
            system,
            executor,
            exact_estimator(TASK),
            PredictivePolicy(),
            config=RMConfig(monitor_window=window),
            hardening=HardeningConfig(max_record_age_s=max_age),
        )

    return executor, manager


def make_record(c, period, lag, outcome, fraction, stages):
    """Period ``c`` and the time it resolves."""
    release = c * period
    record = PeriodRecord(
        period_index=c,
        release_time=release,
        d_tracks=0.0 if outcome == "empty" else 500.0,
        deadline=TASK.deadline,
    )
    if outcome == "empty":
        return record, release
    finish = release + (lag if outcome == "abort" else fraction * lag)
    t = release
    for index, (latency, replicas) in zip(SUBTASKS, stages):
        done = t + latency <= finish
        record.stages.append(
            StageRecord(
                subtask_index=index,
                replica_count=replicas,
                start_time=t,
                exec_finish_time=t + latency if done else None,
            )
        )
        if not done:
            break
        t += latency
    return record, finish


def resolve(record, outcome, finish):
    if outcome == "abort":
        record.aborted = True
    else:
        record.completion_time = finish


def observing(manager, seen):
    """Record every ``breaker.observe`` call into ``seen``."""
    manager.breaker.observe = lambda now, forecast, realized: seen.append(
        (now, forecast, realized)
    )
    return manager


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_tail_gives_the_full_history_verdicts_and_breaker_pairs(scenario):
    drop_factor, window, max_age, specs, gaps, takeovers, forecasts = scenario
    executor, new_manager = build(drop_factor, window, max_age)
    period = TASK.period
    lag = drop_factor * period
    made = [
        (make_record(c, period, lag, outcome, fraction, stages), outcome)
        for c, (outcome, fraction, stages) in enumerate(specs)
    ]
    # Resolution order: by finish time, ties by period (as the calendar
    # would fire them); this is not release order.
    pending = sorted(made, key=lambda m: (m[0][1], m[0][0].period_index))

    observed: list = []
    manager = observing(new_manager(), observed)
    reference: list = []
    reference_seen: set[int] = set()
    reference_forecasts: dict = {}
    now = 0.0
    released = 0
    for step, gap in enumerate(gaps):
        now += gap
        while released < len(made) and made[released][0][0].release_time <= now:
            executor.records.append(made[released][0][0])
            released += 1
        while pending and pending[0][0][1] <= now:
            (record, finish), outcome = pending.pop(0)
            resolve(record, outcome, finish)
            executor.finish_log.append(record)
        if step < len(takeovers) and takeovers[step]:
            standby = observing(new_manager(), observed)
            standby.load_state_dict(manager.state_dict())
            manager = standby
        for index, replicas, value in forecasts[step] if step < len(forecasts) else ():
            manager._pending_forecasts[(index, replicas)] = value
            reference_forecasts[(index, replicas)] = value

        full = executor.completed_records()
        horizon = None if max_age is None else now - max_age
        tail = executor.finished_tail(window, horizon)
        assert tail == full[len(full) - len(tail) :]
        monitor = manager.monitor
        assert monitor.classify(
            now, tail, manager.deadlines, manager.assignment
        ) == monitor.classify(now, full, manager.deadlines, manager.assignment)

        manager._feed_breaker(now)
        for record in full:  # the full-history scan the cursor replaces
            if record.period_index in reference_seen:
                continue
            reference_seen.add(record.period_index)
            for stage in record.stages:
                if stage.stage_latency is None:
                    continue
                key = (stage.subtask_index, stage.replica_count)
                forecast = reference_forecasts.pop(key, None)
                if forecast is not None:
                    reference.append((now, forecast, stage.stage_latency))
        assert observed == reference
        assert manager._pending_forecasts == reference_forecasts


def test_breaker_takes_a_reordered_batch_in_period_order():
    executor, new_manager = build(3.5, 3, None)
    observed: list = []
    manager = observing(new_manager(), observed)
    late, late_finish = make_record(0, 1.0, 3.5, "complete", 0.9, [(0.1, 1)] * 5)
    early, early_finish = make_record(1, 1.0, 3.5, "complete", 0.1, [(0.05, 1)] * 5)
    assert early_finish < late_finish
    executor.records.extend([late, early])
    for record, finish in ((early, early_finish), (late, late_finish)):
        resolve(record, "complete", finish)
        executor.finish_log.append(record)
    assert executor.finish_log == [early, late]
    assert executor.finished_tail(2) == [late, early]
    manager._pending_forecasts[(1, 1)] = 0.5
    manager._feed_breaker(4.0)
    assert observed == [(4.0, 0.5, late.stages[0].stage_latency)]
