"""Property: the warm-set utilization index always equals the O(P) scans.

Random clusters (P <= 64, either scheduling discipline) see random job
submissions, failures, recoveries and reading faults (negative, above
one, NaN, set and cleared) at random instants, several of them sharing
a timestamp.  At each query instant the mean, the argmin under random
exclusions, the threshold sweep at thresholds at or below zero, inside
(0, 1) and at or above one, and the full utilization map must all be
bit-identical to :mod:`tests.oracle`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.processor import Discipline
from repro.cluster.topology import build_system

from tests import oracle
from tests.oracle import same_float

THRESHOLDS = (-0.5, 0.0, 0.3, 0.99, 1.0, 1.5)
FAULT_VALUES = (None, -1.0, -0.0, 0.0, 0.25, 1.0, 1.7, float("nan"))


class Constant:
    """A reading fault that reports ``value`` whatever the meter says."""

    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self, reading: float) -> float:
        return self.value


def operations(n: int):
    # Processor 0 is the scans' first candidate: weight it up.
    target = st.one_of(st.just(0), st.integers(min_value=0, max_value=n - 1))
    return st.one_of(
        st.tuples(st.just("job"), target, st.floats(0.01, 3.0)),
        st.tuples(st.just("fail"), target, st.none()),
        st.tuples(st.just("recover"), target, st.none()),
        st.tuples(st.just("fault"), target, st.sampled_from(FAULT_VALUES)),
        st.tuples(st.just("query"), st.sets(target, max_size=min(n, 8)), st.none()),
    )


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    discipline = draw(st.sampled_from(list(Discipline)))
    steps = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 4.0)), operations(n)
            ),
            min_size=1,
            max_size=40,
        )
    )
    return n, discipline, steps


def check_queries(system, exclude: frozenset[str]) -> None:
    got = system.least_utilized(exclude=exclude)
    want = oracle.least_utilized(system, exclude=exclude)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.name == want.name
    for threshold in THRESHOLDS:
        assert system.processors_below(threshold) == oracle.processors_below(
            system, threshold
        )
    assert same_float(system.mean_utilization(), oracle.mean_utilization(system))
    got_all = system.utilizations()
    want_all = oracle.utilizations(system)
    assert list(got_all) == list(want_all)
    for name, value in want_all.items():
        assert same_float(got_all[name], value)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_index_equals_scan_under_churn_and_faults(scenario):
    n, discipline, steps = scenario
    system = build_system(
        n_processors=n,
        discipline=discipline,
        quantum=0.05,
        clock_sync_enabled=False,
    )
    procs = system.processors
    t = 0.0
    for dt, (kind, target, value) in steps:
        t += dt
        system.engine.run_until(t)
        if kind == "job":
            if not procs[target].failed:
                procs[target].run_for(value, kind="bg")
        elif kind == "fail":
            procs[target].fail()
        elif kind == "recover":
            procs[target].recover()
        elif kind == "fault":
            procs[target].reading_fault = None if value is None else Constant(value)
        else:
            check_queries(system, frozenset(procs[i].name for i in target))
    system.engine.run_until(t + 6.0)  # let every busy span leave the window
    check_queries(system, frozenset())
