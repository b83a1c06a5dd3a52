"""Exact utilization queries that cost O(changed), not O(P).

The RM hot path (Figure 5 step 3, Figure 7's threshold sweep, the
failure-migration path and the mean-utilization feed) asks about every
processor's ``ut(p, t)`` once per period.  At hundreds of processors
most of them sit idle, and reading every
:class:`~repro.cluster.metering.UtilizationMeter` dominates the loop.

:class:`UtilizationIndex` rests on one fact: **a dormant processor reads
exactly** ``0.0``.  It is dormant at ``t`` when it has no reading fault,
its meter is idle, and the meter's last busy/idle transition lies at or
before the window start ``max(epoch, t - window)``: both window ends
then read the same running busy total, and ``x - x`` is an exact zero
(:meth:`~repro.cluster.metering.UtilizationMeter.reads_zero`).

The index keeps the complementary **warm set**.  A processor joins it
on an idle→busy meter transition (the meter's ``on_wake`` hook) and
whenever its ``reading_fault`` is set or cleared (the processor's
property setter fires the same hook).  :meth:`UtilizationIndex.refresh`,
run by every query, re-reads the warm processors once per timestamp
and retires those gone dormant; a reading is invariant under
same-instant busy/idle transitions, so after that only processors woken
at the same instant are re-read.

Every answer equals the O(P) scan bit for bit, reading faults included
(negative, above one, or NaN): the mean sums the warm readings in
creation order (adding ``0.0`` is exact), the argmin runs the scan's
``min`` over the only candidates that can win, and the other queries
fill in ``0.0`` for dormant processors.  The ``failed`` flag is
read at query time, so direct writes to it stay safe.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.processor import Processor
    from repro.sim.engine import Engine


def _dormant(proc: "Processor", now: float) -> bool:
    """Whether ``proc.utilization()`` reads exactly ``0.0`` at ``now``."""
    return proc.reading_fault is None and proc.meter.reads_zero(
        now, proc.utilization_window
    )


@dataclass
class IndexStats:
    """Operation counters, exported as telemetry gauges by the manager."""

    argmin_queries: int = 0
    below_queries: int = 0
    meter_reads: int = 0
    #: Per-timestamp passes over the warm set.
    refreshes: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counter name -> value, for telemetry export."""
        return asdict(self)


class UtilizationIndex:
    """Exact mean/argmin/threshold queries over processor utilizations.

    The index owns the ``on_wake`` hook of every processor's meter, so
    one processor set serves one index.

    Parameters
    ----------
    engine:
        The discrete-event engine supplying the current time.
    processors:
        The processor set, in creation order (threshold queries return
        results in this order, matching the Figure 7 scan).
    """

    def __init__(self, engine: "Engine", processors: Sequence["Processor"]) -> None:
        self.engine = engine
        self._procs: list[Processor] = list(processors)
        #: Positions in name order: the scan's tie-break order.
        self._name_order: list[int] = sorted(
            range(len(self._procs)), key=lambda i: self._procs[i].name
        )
        #: Positions of processors that may read non-zero.
        self._warm: set[int] = set()
        #: Warm positions without a reading at ``_read_time``.
        self._stale: set[int] = set()
        #: Position -> exact reading at ``_read_time``, one per warm position
        #: once :meth:`refresh` has run.
        self._readings: dict[int, float] = {}
        self._read_time: float | None = None
        self.stats = IndexStats()
        now = engine.now
        for i, proc in enumerate(self._procs):
            if proc.meter.on_wake is not None:
                raise ClusterError(f"processor {proc.name!r} is already indexed")
            proc.meter.on_wake = functools.partial(self._wake, i)
            if not _dormant(proc, now):
                self._warm.add(i)

    def _wake(self, i: int) -> None:
        """Processor ``i`` may read non-zero, or its reading changed."""
        self._warm.add(i)
        self._stale.add(i)
        self._readings.pop(i, None)

    def refresh(self) -> None:
        """Bring every warm processor's reading up to the current time.

        At a new timestamp every warm processor is re-read, or retired
        when it has gone dormant; at the same timestamp only processors
        woken since the last pass are.
        """
        t = self.engine.now
        if t != self._read_time:
            self._read_time = t
            self._readings = {}
            self._stale = set(self._warm)
            self.stats.refreshes += 1
        elif not self._stale:
            return
        procs = self._procs
        readings = self._readings
        for i in self._stale:
            proc = procs[i]
            if _dormant(proc, t):
                self._warm.discard(i)
            else:
                readings[i] = proc.utilization()
                self.stats.meter_reads += 1
        self._stale.clear()

    # -- queries -----------------------------------------------------------

    def mean(self) -> float:
        """Mean ``ut(p, t)`` over **all** processors, failed included.

        Float-identical to ``sum([p.utilization() for p in processors])
        / len(processors)``: the dormant terms are exact zeros.
        """
        self.refresh()
        readings = self._readings
        return sum([readings[i] for i in sorted(readings)]) / len(self._procs)

    def argmin(
        self, exclude: set[str] | frozenset[str] = frozenset()
    ) -> tuple[float, str] | None:
        """Exact ``min((u, name))`` over live processors outside ``exclude``.

        Identical to ``min(candidates, key=lambda p: (p.utilization(),
        p.name))`` over the live, non-excluded set in creation order;
        ``None`` when that set is empty.  The same ``min`` runs over the
        candidates that can win: the first (``min`` keeps a NaN first
        candidate), every warm one, and the first dormant one by name.
        """
        self.refresh()
        self.stats.argmin_queries += 1
        procs = self._procs
        readings = self._readings

        def candidate(i: int) -> bool:
            return not procs[i].failed and procs[i].name not in exclude

        first = next((i for i in range(len(procs)) if candidate(i)), None)
        if first is None:
            return None
        dormant = next(
            (i for i in self._name_order if i not in readings and candidate(i)), first
        )
        chosen = sorted({first, dormant, *filter(candidate, readings)})
        best = min(chosen, key=lambda i: (readings.get(i, 0.0), procs[i].name))
        return readings.get(best, 0.0), procs[best].name

    def below(self, threshold: float) -> list["Processor"]:
        """Live processors with exact utilization ``< threshold``.

        Returned in processor creation order — the same order Figure 7's
        ``for every p in PR`` scan visits them.
        """
        values = self.exact_utilizations()
        self.stats.below_queries += 1
        return [
            p for p, u in zip(self._procs, values) if u < threshold and not p.failed
        ]

    def exact_utilizations(self) -> list[float]:
        """Exact readings for **all** processors, in creation order."""
        self.refresh()
        get = self._readings.get
        return [get(i, 0.0) for i in range(len(self._procs))]
