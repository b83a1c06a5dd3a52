"""Reference O(P) scans of the cluster utilization queries.

Each function reads every processor's meter, exactly as the paper's
figures state the query.  :class:`repro.cluster.index.UtilizationIndex`
must agree with them bit for bit; :func:`patch_system` swaps them in
for the :class:`~repro.cluster.topology.System` methods so a whole run
can be replayed on the reference path.
"""

from __future__ import annotations

import math

from repro.cluster.processor import Processor
from repro.cluster.topology import System


def least_utilized(
    system: System,
    exclude: set[str] | frozenset[str] = frozenset(),
    window: float | None = None,
) -> Processor | None:
    """Figure 5 step 3: ``min((u, name))`` over live, non-excluded nodes."""
    candidates = [
        p for p in system.processors if p.name not in exclude and not p.failed
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda p: (p.utilization(window=window), p.name))


def processors_below(
    system: System, threshold: float, window: float | None = None
) -> list[Processor]:
    """Figure 7's sweep: live nodes below ``threshold``, creation order."""
    return [
        p
        for p in system.processors
        if not p.failed and p.utilization(window=window) < threshold
    ]


def mean_utilization(system: System) -> float:
    """Mean reading over every processor, failed ones included."""
    values = [p.utilization() for p in system.processors]
    return sum(values) / len(values)


def utilizations(system: System, window: float | None = None) -> dict[str, float]:
    """Name -> reading for every processor."""
    return {p.name: p.utilization(window=window) for p in system.processors}


def same_float(a: float, b: float) -> bool:
    """Bit-level float equality (NaN equals NaN, 0.0 differs from -0.0)."""
    return math.copysign(1.0, a) == math.copysign(1.0, b) and (
        a == b or (math.isnan(a) and math.isnan(b))
    )


def patch_system(monkeypatch) -> None:
    """Route every ``System`` utilization query through the scans above."""
    monkeypatch.setattr(System, "least_utilized", least_utilized)
    monkeypatch.setattr(System, "processors_below", processors_below)
    monkeypatch.setattr(System, "mean_utilization", mean_utilization)
    monkeypatch.setattr(System, "utilizations", utilizations)
