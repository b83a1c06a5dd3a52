"""The shared medium against M/D/1 queueing theory.

Single messages arrive as a Poisson stream at rate ``λ`` and each takes
the deterministic service time ``S`` of paper eq. 6, so the shared
medium is an M/D/1 queue.  Pollaczek–Khinchine gives its mean waiting
("buffer") time as ``Wq = ρ S / (2 (1 − ρ))`` with ``ρ = λ S``.  The
check compares the mean buffer delay over seeded replications with
``Wq`` within a CLT bound on the replication means, and requires the
burst path to deliver the same stream at the same instants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.sim.engine import Engine
from repro.units import ETHERNET_100_MBPS, transmission_time

PAYLOAD = 10_000.0
OVERHEAD = 1500.0
#: Service time from the paper's formula, not from the medium under test.
SERVICE_S = transmission_time(PAYLOAD + OVERHEAD, ETHERNET_100_MBPS)


def arrivals(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(SERVICE_S / rho, n))


def deliver(times: np.ndarray, burst: bool) -> tuple[list[float], list[float]]:
    """Send one message at each time; (delivery times, buffer delays).

    Buffer delays are only read on the per-message path.
    """
    engine = Engine()
    network = Network(engine, default_overhead_bytes=OVERHEAD)
    delivered: list[float] = []
    messages = []

    def send() -> None:
        if burst:
            network.send_burst(1, PAYLOAD, lambda _m, t: delivered.append(t))
        else:
            messages.append(
                network.send_bytes(
                    PAYLOAD, on_delivered=lambda _m, t: delivered.append(t)
                )
            )

    for t in times:
        engine.schedule_at(float(t), send)
    engine.run()
    return delivered, [m.buffer_delay for m in messages]


def pk_ratio(rho: float, n: int, replications: int) -> tuple[float, float]:
    """Mean measured ÷ P–K buffer delay and its standard error."""
    wq = rho * SERVICE_S / (2.0 * (1.0 - rho))
    ratios = np.array(
        [
            np.mean(deliver(arrivals(rho, n, seed), burst=False)[1]) / wq
            for seed in range(replications)
        ]
    )
    return float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(replications))


#: Standard errors allowed either side of 1: a ~4σ bound, so a correct
#: medium fails about once in 10^4 seeds while a service time scaled by
#: 1.1 (a ratio near 1.4 at ρ = 0.6) fails every time.
Z = 4.0


class TestMD1:
    def test_both_paths_deliver_at_the_same_instants(self):
        times = arrivals(0.6, 3000, seed=11)
        burst, _ = deliver(times, burst=True)
        single, _ = deliver(times, burst=False)
        assert burst == single
        assert len(burst) == 3000

    def test_mean_buffer_delay_matches_pollaczek_khinchine(self):
        ratio, se = pk_ratio(0.6, n=4000, replications=12)
        assert abs(ratio - 1.0) <= Z * se, (ratio, se)

    @pytest.mark.slow
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.85])
    def test_pollaczek_khinchine_large_n(self, rho):
        ratio, se = pk_ratio(rho, n=20_000, replications=20)
        assert abs(ratio - 1.0) <= Z * se, (ratio, se)
