"""Tests for regression fit diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.app import aaw_task
from repro.bench.profiler import profile_subtask
from repro.errors import RegressionError
from repro.regression.diagnostics import diagnose_latency_fit
from repro.bench.profiler import LatencyProfileResult, ProfileSample
from repro.regression.latency_model import ExecutionLatencyModel


@pytest.fixture(scope="module")
def noiseless_diag():
    task = aaw_task(noise_sigma=0.0)
    result = profile_subtask(
        task.subtask(3),
        u_grid=(0.0, 0.3, 0.6),
        d_grid_tracks=(200.0, 800.0, 2000.0, 4000.0),
        repetitions=1,
        seed=4,
    )
    return diagnose_latency_fit(result)


@pytest.fixture(scope="module")
def noisy_diag():
    task = aaw_task(noise_sigma=0.15)
    result = profile_subtask(
        task.subtask(3),
        u_grid=(0.0, 0.3, 0.6),
        d_grid_tracks=(200.0, 800.0, 2000.0, 4000.0),
        repetitions=3,
        seed=4,
    )
    return diagnose_latency_fit(result)


class TestDiagnostics:
    def test_noiseless_fit_is_healthy(self, noiseless_diag):
        assert noiseless_diag.is_healthy
        assert noiseless_diag.r_squared > 0.99

    def test_per_level_r2_covers_grid(self, noiseless_diag):
        assert set(noiseless_diag.per_level_r_squared) == {0.0, 0.3, 0.6}

    def test_noise_degrades_but_stays_usable(self, noisy_diag):
        assert noisy_diag.rmse_ms > 0.0
        assert noisy_diag.r_squared > 0.85

    def test_heteroscedasticity_detected_on_noisy_quadratic(self, noisy_diag):
        """Multiplicative noise on a quadratic demand: residuals grow
        with data size, so the large-d half has bigger RMS."""
        assert noisy_diag.heteroscedasticity_ratio > 1.0

    def test_render(self, noiseless_diag):
        text = noiseless_diag.render()
        assert "Filter" in text
        assert "overall R^2" in text
        assert "healthy" in text

    def test_empty_profile_rejected(self):
        from repro.regression.latency_model import ExecutionLatencyModel

        empty = LatencyProfileResult(
            subtask_name="x",
            samples=[],
            model=ExecutionLatencyModel("x", a=(0, 0, 1), b=(0, 0, 1)),
        )
        with pytest.raises(RegressionError):
            diagnose_latency_fit(empty)

    def test_tied_sizes_split_in_input_order(self):
        """Samples with equal ``d`` that straddle the median split fall
        into the halves in input order, so the ratio is reproducible.

        Sizes cycle through 13 values, so the tie group at the split
        holds several samples with distinct residuals; an unstable sort
        moves different ones across the split and changes the ratio.
        """
        n = 60
        d_tracks = [100.0 * ((7 * i) % 13) for i in range(n)]
        samples = [
            ProfileSample(
                subtask_name="x",
                u_target=0.0,
                u_measured=0.0,
                d_tracks=d,
                latency_s=(i + 1) * 1e-3,
            )
            for i, d in enumerate(d_tracks)
        ]
        # A zero surface makes every residual the sample's latency (ms).
        zero = ExecutionLatencyModel("x", a=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0))
        diag = diagnose_latency_fit(
            LatencyProfileResult(subtask_name="x", samples=samples, model=zero)
        )

        order = sorted(range(n), key=lambda i: (d_tracks[i], i))
        residuals = np.arange(1.0, n + 1.0)
        small = np.sqrt(np.mean(residuals[order[: n // 2]] ** 2))
        large = np.sqrt(np.mean(residuals[order[n // 2 :]] ** 2))
        assert d_tracks[order[n // 2 - 1]] == d_tracks[order[n // 2]]
        assert diag.heteroscedasticity_ratio == pytest.approx(
            large / small, rel=1e-12
        )
