"""Tests for replicated-experiment statistics."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.replication import (
    _t_critical,
    replicate_experiment,
    summarize,
)


class TestSummarize:
    def test_single_value(self):
        s = summarize("m", [0.5])
        assert s.mean == 0.5
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 0.5

    def test_known_sample(self):
        s = summarize("m", [1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        # t(0.975, df=2) = 4.3027; half-width = 4.3027 / sqrt(3).
        assert s.ci_half_width == pytest.approx(4.3027 / (3 ** 0.5), rel=1e-3)

    def test_interval_contains_mean(self):
        s = summarize("m", [0.2, 0.3, 0.25, 0.22])
        assert s.ci_low <= s.mean <= s.ci_high

    def test_wider_confidence_wider_interval(self):
        values = [0.2, 0.3, 0.25, 0.22]
        narrow = summarize("m", values, confidence=0.8)
        wide = summarize("m", values, confidence=0.99)
        assert wide.ci_half_width > narrow.ci_half_width

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize("m", [])

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, math.nan])
    def test_bad_confidence_rejected(self, confidence):
        with pytest.raises(ConfigurationError, match="confidence"):
            summarize("m", [1.0, 2.0, 3.0], confidence=confidence)

    def test_bad_confidence_rejected_for_single_value(self):
        with pytest.raises(ConfigurationError, match="confidence"):
            summarize("m", [0.5], confidence=1.5)


class TestTCritical:
    """The quantile source is pinned: a change of it shows here."""

    @pytest.mark.parametrize(
        ("confidence", "df", "expected"),
        [
            (0.95, 1, 12.706204736174694),
            (0.95, 4, 2.7764451051977934),
            (0.95, 29, 2.045229642132703),
            (0.99, 4, 4.604094871349992),
            (0.80, 4, 1.533206274058944),
        ],
    )
    def test_reference_quantiles(self, confidence, df, expected):
        assert _t_critical(confidence, df) == pytest.approx(expected, rel=1e-12)


class TestReplicateExperiment:
    @pytest.fixture(scope="class")
    def replicated(self, fitted_estimator):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=10.0,
            baseline=BaselineConfig(n_periods=10, seed=6),
        )
        return replicate_experiment(config, n_seeds=4, estimator=fitted_estimator)

    def test_runs_all_seeds(self, replicated):
        assert len(replicated.runs) == 4

    def test_all_metrics_summarized(self, replicated):
        assert {"missed", "cpu", "net", "replicas", "combined"} <= set(
            replicated.summaries
        )
        for s in replicated.summaries.values():
            assert s.n == 4

    def test_seeds_produce_variation(self, replicated):
        """Execution noise differs across seeds, so some metric varies."""
        assert any(s.std > 0.0 for s in replicated.summaries.values())

    def test_summary_lookup(self, replicated):
        assert replicated.summary("combined").name == "combined"
        with pytest.raises(ConfigurationError):
            replicated.summary("nope")

    def test_bad_parameters_rejected(self, fitted_estimator):
        config = ExperimentConfig(
            policy="predictive",
            pattern="triangular",
            max_workload_units=5.0,
            baseline=BaselineConfig(n_periods=5),
        )
        with pytest.raises(ConfigurationError):
            replicate_experiment(config, n_seeds=0, estimator=fitted_estimator)
        with pytest.raises(ConfigurationError):
            replicate_experiment(
                config, n_seeds=2, confidence=1.5, estimator=fitted_estimator
            )
