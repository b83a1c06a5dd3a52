"""Unit tests for experiment configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    DEFAULT_SWEEP_UNITS,
    BaselineConfig,
    ExperimentConfig,
)


class TestBaselineConfig:
    def test_table1_defaults(self):
        config = BaselineConfig()
        assert config.n_nodes == 6
        assert config.bandwidth_bps == 100e6
        assert config.track_bytes == 80
        assert config.period == 1.0
        assert config.deadline == pytest.approx(0.990)
        assert config.utilization_threshold == 0.20
        assert config.quantum == pytest.approx(0.001)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(n_nodes=0)
        with pytest.raises(ConfigurationError):
            BaselineConfig(n_periods=0)
        with pytest.raises(ConfigurationError):
            BaselineConfig(deadline=1.5, period=1.0)
        with pytest.raises(ConfigurationError):
            BaselineConfig(min_workload_units=0.0)

    def test_with_overrides(self):
        config = BaselineConfig().with_overrides(n_nodes=8, seed=9)
        assert config.n_nodes == 8
        assert config.seed == 9
        assert config.period == 1.0  # untouched

    def test_as_table_rows_covers_table1(self):
        rows = dict(BaselineConfig().as_table_rows())
        assert rows["Number of nodes"] == "6"
        assert rows["Data item (track) size"] == "80 bytes"
        assert rows["Number of subtasks per task"] == "5"
        assert "20%" in rows["CPU utilization threshold (non-predictive)"]


class TestExperimentConfig:
    def test_track_conversions(self):
        config = ExperimentConfig(
            policy="predictive", pattern="triangular", max_workload_units=35.0
        )
        assert config.max_tracks == 17_500.0
        assert config.min_tracks == 250.0  # 0.5 units default floor

    def test_min_never_exceeds_max(self):
        config = ExperimentConfig(
            policy="predictive", pattern="triangular", max_workload_units=0.25
        )
        assert config.min_tracks == config.max_tracks == 125.0

    def test_invalid_units_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                policy="predictive", pattern="triangular", max_workload_units=0.0
            )

    def test_engine_is_not_an_option(self):
        config = ExperimentConfig(
            policy="predictive", pattern="triangular", max_workload_units=5.0
        )
        with pytest.raises(ConfigurationError, match="engine"):
            config.with_overrides(engine="scalar")

    def test_default_sweep_matches_paper_axis(self):
        assert DEFAULT_SWEEP_UNITS[0] >= 1.0
        assert DEFAULT_SWEEP_UNITS[-1] == 35.0
