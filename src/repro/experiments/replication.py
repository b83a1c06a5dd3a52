"""Statistical replication of experiments (seeds, means, intervals).

The paper reports single runs per data point ("each data point ... is
obtained by a single experiment").  For a trustworthy reproduction we
also quantify run-to-run variability: :func:`replicate_experiment` runs
an experiment under ``n_seeds`` independent seeds and summarizes each
metric with mean, standard deviation and a Student-t confidence
interval.  The t quantile comes from scipy, which is imported on the
first interval, not with this module: importing ``repro`` stays free of
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import ExperimentMetrics
from repro.experiments.runner import run_experiment
from repro.regression.estimator import TimingEstimator


@dataclass(frozen=True)
class MetricSummary:
    """Mean/spread of one metric over replications."""

    name: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def ci_half_width(self) -> float:
        """Half width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class ReplicatedResult:
    """All metric summaries for one replicated experiment."""

    config: ExperimentConfig
    summaries: dict[str, MetricSummary]
    runs: tuple[ExperimentMetrics, ...]

    def summary(self, name: str) -> MetricSummary:
        """Look up one metric's summary by its short name."""
        try:
            return self.summaries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown metric {name!r}; available: {sorted(self.summaries)}"
            ) from None


def _check_confidence(confidence: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")


@lru_cache(maxsize=None)
def _t_critical(confidence: float, df: int) -> float:
    """Memoized Student-t critical value.

    ``summarize`` is called once per metric per replication study with
    identical ``(confidence, df)`` arguments, and ``scipy.stats.t.ppf``
    dominates its cost — cache the quantile instead of recomputing it.
    scipy is imported here, on the first call, so that only a process
    that builds an interval pays its import.
    """
    from scipy import stats

    return float(stats.t.ppf(0.5 + confidence / 2.0, df=df))


def summarize(name: str, values: list[float], confidence: float = 0.95) -> MetricSummary:
    """Mean, sd and Student-t CI of a sample of metric values.

    Raises :class:`ConfigurationError` on an empty sample or a
    ``confidence`` outside the open interval (0, 1).
    """
    _check_confidence(confidence)
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    n = arr.size
    if n == 1:
        return MetricSummary(name, mean, 0.0, mean, mean, 1)
    sd = float(arr.std(ddof=1))
    half = _t_critical(confidence, n - 1) * sd / math.sqrt(n)
    return MetricSummary(name, mean, sd, mean - half, mean + half, n)


def replicate_experiment(
    config: ExperimentConfig,
    n_seeds: int = 5,
    estimator: TimingEstimator | None = None,
    confidence: float = 0.95,
    n_jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> ReplicatedResult:
    """Run ``config`` under ``n_seeds`` seeds and summarize every metric.

    Seeds offset both the system RNG registry (execution noise, clock
    offsets) and nothing else; the fitted estimator is shared, matching
    the paper's methodology (one profiled model, many runs).

    With ``n_jobs > 1`` the seeds run across a process pool
    (:mod:`repro.parallel`): offsets are derived per job before
    dispatch and runs are reassembled in seed order, so the result is
    bit-identical to a serial replication.
    """
    if n_seeds < 1:
        raise ConfigurationError(f"need at least one seed, got {n_seeds}")
    _check_confidence(confidence)  # before the runs, not after them
    if n_jobs != 1:
        # Imported lazily: repro.parallel imports the experiment stack.
        from repro.parallel import run_configs_parallel

        job_results = run_configs_parallel(
            [config] * n_seeds,
            n_jobs=n_jobs,
            cache_dir=cache_dir,
            estimator=estimator,
            seed_offsets=list(range(n_seeds)),
        )
        runs = [jr.metrics for jr in job_results]
    else:
        if estimator is None:
            from repro.experiments.estimator_cache import get_estimator

            estimator = get_estimator(config.baseline, cache_dir=cache_dir)
        runs = [
            run_experiment(config, estimator=estimator, seed_offset=offset).metrics
            for offset in range(n_seeds)
        ]
    series: dict[str, list[float]] = {}
    for metrics in runs:
        for key, value in metrics.as_dict().items():
            series.setdefault(key, []).append(value)
    summaries = {
        name: summarize(name, values, confidence)
        for name, values in series.items()
    }
    return ReplicatedResult(config=config, summaries=summaries, runs=tuple(runs))
