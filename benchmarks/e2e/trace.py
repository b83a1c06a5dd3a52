"""Per-layer attribution for the end-to-end benchmark's traced pass.

:class:`LayerTrace` is a context manager that swaps selected methods of
the simulator's classes for timing shims and puts the originals back on
exit; nothing under ``src/`` is edited.  Install it before
``build_world``: components bind methods such as ``executor._release``
when they put them on the event calendar, so a shim installed later
would never be called.

Every shim pushes onto one self-time stack.  A call's self time is its
duration minus the time spent in wrapped calls it made, so the self
times of all buckets add up to the traced time without double counting.
The shims' own cost, calibrated once per trace, is kept out of every
bucket and reported on its own.

Shims are built with :func:`functools.wraps`, so a bound method on the
calendar still pickles by name when a checkpoint snapshots the world.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Bucket -> the layer whose share of traced self time it counts towards.
LAYER_OF = {
    "sim": "sim",
    "runtime": "runtime",
    "runtime.completed_records": "runtime",
    "cluster.processor": "cluster.processor",
    "cluster.network": "cluster.network",
    "cluster.meter.write": "cluster.meter",
    "cluster.meter.read": "cluster.meter",
    "cluster.index": "cluster.index",
    "core.monitor": "core.monitor",
    "core.allocate": "core.allocate",
    "core.allocate.policy": "core.allocate",
    "regression": "regression",
    "core.manager": "core.manager",
    "telemetry": "telemetry",
    "recovery": "recovery",
    "chaos": "chaos",
    "experiments.build": "experiments",
    "experiments.finalize": "experiments",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def _one(args: tuple, result: Any) -> int:
    return 1


def _records(args: tuple, result: Any) -> int:
    return len(args[0].records)


def _rows_many(args: tuple, result: Any) -> int:
    return len(args[3])


def _outcomes(args: tuple, result: Any) -> int:
    return len(result.outcomes)


def _payload(args: tuple, result: Any) -> int:
    return len(result.payload)


#: (module, class or None for a module function, attribute, bucket,
#: per-call count or None, keep per-call durations).
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None, bool], ...] = (
    ("repro.sim.engine", "Engine", "run_until", "sim", None, False),
    ("repro.sim.engine", "Engine", "schedule_at", "sim", None, False),
    *(
        ("repro.runtime.executor", "PeriodicTaskExecutor", attr, "runtime", None, False)
        for attr in ("_release", "_start_stage", "_send_messages", "_complete",
                     "_watchdog", "overdue_subtasks")
    ),
    ("repro.runtime.executor", "_StageBarrier", "job_done", "runtime", None, False),
    ("repro.runtime.executor", "_DeliveryBarrier", "delivered", "runtime", None,
     False),
    ("repro.runtime.executor", "PeriodicTaskExecutor", "completed_records",
     "runtime.completed_records", _records, False),
    ("repro.cluster.processor", "Processor", "submit", "cluster.processor", _one,
     False),
    *(
        ("repro.cluster.processor", "Processor", attr, "cluster.processor", None,
         False)
        for attr in ("_ps_complete", "cancel_job", "fail", "recover")
    ),
    ("repro.cluster.network", "Network", "send", "cluster.network", _one, False),
    *(
        ("repro.cluster.network", "Network", attr, "cluster.network", None, False)
        for attr in ("_deliver", "_deliver_switched", "_resend")
    ),
    ("repro.cluster.metering", "UtilizationMeter", "set_busy",
     "cluster.meter.write", None, False),
    ("repro.cluster.metering", "UtilizationMeter", "utilization",
     "cluster.meter.read", None, False),
    *(
        ("repro.cluster.index", "UtilizationIndex", attr, "cluster.index", None,
         False)
        for attr in ("argmin", "below", "exact_utilizations", "refresh")
    ),
    ("repro.core.monitoring", "RuntimeMonitor", "classify", "core.monitor", None,
     False),
    ("repro.core.allocation", "CandidatePolicyAdapter", "allocate",
     "core.allocate", _outcomes, False),
    ("repro.core.predictive", "PredictivePolicy", "replicate",
     "core.allocate.policy", None, False),
    ("repro.core.nonpredictive", "NonPredictivePolicy", "replicate",
     "core.allocate.policy", None, False),
    ("repro.core.shutdown", "LifoShutdown", "shutdown", "core.allocate.policy",
     None, False),
    ("repro.regression.estimator", "TimingEstimator", "eex_seconds", "regression",
     _one, False),
    ("repro.regression.estimator", "TimingEstimator", "eex_seconds_many",
     "regression", _rows_many, False),
    ("repro.regression.estimator", "TimingEstimator", "ecd_seconds", "regression",
     _one, False),
    ("repro.regression.estimator", "TimingEstimator", "chain_estimate_seconds",
     "regression", None, False),
    ("repro.core.manager", "AdaptiveResourceManager", "step", "core.manager", None,
     True),
    *(
        ("repro.telemetry.hub", "TelemetryHub", attr, "telemetry", None, False)
        for attr in (
            "on_engine_run", "on_job_complete", "on_message_delivered",
            "on_message_lost", "on_message_dropped", "on_period_complete",
            "on_period_abort", "begin_decision", "on_monitor_report",
            "on_forecast", "on_index_stats", "on_cluster_utilization",
            "on_breaker_state", "on_fault_injected", "end_decision",
        )
    ),
    *(
        ("repro.telemetry.profile", "RunProfiler", attr, "telemetry", None, False)
        for attr in ("begin", "end")
    ),
    *(
        ("repro.telemetry.slo", "SloEngine", attr, "telemetry", None, False)
        for attr in ("on_decision_latency", "evaluate", "report")
    ),
    ("repro.recovery.checkpoint", "Checkpointer", "take", "recovery", _payload,
     False),
    *(
        ("repro.chaos.injector", "ChaosInjector", attr, "chaos", None, False)
        for attr in ("arm", "_inject")
    ),
    *(
        ("repro.chaos.injector", cls, "__call__", "chaos", None, False)
        for cls in ("_WindowEnd", "_ReadingFaultEnd", "_SensorFaultedWorkload",
                    "_ConstantReading")
    ),
    *(
        ("repro.chaos.injector", "FaultyEstimator", attr, "chaos", None, False)
        for attr in ("eex_seconds", "eex_seconds_many", "ecd_seconds",
                     "chain_estimate_seconds")
    ),
    ("repro.chaos", None, "compute_scorecard", "chaos", None, False),
)


@dataclass
class BucketStat:
    """Totals of one bucket over every wrapped call."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    #: Sum of the per-call counts (jobs, messages, rows, bytes, ...).
    count: int = 0
    #: Per-call durations, for buckets that keep them.
    samples: list[float] = field(default_factory=list)


class LayerTrace:
    """Swap layer methods for timing shims while entered."""

    def __init__(self) -> None:
        self.stats: dict[str, BucketStat] = {b: BucketStat() for b in LAYER_OF}
        # stack[0] accumulates the time of top-level spans.
        self._stack: list[float] = [0.0]
        self._saved: list[tuple[object, str, object]] = []
        #: Seconds a wrapped call costs its caller outside the call's own
        #: span (entering and leaving the shim).  Shims credit it back to
        #: the caller, so a layer that makes many wrapped calls (the
        #: index reading every meter) is not charged for the tracing.
        self.shim_s = 0.0
        self.shim_s = self._calibrate()

    @property
    def spanned_s(self) -> float:
        """Total time of the outermost spans since the trace was entered."""
        return self._stack[0]

    @property
    def shim_total_s(self) -> float:
        """Estimated tracing cost inside spans that no layer is charged."""
        return self.shim_s * sum(stat.calls for stat in self.stats.values())

    def _calibrate(self, calls: int = 20000, trials: int = 5) -> float:
        def noop() -> None:
            pass

        probe = BucketStat()
        shim = self._shim(noop, probe, None, False)
        clock = time.perf_counter
        estimates = []
        for _ in range(trials):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            probe.total_s = 0.0
            start = clock()
            for _ in range(calls):
                shim()
            wrapped = clock() - start
            estimates.append((wrapped - bare - probe.total_s) / calls)
        self._stack[0] = 0.0
        return max(0.0, statistics.median(estimates))

    def _shim(self, fn: Callable, stat: BucketStat, count: Callable | None,
              keep: bool) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        overhead = self.shim_s

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.total_s += elapsed
                stat.calls += 1
                stack[-1] += elapsed + overhead
                if keep:
                    stat.samples.append(elapsed)
            if count is not None:
                stat.count += count(args, result)
            return result

        return shim

    def call(self, bucket: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` as a span of ``bucket`` (harness-side spans)."""
        return self._shim(fn, self.stats[bucket], None, False)(*args)

    def __enter__(self) -> "LayerTrace":
        try:
            for module_name, owner_name, attr, bucket, count, keep in TARGETS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._shim(original, self.stats[bucket], count, keep))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (buckets folded by :data:`LAYER_OF`)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for bucket, stat in self.stats.items():
            out[LAYER_OF[bucket]] += stat.self_s
        return out
