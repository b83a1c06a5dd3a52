"""Timing records produced by the task executor.

One :class:`PeriodRecord` per task release, containing one
:class:`StageRecord` per subtask stage.  These records are the *only*
view the resource-management layer has of application timeliness — the
monitor reads them on a global time scale (Figure 1), never the
simulator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageRecord:
    """Timing of one subtask stage within one period.

    Attributes
    ----------
    subtask_index:
        Chain position (1-based).
    replica_count:
        Replicas the stage ran with (``|PS(st)|`` at stage start).
    start_time:
        When the stage's replica jobs were submitted (= when the incoming
        message burst completed, or the release time for stage 1).
    exec_finish_time:
        When the *last* replica job completed (stage barrier).
    message_in_delay:
        Communication delay of the incoming message burst (0 for
        stage 1): last delivery minus predecessor's execution finish.
    """

    subtask_index: int
    replica_count: int
    start_time: float
    exec_finish_time: float | None = None
    message_in_delay: float = 0.0

    @property
    def exec_latency(self) -> float | None:
        """Execution time of the stage barrier (max over replicas)."""
        if self.exec_finish_time is None:
            return None
        return self.exec_finish_time - self.start_time

    @property
    def stage_latency(self) -> float | None:
        """Incoming-message delay plus execution latency.

        This is the quantity compared against the stage budget
        ``dl(m_{j-1}) + dl(st_j)`` by the monitor, mirroring the paper's
        footnote 3 (replica in-message delay folded into the successor's
        deadline).
        """
        latency = self.exec_latency
        if latency is None:
            return None
        return self.message_in_delay + latency


@dataclass
class PeriodRecord:
    """Timing of one task release (one period)."""

    period_index: int
    release_time: float
    d_tracks: float
    deadline: float
    stages: list[StageRecord] = field(default_factory=list)
    completion_time: float | None = None
    aborted: bool = False

    @property
    def completed(self) -> bool:
        """Whether every stage finished (aborted periods never complete)."""
        return self.completion_time is not None

    @property
    def resolved_at(self) -> float:
        """Completion time, or release time for a record that never completed."""
        if self.completion_time is None:
            return self.release_time
        return self.completion_time

    @property
    def latency(self) -> float | None:
        """End-to-end latency, or ``None`` while in flight / if aborted."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    @property
    def missed(self) -> bool:
        """Whether the period missed its end-to-end deadline.

        Aborted periods (shed by the overload watchdog) count as missed;
        in-flight periods are not yet judged (``False`` here — callers
        needing "overdue" semantics use :meth:`overdue_at`).
        """
        if self.aborted:
            return True
        latency = self.latency
        return latency is not None and latency > self.deadline

    def overdue_at(self, now: float) -> bool:
        """Whether the period is in flight and already past its deadline."""
        return (
            not self.aborted
            and self.completion_time is None
            and now > self.release_time + self.deadline
        )

    def stage(self, subtask_index: int) -> StageRecord | None:
        """The stage record for ``subtask_index``, if that stage started."""
        for record in self.stages:
            if record.subtask_index == subtask_index:
                return record
        return None
