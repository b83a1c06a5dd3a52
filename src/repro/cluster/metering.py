"""Busy-time metering shared by processors and the network.

:class:`UtilizationMeter` integrates a binary busy/idle signal over
simulated time and answers two questions:

* *windowed utilization* — the busy fraction over the trailing ``W``
  seconds, which is what the resource-management algorithms read as
  ``ut(p, t)`` (paper §3, property 13);
* *lifetime utilization* — the busy fraction over an arbitrary
  ``[t0, t1]`` interval, which is what the experiment metrics report as
  "average CPU utilization" / "average network utilization" (paper §5.2).

The meter stores a monotone series of ``(time, cumulative_busy)``
checkpoints recorded at every busy/idle transition, pruned to the maximum
window it is asked to serve, so memory stays bounded in long sweeps.
"""

from __future__ import annotations

import bisect
from typing import Callable


class UtilizationMeter:
    """Integrates a busy/idle signal and reports busy fractions.

    Parameters
    ----------
    max_window:
        Largest trailing window (seconds) that :meth:`utilization` will be
        asked for; checkpoints older than this may be pruned.  Lifetime
        accounting (:meth:`busy_between` relative to :attr:`epoch`) is kept
        exactly regardless of pruning via running totals.
    """

    def __init__(self, max_window: float = 30.0) -> None:
        if max_window <= 0.0:
            raise ValueError(f"max_window must be positive, got {max_window}")
        self.max_window = float(max_window)
        self.epoch = 0.0
        self._times: list[float] = [0.0]
        self._cum_busy: list[float] = [0.0]
        self._busy_since: float | None = None
        self._total_busy = 0.0
        self._last_time = 0.0
        #: Called with no arguments on every idle→busy transition.
        self.on_wake: Callable[[], None] | None = None

    # -- signal input -------------------------------------------------------

    def set_busy(self, now: float, busy: bool) -> None:
        """Record that the resource became busy/idle at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"meter time went backwards: {now} < {self._last_time}"
            )
        if busy:
            if self._busy_since is None:
                self._busy_since = now
                self._checkpoint(now)
                if self.on_wake is not None:
                    self.on_wake()
        else:
            if self._busy_since is not None:
                self._total_busy += now - self._busy_since
                self._busy_since = None
                self._checkpoint(now)
        self._last_time = max(self._last_time, now)

    def _checkpoint(self, now: float) -> None:
        cum = self._cumulative_at(now)
        if self._times and self._times[-1] == now:
            self._cum_busy[-1] = cum
        else:
            self._times.append(now)
            self._cum_busy.append(cum)
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - 2.0 * self.max_window
        # Keep at least one checkpoint at/before the horizon for interpolation.
        cut = bisect.bisect_left(self._times, horizon)
        if cut > 1:
            del self._times[: cut - 1]
            del self._cum_busy[: cut - 1]

    # -- queries --------------------------------------------------------------

    def _cumulative_at(self, t: float) -> float:
        """Cumulative busy seconds from the epoch up to time ``t``."""
        if t >= self._times[-1]:
            # Beyond the recorded history: the running totals are exact.
            if self._busy_since is not None and t >= self._busy_since:
                return self._total_busy + (t - self._busy_since)
            return self._total_busy
        # Interpolate within recorded checkpoints (the signal is
        # piecewise linear with slope 0 or 1; between checkpoints the
        # state did not change, so cumulative busy is flat or linear).
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return 0.0
        t0, c0 = self._times[idx], self._cum_busy[idx]
        c1 = self._cum_busy[idx + 1]
        if c1 > c0:  # busy span between checkpoints
            return c0 + min(t - t0, c1 - c0)
        return c0

    def busy_between(self, t0: float, t1: float) -> float:
        """Busy seconds accumulated in ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"bad interval [{t0}, {t1}]")
        return self._cumulative_at(t1) - self._cumulative_at(t0)

    def utilization(self, now: float, window: float) -> float:
        """Busy fraction over the trailing ``window`` seconds ending at ``now``.

        For ``now < window`` (simulation warm-up) the denominator is
        ``now`` so early readings are not diluted by nonexistent history.
        """
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        if window > self.max_window:
            raise ValueError(
                f"window {window} exceeds meter max_window {self.max_window}"
            )
        start = max(self.epoch, now - window)
        span = now - start
        if span <= 0.0:
            return 1.0 if self._busy_since is not None else 0.0
        frac = self.busy_between(start, now) / span
        return min(1.0, max(0.0, frac))

    def reads_zero(self, now: float, window: float) -> bool:
        """Whether :meth:`utilization` at ``now`` is exactly ``0.0``.

        True when the signal is idle with no transition after the window
        start: both window ends then read the same running busy total,
        and ``x - x`` is an exact zero.
        """
        return self._busy_since is None and self._times[-1] <= max(
            self.epoch, now - window
        )

    def lifetime_utilization(self, now: float) -> float:
        """Busy fraction over ``[epoch, now]``."""
        span = now - self.epoch
        if span <= 0.0:
            return 0.0
        return min(1.0, max(0.0, self._cumulative_at(now) / span))

    @property
    def is_busy(self) -> bool:
        """Whether the resource is currently busy."""
        return self._busy_since is not None
