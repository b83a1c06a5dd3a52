"""Order-independent aggregation of per-run results into one rollup.

A campaign produces one row per grid cell (policy × pattern × workload
× scenario × hardening), and with ``--shards`` those rows arrive in
whatever order the shards finish.  :class:`CampaignRollup` collects
each run's metrics snapshot, SLO verdict, resilience scorecard, and
forecast-calibration report keyed by the cell's stable *tag*, and
serializes them with sorted keys and sorted tags so that

* adding runs in any order,
* merging partial rollups in any order (:meth:`CampaignRollup.merge`),

produce **byte-identical** JSON.  That property is what lets the
sharded campaign path emit the same rollup as a serial run — pinned by
the shard-equality tests.

Aggregates (pass counts, worst cells, campaign-wide means) are
computed *at serialization time* from the sorted rows, never
incrementally, so they cannot depend on insertion order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import TelemetryError


def _clean(value: Any) -> Any:
    """Deep-copy ``value`` into plain JSON types (dict/list/str/num)."""
    if isinstance(value, Mapping):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _miss_ratio(metrics: Mapping[str, Any] | None) -> float | None:
    """The run's missed-deadline ratio under either snapshot spelling
    (``missed`` in the short metrics dict, ``missed_deadline_ratio`` in
    long-form payloads)."""
    if metrics is None:
        return None
    value = metrics.get("missed", metrics.get("missed_deadline_ratio"))
    return None if value is None else float(value)


class CampaignRollup:
    """Per-tag run payloads that merge and serialize order-independently."""

    def __init__(self) -> None:
        self._runs: dict[str, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._runs)

    @property
    def tags(self) -> tuple[str, ...]:
        """All cell tags, sorted."""
        return tuple(sorted(self._runs))

    def add_run(
        self,
        tag: str,
        *,
        metrics: Mapping[str, Any] | None = None,
        slo: Mapping[str, Any] | None = None,
        scorecard: Mapping[str, Any] | None = None,
        calibration: Mapping[str, Any] | None = None,
        decision_digest: str | None = None,
    ) -> None:
        """Record one run's payloads under its cell ``tag``.

        Re-adding the same tag with an identical payload is a no-op
        (shards may overlap on retries); a *different* payload for an
        existing tag raises — that would mean two runs disagreed on
        the same deterministic cell.
        """
        payload = {
            "metrics": _clean(metrics) if metrics is not None else None,
            "slo": _clean(slo) if slo is not None else None,
            "scorecard": _clean(scorecard) if scorecard is not None else None,
            "calibration": _clean(calibration) if calibration is not None else None,
            "decision_digest": decision_digest,
        }
        existing = self._runs.get(tag)
        if existing is not None:
            if existing != payload:
                raise TelemetryError(
                    f"rollup conflict for tag {tag!r}: two runs produced "
                    "different payloads for the same cell"
                )
            return
        self._runs[tag] = payload

    def merge(self, other: "CampaignRollup") -> "CampaignRollup":
        """Fold ``other``'s runs into this rollup (returns ``self``)."""
        for tag in other._runs:
            payload = other._runs[tag]
            existing = self._runs.get(tag)
            if existing is not None:
                if existing != payload:
                    raise TelemetryError(
                        f"rollup merge conflict for tag {tag!r}"
                    )
                continue
            self._runs[tag] = payload
        return self

    # -- aggregates (computed from sorted rows at read time) ----------------

    def _aggregate(self) -> dict[str, Any]:
        tags = self.tags
        n = len(tags)
        slo_pass = slo_fail = slo_absent = 0
        worst_miss: tuple[float, str] | None = None
        miss_sum = 0.0
        miss_n = 0
        alerts = 0
        for tag in tags:
            run = self._runs[tag]
            slo = run["slo"]
            if slo is None:
                slo_absent += 1
            elif slo.get("passed"):
                slo_pass += 1
            else:
                slo_fail += 1
            if slo is not None:
                alerts += len(slo.get("alerts", []))
            ratio = _miss_ratio(run["metrics"])
            if ratio is not None:
                miss_sum += ratio
                miss_n += 1
                if worst_miss is None or ratio > worst_miss[0]:
                    worst_miss = (ratio, tag)
        return {
            "n_runs": n,
            "slo": {
                "passed": slo_pass,
                "failed": slo_fail,
                "absent": slo_absent,
                "alert_transitions": alerts,
            },
            "missed_deadline_ratio": {
                "mean": (miss_sum / miss_n) if miss_n else None,
                "worst": worst_miss[0] if worst_miss else None,
                "worst_tag": worst_miss[1] if worst_miss else None,
            },
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form with sorted tags and computed aggregates."""
        return {
            "schema_version": 2,
            "kind": "campaign_rollup",
            "aggregate": self._aggregate(),
            "runs": {tag: self._runs[tag] for tag in self.tags},
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for equal run sets."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the canonical JSON to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignRollup":
        """Rebuild a rollup from :meth:`to_dict` output."""
        runs = data.get("runs")
        if not isinstance(runs, Mapping):
            raise TelemetryError("rollup document has no 'runs' mapping")
        rollup = cls()
        for tag, payload in runs.items():
            rollup.add_run(
                str(tag),
                metrics=payload.get("metrics"),
                slo=payload.get("slo"),
                scorecard=payload.get("scorecard"),
                calibration=payload.get("calibration"),
                decision_digest=payload.get("decision_digest"),
            )
        return rollup

    @classmethod
    def load(cls, path: str | Path) -> "CampaignRollup":
        """Read a rollup JSON file written by :meth:`write`."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"cannot load rollup {path}: {exc}") from exc
        return cls.from_dict(data)

    def get(self, tag: str) -> dict[str, Any] | None:
        """One cell's payload (or ``None``)."""
        return self._runs.get(tag)

    def render(self) -> str:
        """A compact text table, one row per cell."""
        from repro.formatting import format_table

        rows = []
        for tag in self.tags:
            run = self._runs[tag]
            ratio = _miss_ratio(run["metrics"])
            slo = run["slo"]
            rows.append(
                [
                    tag,
                    "-" if ratio is None else f"{ratio:.4f}",
                    "-" if slo is None else ("PASS" if slo.get("passed") else "FAIL"),
                    "-" if slo is None else len(slo.get("alerts", [])),
                ]
            )
        agg = self._aggregate()
        return format_table(
            ["cell", "miss ratio", "slo", "alerts"],
            rows,
            title=(
                f"campaign rollup: {agg['n_runs']} run(s), "
                f"{agg['slo']['passed']} SLO pass / "
                f"{agg['slo']['failed']} fail"
            ),
        )


def merge_rollups(rollups: Iterable[CampaignRollup]) -> CampaignRollup:
    """Merge any number of partial rollups into a fresh one."""
    merged = CampaignRollup()
    for rollup in rollups:
        merged.merge(rollup)
    return merged
