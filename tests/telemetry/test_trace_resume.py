"""Trace continuity across checkpoint/restore (:mod:`repro.recovery`).

A run streaming a :class:`JsonlTraceSink` that is snapshotted and
resumed must leave ONE coherent trace file: the records written before
the snapshot survive (append-mode reopen, no truncation) and the
continuation's records follow them, all loadable by
:func:`read_jsonl`.
"""

from __future__ import annotations

import pickle

from repro.experiments.config import BaselineConfig, ExperimentConfig
from repro.experiments.runner import build_world, run_experiment
from repro.recovery import restore_snapshot, take_snapshot
from repro.telemetry import TelemetryHub
from repro.telemetry.sinks import JsonlTraceSink, read_jsonl

BASELINE = BaselineConfig(n_periods=8, seed=3)
CONFIG = ExperimentConfig(
    policy="predictive",
    pattern="triangular",
    max_workload_units=12.0,
    baseline=BASELINE,
)


class TestAppendMode:
    def test_append_reopen_concatenates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 1.0, "kind": "trace", "label": "first"})
        with JsonlTraceSink(path, append=True) as sink:
            sink.write({"t": 2.0, "kind": "trace", "label": "second"})
        records = read_jsonl(path)
        assert [r["label"] for r in records] == ["first", "second"]

    def test_default_mode_still_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 1.0, "kind": "trace", "label": "first"})
        with JsonlTraceSink(path) as sink:
            sink.write({"t": 2.0, "kind": "trace", "label": "second"})
        assert [r["label"] for r in read_jsonl(path)] == ["second"]

    def test_unpickled_sink_reopens_in_append_mode(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write({"t": 1.0, "kind": "trace", "label": "before"})
        clone = pickle.loads(pickle.dumps(sink))
        sink.close()
        clone.write({"t": 2.0, "kind": "trace", "label": "after"})
        clone.close()
        assert [r["label"] for r in read_jsonl(path)] == ["before", "after"]


class TestResumedRunTrace:
    def test_resumed_trace_concatenates_and_round_trips(self, tmp_path, fitted_estimator):
        # Reference: one uninterrupted traced run.
        ref_path = tmp_path / "ref.jsonl"
        with JsonlTraceSink(ref_path, flush_every=1) as sink:
            run_experiment(
                CONFIG, estimator=fitted_estimator, telemetry=TelemetryHub(sink)
            )
        reference = read_jsonl(ref_path)
        assert reference, "traced reference run produced no records"

        # Crash-and-resume: snapshot mid-run (the sink pickles with the
        # world), keep running nothing in the original, restore, finish.
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path, flush_every=1)
        world = build_world(
            CONFIG, estimator=fitted_estimator, telemetry=TelemetryHub(sink)
        )
        world.system.engine.run_until(3.0)
        snapshot = take_snapshot(world)
        sink.close()  # the "crash": original process gone, file flushed

        resumed_world = restore_snapshot(snapshot)
        resumed_world.system.engine.run_until(resumed_world.end_time)
        resumed_world.system.engine.telemetry.sink.close()

        merged = read_jsonl(path)
        times = [r["t"] for r in merged]
        assert times == sorted(times)
        # The pre-snapshot prefix survived and the continuation extends
        # past the snapshot point.
        assert any(r["t"] <= 3.0 for r in merged)
        assert any(r["t"] > 3.0 for r in merged)
        # Same event stream as the uninterrupted run, modulo the few
        # records the original emitted between snapshot and close: the
        # merged trace replays the reference's (t, kind, label) stream.
        def key(record):
            return (record["t"], record["kind"], record.get("label"))

        ref_keys = [key(r) for r in reference]
        merged_keys = [key(r) for r in merged]
        assert merged_keys == ref_keys
