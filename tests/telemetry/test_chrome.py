"""Unit tests for the Chrome trace exporter and trace summaries."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.chrome import (
    PID_NETWORK,
    PID_PROCESSORS,
    PID_RM,
    PID_TASK,
    forecast_stats,
    iter_kinds,
    processor_utilization,
    replica_counts,
    run_meta,
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
)


def _job(t, processor, latency, label="sub0"):
    return {
        "t": t,
        "kind": "trace",
        "cat": "job",
        "label": label,
        "data": {"processor": processor, "latency": latency},
    }


def _span(span_id, t, end_t, replicas, actions=()):
    return {
        "t": t,
        "kind": "rm.span",
        "span_id": span_id,
        "end_t": end_t,
        "verdicts": [],
        "forecasts": [],
        "actions": list(actions),
        "replicas": replicas,
    }


SAMPLE = [
    {"t": 0.0, "kind": "run.meta", "policy": "predictive", "horizon": 10.0},
    _job(1.0, "p0", 0.4),
    _job(2.0, "p1", 0.5),
    {
        "t": 3.0,
        "kind": "trace",
        "cat": "message",
        "label": "m0",
        "data": {"total_delay": 0.1},
    },
    {
        "t": 3.5,
        "kind": "trace",
        "cat": "message",
        "label": "m1.lost",
        "data": {},
    },
    {
        "t": 3.7,
        "kind": "trace",
        "cat": "message",
        "label": "m2.dropped",
        "data": {"losses": 3},
    },
    {
        "t": 4.0,
        "kind": "trace",
        "cat": "period",
        "label": "period0.complete",
        "data": {"latency": 0.8},
    },
    {"t": 4.5, "kind": "trace", "cat": "failure", "label": "p1.fail", "data": {}},
    _span(1, 5.0, 5.1, {"0": 1, "1": 2}, actions=[{"kind": "replicate"}]),
    _span(2, 6.0, 6.0, {"0": 1, "1": 3}),
    {
        "t": 7.0,
        "kind": "rm.forecast_realized",
        "period": 3,
        "subtask": 1,
        "replicas": 3,
        "forecast_s": 0.5,
        "observed_s": 0.4,
        "error_s": 0.1,
    },
    {"t": 8.0, "kind": "trace", "cat": "event", "label": "noise", "data": {}},
]


class TestToChromeTrace:
    def test_document_shape_and_json_serializable(self):
        doc = to_chrome_trace(SAMPLE)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        json.dumps(doc)  # must not raise
        assert doc["otherData"]["policy"] == "predictive"

    def test_metadata_names_all_four_processes(self):
        doc = to_chrome_trace(SAMPLE)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert process_names == {
            "processors", "network", "resource manager", "task periods"
        }
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert {"p0", "p1"} <= thread_names

    def test_job_becomes_backdated_slice_on_processor_track(self):
        doc = to_chrome_trace(SAMPLE)
        [slice0] = [
            e
            for e in doc["traceEvents"]
            if e.get("cat") == "job" and e["args"].get("processor") == "p0"
        ]
        assert slice0["ph"] == "X"
        assert slice0["pid"] == PID_PROCESSORS
        # Completed at t=1.0 with latency 0.4 -> started at 0.6s = 6e5us.
        assert slice0["ts"] == pytest.approx(0.6e6)
        assert slice0["dur"] == pytest.approx(0.4e6)

    def test_message_and_loss_events(self):
        doc = to_chrome_trace(SAMPLE)
        messages = [e for e in doc["traceEvents"] if e.get("cat") == "message"]
        phases = {e["name"]: e["ph"] for e in messages}
        assert phases == {"m0": "X", "m1.lost": "i", "m2.dropped": "i"}
        assert all(e["pid"] == PID_NETWORK for e in messages)

    def test_acted_span_is_marked(self):
        doc = to_chrome_trace(SAMPLE)
        rm_events = [
            e
            for e in doc["traceEvents"]
            if e.get("cat") == "rm" and e["pid"] == PID_RM
        ]
        names = [e["name"] for e in rm_events]
        assert "rm.step#1 (acted)" in names
        assert "rm.step#2" in names
        # A zero-duration span renders as an instant, not a slice.
        by_name = {e["name"]: e for e in rm_events}
        assert by_name["rm.step#1 (acted)"]["ph"] == "X"
        assert by_name["rm.step#2"]["ph"] == "i"

    def test_period_and_failure_events(self):
        doc = to_chrome_trace(SAMPLE)
        [period] = [e for e in doc["traceEvents"] if e.get("cat") == "period"]
        assert period["ph"] == "X"
        assert period["pid"] == PID_TASK
        [failure] = [e for e in doc["traceEvents"] if e.get("cat") == "failure"]
        assert failure["ph"] == "i"
        assert failure["pid"] == PID_PROCESSORS

    def test_event_firehose_is_excluded(self):
        doc = to_chrome_trace(SAMPLE)
        assert not any(
            e.get("name") == "noise" for e in doc["traceEvents"]
        )

    def test_write_chrome_trace_round_trips(self, tmp_path):
        target = tmp_path / "out" / "trace.chrome.json"
        written = write_chrome_trace(SAMPLE, target)
        assert written == target
        doc = json.loads(target.read_text())
        assert doc["displayTimeUnit"] == "ms"


class TestSummaries:
    def test_processor_utilization_unions_intervals(self):
        records = [
            _job(1.0, "p0", 0.5),
            _job(1.2, "p0", 0.5),  # overlaps [0.5, 1.0]: union is [0.5, 1.2]
            _job(2.0, "p1", 1.0),
        ]
        util = processor_utilization(records, horizon=10.0)
        assert util["p0"] == pytest.approx(0.7 / 10.0)
        assert util["p1"] == pytest.approx(1.0 / 10.0)

    def test_utilization_capped_at_one_and_falls_back_to_t_max(self):
        records = [_job(2.0, "p0", 5.0)]  # latency > horizon
        util = processor_utilization(records)  # horizon=None -> t_max=2.0
        assert util["p0"] == 1.0

    def test_utilization_empty_trace(self):
        assert processor_utilization([]) == {}

    def test_replica_counts(self):
        records = [
            _span(1, 1.0, 1.1, {"0": 1, "1": 2}),
            _span(2, 2.0, 2.1, {"0": 1, "1": 4}),
        ]
        stats = replica_counts(records)
        assert stats[0] == {"mean": 1.0, "max": 1.0, "final": 1.0}
        assert stats[1] == {"mean": 3.0, "max": 4.0, "final": 4.0}

    def test_forecast_stats(self):
        records = [
            {
                "t": 1.0,
                "kind": "rm.span",
                "span_id": 1,
                "end_t": 1.1,
                "forecasts": [{"subtask": 0}, {"subtask": 0}],
                "actions": [],
                "replicas": {},
            },
            {
                "t": 2.0,
                "kind": "rm.forecast_realized",
                "forecast_s": 0.5,
                "observed_s": 0.4,
                "error_s": 0.1,
            },
            {
                "t": 3.0,
                "kind": "rm.forecast_realized",
                "forecast_s": 0.3,
                "observed_s": 0.4,
                "error_s": -0.1,
            },
        ]
        stats = forecast_stats(records)
        assert stats["n_evaluations"] == 2.0
        assert stats["n_realized"] == 2.0
        assert stats["mape"] == pytest.approx((0.25 + 0.25) / 2)
        assert stats["mean_error_s"] == pytest.approx(0.0)
        assert stats["pessimism_rate"] == 0.5

    def test_forecast_stats_empty(self):
        stats = forecast_stats([])
        assert stats["n_realized"] == 0.0
        assert stats["mape"] == 0.0

    def test_run_meta_merges(self):
        records = [
            {"t": 0.0, "kind": "run.meta", "policy": "predictive"},
            {"t": 0.0, "kind": "run.meta", "seed": 7},
        ]
        assert run_meta(records) == {"policy": "predictive", "seed": 7}

    def test_summarize_trace_contains_all_sections(self):
        text = summarize_trace(SAMPLE)
        assert "run" in text
        assert "per-processor utilization" in text
        assert "per-subtask replica counts" in text
        assert "forecast calibration" in text
        assert "p0" in text
        assert "MAPE" in text

    def test_summarize_trace_empty_records_still_renders(self):
        text = summarize_trace([])
        assert "forecast calibration" in text

    def test_iter_kinds(self):
        counts = iter_kinds(SAMPLE)
        assert counts["rm.span"] == 2
        assert counts["trace.job"] == 2
        assert counts["run.meta"] == 1
