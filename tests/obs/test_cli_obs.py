"""Tests for ``repro obs`` and the CLI telemetry opt-out wiring."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

from repro.obs import events, trace
from repro.obs.events import EventSink
from repro.reproduce import _setup_telemetry, main


@pytest.fixture()
def telemetry_dir(tmp_path):
    """A populated event-log directory: two traces, one with a run id."""
    sink = EventSink(tmp_path / "telemetry")
    sink.emit("queue.lease", action="acquired", run_id="run-aaa", unit_id="u1")
    sink.emit(
        "span",
        name="queue.unit",
        trace_id="t1",
        span_id="t1",
        parent_id=None,
        start_unix=1.0,
        duration_s=0.25,
        status="ok",
        attrs={"run_id": "run-aaa", "unit_id": "u1"},
    )
    sink.emit(
        "span",
        name="engine.unit",
        trace_id="t1",
        span_id="s2",
        parent_id="t1",
        start_unix=1.1,
        duration_s=0.2,
        status="ok",
        attrs={"kind": "train", "unit_id": "u1"},
    )
    sink.emit(
        "span",
        name="engine.unit",
        trace_id="t2",
        span_id="s3",
        parent_id=None,
        start_unix=2.0,
        duration_s=0.1,
        status="error",
        attrs={"kind": "eval", "unit_id": "u9"},
    )
    sink.close()
    return tmp_path / "telemetry"


class TestObsSummary:
    def test_json_summary(self, telemetry_dir, capsys):
        assert main(
            ["obs", "summary", "--json", "--telemetry-dir", str(telemetry_dir)]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["events"] == 4
        assert document["kinds"] == {"queue.lease": 1, "span": 3}
        assert document["spans"]["engine.unit"]["count"] == 2
        assert document["spans"]["engine.unit"]["errors"] == 1
        assert document["spans"]["queue.unit"]["mean_ms"] == 250.0

    def test_table_summary(self, telemetry_dir, capsys):
        assert main(["obs", "summary", "--telemetry-dir", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine.unit" in out
        assert "queue.lease" in out

    def test_cache_dir_points_at_telemetry_subdir(self, telemetry_dir, capsys):
        cache_root = telemetry_dir.parent
        assert main(["obs", "summary", "--json", "--cache-dir", str(cache_root)]) == 0
        assert json.loads(capsys.readouterr().out)["events"] == 4

    def test_empty_dir_summarises_cleanly(self, tmp_path, capsys):
        assert main(
            ["obs", "summary", "--json", "--telemetry-dir", str(tmp_path / "nope")]
        ) == 0
        assert json.loads(capsys.readouterr().out)["events"] == 0


class TestObsTail:
    def test_tail_emits_json_lines(self, telemetry_dir, capsys):
        assert main(["obs", "tail", "--telemetry-dir", str(telemetry_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_tail_kind_and_limit(self, telemetry_dir, capsys):
        assert main(
            [
                "obs", "tail", "--kind", "span", "--limit", "2",
                "--telemetry-dir", str(telemetry_dir),
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["kind"] == "span" for line in lines)


class TestObsSpans:
    def test_span_forest_nests_children(self, telemetry_dir, capsys):
        assert main(
            ["obs", "spans", "--json", "--telemetry-dir", str(telemetry_dir)]
        ) == 0
        forest = json.loads(capsys.readouterr().out)
        assert [root["span_id"] for root in forest] == ["t1", "s3"]
        (child,) = forest[0]["children"]
        assert child["span_id"] == "s2"
        assert child["children"] == []

    def test_run_id_filter_keeps_whole_trace(self, telemetry_dir, capsys):
        assert main(
            [
                "obs", "spans", "--json", "--run-id", "run-aaa",
                "--telemetry-dir", str(telemetry_dir),
            ]
        ) == 0
        forest = json.loads(capsys.readouterr().out)
        assert len(forest) == 1
        assert forest[0]["span_id"] == "t1"
        # The child span has no run_id attr of its own but rides the trace.
        assert forest[0]["children"][0]["span_id"] == "s2"

    def test_text_rendering_indents_by_depth(self, telemetry_dir, capsys):
        assert main(["obs", "spans", "--telemetry-dir", str(telemetry_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("queue.unit")
        assert lines[1].startswith("  engine.unit")
        assert "[error]" in lines[2]

    def test_orphan_parent_surfaces_as_root(self, tmp_path, capsys):
        sink = EventSink(tmp_path)
        sink.emit(
            "span", name="orphan", trace_id="tX", span_id="sX",
            parent_id="never-finished", start_unix=1.0, duration_s=0.1,
            status="ok", attrs={},
        )
        sink.close()
        assert main(["obs", "spans", "--json", "--telemetry-dir", str(tmp_path)]) == 0
        forest = json.loads(capsys.readouterr().out)
        assert [root["name"] for root in forest] == ["orphan"]


class TestTelemetryOptOut:
    def _args(self, **kv):
        return argparse.Namespace(**kv)

    def test_no_telemetry_flag_disables(self):
        _setup_telemetry(self._args(no_telemetry=True, cache_dir=None))
        assert not trace.telemetry_enabled()
        assert events.configured_sink() is None

    def test_enabled_configures_sink_under_cache(self, tmp_path):
        _setup_telemetry(self._args(no_telemetry=False, cache_dir=tmp_path))
        sink = events.configured_sink()
        assert sink is not None
        assert sink.root == tmp_path / "telemetry"

    def test_env_opt_out_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace.TELEMETRY_ENV, "0")
        _setup_telemetry(self._args(no_telemetry=False, cache_dir=tmp_path))
        assert events.configured_sink() is None
        assert not trace.telemetry_enabled()

    def test_spans_are_durable_through_cli_wiring(self, tmp_path):
        _setup_telemetry(self._args(no_telemetry=False, cache_dir=tmp_path))
        with trace.span("cli.spin"):
            pass
        events.configure_sink(None)  # flush + close
        records = list(events.read_events(tmp_path / "telemetry"))
        assert [record["name"] for record in records] == ["cli.spin"]


class TestSinkClosedAtExit:
    RUN = ["run", "--models", "KNN", "--devices", "OP3", "--methods", "FGSM",
           "--epsilons", "0.3", "--phis", "50"]

    def test_in_process_main_closes_the_sink_it_configured(self, tmp_path, capsys):
        assert main([*self.RUN, "--cache-dir", str(tmp_path)]) == 0
        assert events.configured_sink() is None

    def test_a_run_process_logs_every_unit_before_it_exits(self, tmp_path):
        """The sink appends what it queued every 50 ms; the last units of a
        short run are only logged because the CLI closes the sink."""
        subprocess.run(
            [sys.executable, "-m", "repro", *self.RUN, "--cache-dir", str(tmp_path)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        units = [
            record
            for record in events.read_events(tmp_path / "telemetry", kind="span")
            if record["name"] == "engine.unit"
        ]
        assert len(units) == 3
