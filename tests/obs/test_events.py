"""Durability tests for the JSONL event log.

The contract (module docstring of :mod:`repro.obs.events`): every record is
one flushed whole-line append, sealed segments are never rewritten or lost,
and a reader always gets every intact record — a torn tail from a SIGKILL'd
writer is skipped, never propagated as an error.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.obs import events, trace
from repro.obs.events import EventLog, EventSink, read_events, segment_paths, tail


class TestRoundTrip:
    def test_append_read_roundtrip(self, tmp_path):
        with EventLog(tmp_path) as log:
            for index in range(10):
                log.append({"kind": "t", "index": index})
        records = list(read_events(tmp_path))
        assert [record["index"] for record in records] == list(range(10))

    def test_kind_filter(self, tmp_path):
        with EventLog(tmp_path) as log:
            log.append({"kind": "a"})
            log.append({"kind": "b"})
            log.append({"kind": "a"})
        assert len(list(read_events(tmp_path, kind="a"))) == 2

    def test_empty_dir_reads_empty(self, tmp_path):
        assert list(read_events(tmp_path / "nothing")) == []

    def test_odd_types_never_raise(self, tmp_path):
        import numpy as np

        with EventLog(tmp_path) as log:
            log.append({
                "kind": "odd",
                "npint": np.int64(3),
                "npfloat": np.float64(0.5),
                "array": np.arange(3),
                "opaque": object(),
            })
        (record,) = read_events(tmp_path)
        assert record["npint"] == 3
        assert record["array"] == [0, 1, 2]
        assert record["opaque"].startswith("<object object")


class TestRotation:
    def test_size_rotation_seals_and_keeps_everything(self, tmp_path):
        with EventLog(tmp_path, max_segment_bytes=200) as log:
            for index in range(50):
                log.append({"kind": "r", "index": index, "pad": "x" * 20})
        segments = segment_paths(tmp_path)
        assert len(segments) > 1
        records = list(read_events(tmp_path))
        assert [record["index"] for record in records] == list(range(50))

    def test_batched_append_rotates_between_whole_lines(self, tmp_path):
        lines = [
            events._encode_line({"kind": "b", "index": index, "pad": "x" * 20})
            for index in range(50)
        ]
        with EventLog(tmp_path, max_segment_bytes=200) as log:
            log.append_lines(lines)
        segments = segment_paths(tmp_path)
        assert len(segments) > 1
        assert all(path.stat().st_size <= 200 for path in segments)
        records = list(read_events(tmp_path))
        assert [record["index"] for record in records] == list(range(50))

    def test_pid_reuse_continues_sequence(self, tmp_path):
        with EventLog(tmp_path) as log:
            log.append({"kind": "first"})
        with EventLog(tmp_path) as log:
            log.append({"kind": "second"})
        segments = segment_paths(tmp_path)
        assert len(segments) == 2  # a new segment, not an in-place append
        kinds = [record["kind"] for record in read_events(tmp_path)]
        assert kinds == ["first", "second"]


class TestTornTail:
    def test_torn_tail_is_skipped(self, tmp_path):
        with EventLog(tmp_path) as log:
            log.append({"kind": "whole", "index": 0})
            log.append({"kind": "whole", "index": 1})
        (segment,) = segment_paths(tmp_path)
        with open(segment, "ab") as stream:
            stream.write(b'{"kind": "torn", "ind')  # killed mid-append
        records = list(read_events(tmp_path))
        assert [record["index"] for record in records] == [0, 1]

    def test_writer_reopening_torn_segment_starts_clean(self, tmp_path):
        with EventLog(tmp_path) as log:
            log.append({"kind": "before"})
        (segment,) = segment_paths(tmp_path)
        with open(segment, "ab") as stream:
            stream.write(b'{"kind": "torn"')
        # A recycled-pid writer opens a *new* segment; force the torn one to
        # be reopened directly to exercise the newline repair.
        log = EventLog(tmp_path)
        log._seq = int(segment.stem.rsplit("-", 1)[-1])
        log._open_segment()
        log.append({"kind": "after"})
        log.close()
        kinds = [record["kind"] for record in read_events(tmp_path)]
        assert kinds == ["before", "after"]

    def test_tail_defers_partial_line_until_whole(self, tmp_path):
        log = EventLog(tmp_path)
        log.append({"kind": "a"})
        log.close()
        (segment,) = segment_paths(tmp_path)
        with open(segment, "ab") as stream:
            stream.write(b'{"kind": "b"')
            stream.flush()
            assert [r["kind"] for r in tail(tmp_path)] == ["a"]
            stream.write(b"}\n")
            stream.flush()
        kinds = [record["kind"] for record in tail(tmp_path)]
        assert kinds == ["a", "b"]

    def test_tail_follow_sees_new_segments(self, tmp_path):
        with EventLog(tmp_path, max_segment_bytes=80) as log:
            seen = []
            stream = tail(tmp_path, follow=True, poll_s=0.01,
                          stop=lambda: len(seen) >= 6)
            for index in range(6):
                log.append({"kind": "f", "index": index, "pad": "y" * 30})
            for record in stream:
                seen.append(record)
        assert [record["index"] for record in seen] == list(range(6))
        assert len(segment_paths(tmp_path)) > 1


class TestSinkSafety:
    def test_emit_without_sink_is_noop(self):
        events.emit("nobody", listening=True)  # must not raise

    def test_emit_respects_disabled_telemetry(self, tmp_path):
        events.configure_sink(tmp_path)
        trace.set_enabled(False)
        events.emit("silenced")
        trace.set_enabled(True)
        events.emit("heard")
        events.configure_sink(None)
        kinds = [record["kind"] for record in read_events(tmp_path)]
        assert kinds == ["heard"]

    def test_raising_sink_never_breaks_the_caller(self, tmp_path, monkeypatch):
        sink = events.configure_sink(tmp_path)

        def explode(lines):
            raise OSError("disk on fire")

        monkeypatch.setattr(sink.log, "append_lines", explode)
        events.emit("doomed")  # swallowed
        with trace.span("still.works"):
            pass  # emit_span is also swallowed
        events.configure_sink(None)

    def test_sink_envelope_has_ts_pid_kind(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("env", extra=1)
        sink.close()
        (record,) = read_events(tmp_path)
        assert record["kind"] == "env"
        assert record["pid"] == os.getpid()
        assert record["extra"] == 1
        assert isinstance(record["ts"], float)

    def test_span_record_is_the_span_envelope(self, tmp_path):
        events.configure_sink(tmp_path)
        with trace.span("envelope.probe", rows=2) as live:
            pass
        events.configure_sink(None)
        (record,) = read_events(tmp_path, kind="span")
        assert record == {
            "ts": pytest.approx(live.start_unix + live.duration_s),
            "pid": os.getpid(),
            "kind": "span",
            "name": "envelope.probe",
            "trace_id": live.trace_id,
            "span_id": live.span_id,
            "parent_id": None,
            "start_unix": live.start_unix,
            "duration_s": live.duration_s,
            "status": "ok",
            "attrs": {"rows": 2},
        }

    def test_reconfigured_sink_takes_over_span_export(self, tmp_path):
        exporters = len(trace._EXPORTERS)
        events.configure_sink(tmp_path / "first")
        with trace.span("to.first"):
            pass
        events.configure_sink(tmp_path / "second")
        with trace.span("to.second"):
            pass
        events.configure_sink(None)
        assert len(trace._EXPORTERS) == exporters  # no stale sink left behind
        with trace.span("to.nobody"):
            pass
        for root, name in (("first", "to.first"), ("second", "to.second")):
            assert [r["name"] for r in read_events(tmp_path / root)] == [name]

    def test_flush_makes_prior_emits_readable(self, tmp_path):
        sink = EventSink(tmp_path, drain_interval_s=5.0)
        for index in range(50):
            sink.emit("pending", index=index)
        # The writer polls every 5s here, so without flush() nothing would
        # be on disk yet; flush must wake it and wait for the drain.
        assert sink.flush(timeout_s=10.0)
        indices = [record["index"] for record in read_events(tmp_path)]
        assert indices == list(range(50))
        sink.close()

    def test_flush_after_close_reports_drained(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("last", words=True)
        sink.close()
        assert sink.flush(timeout_s=1.0)  # queue already drained by close


class TestCrashSafety:
    def test_sigkilled_writer_loses_nothing_flushed(self, tmp_path):
        """A writer SIGKILL'd mid-stream leaves every appended line readable."""
        script = textwrap.dedent(
            """
            import os, signal, sys
            from repro.obs.events import EventLog
            log = EventLog(sys.argv[1], max_segment_bytes=500)
            for index in range(40):
                log.append({"kind": "doomed", "index": index, "pad": "z" * 20})
            os.kill(os.getpid(), signal.SIGKILL)  # no close(), no atexit
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            timeout=60,
        )
        assert process.returncode == -signal.SIGKILL
        records = list(read_events(tmp_path))
        # Every append is flushed whole-line before the kill reaches us.
        assert [record["index"] for record in records] == list(range(40))
        assert len(segment_paths(tmp_path)) > 1  # sealed segments survived

    def test_sigkilled_queue_worker_leaves_readable_log(self, tmp_path):
        """A real queue worker killed mid-run: the log stays parseable and
        sealed events (lease acquisitions at minimum) survive."""
        from repro.api import ExperimentSpec
        from repro.eval.engine import ArtifactCache
        from repro.queue import RunLedger

        spec = ExperimentSpec(
            models=("KNN",),
            profile="quick",
            devices=("OP3",),
            attack_methods=("FGSM",),
            epsilons=(0.1,),
            phi_percents=(10.0,),
        )
        cache = ArtifactCache(tmp_path / "cache")
        ledger = RunLedger.submit(spec, cache)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "queue", "work",
                ledger.run_id, "--cache-dir", str(cache.root),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        telemetry = cache.root / "telemetry"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if any(path.stat().st_size > 0 for path in segment_paths(telemetry)):
                break
            if process.poll() is not None:
                break  # tiny run drained before we could kill it — still valid
            time.sleep(0.05)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=60)
        # The log must be replayable without error and contain only whole
        # records with the standard envelope.
        records = list(read_events(telemetry))
        assert records, "worker produced no durable telemetry"
        assert all("kind" in record and "pid" in record for record in records)
        kinds = {record["kind"] for record in records}
        assert "queue.lease" in kinds
