"""Durable JSONL event log: append-only segments under ``<cache>/telemetry/``.

Every telemetry event — finished spans, queue lease transitions, serving
lifecycle — is one JSON object per line in a *segment* file::

    <telemetry dir>/events-<pid>-<seq>.jsonl

Segments are append-only and rotate by size; sealed segments are never
rewritten, renamed or deleted by the writer, so rotation can never lose
one.  Each process writes its own segment series (pid in the filename):
concurrent workers never interleave partial lines into each other's files.

Crash safety follows the :mod:`repro.atomic` discipline adapted to appends
(an append can't go through temp-file + ``os.replace`` — that would rewrite
the whole segment per event):

* every ``write`` holds whole lines only (one per :meth:`EventLog.append`,
  one per segment for the batch of a sink's drain pass) and goes to the OS
  at once — a SIGKILL'd writer loses nothing already appended;
* ``fsync`` is batched (at most every ``fsync_interval_s``, and always on
  rotation/close), bounding what a *power* failure can lose without paying
  a disk round-trip per event;
* a torn final line (killed mid-append) is tolerated: readers skip any
  line that does not parse, and a writer re-opening a torn segment appends
  a newline first so the next record starts clean.

:func:`read_events` replays every segment in order; :func:`tail` follows
the directory live (new lines *and* new segments) — this is the stream the
ROADMAP's drift monitor consumes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import trace

__all__ = [
    "EventLog",
    "EventSink",
    "configure_sink",
    "configured_sink",
    "default_telemetry_dir",
    "emit",
    "read_events",
    "segment_paths",
    "tail",
]

#: Segment filename shape: ``events-<pid>-<seq>.jsonl``.
SEGMENT_PREFIX = "events"
SEGMENT_SUFFIX = ".jsonl"

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def default_telemetry_dir() -> Path:
    """``<cache root>/telemetry`` for the current environment."""
    from ..eval.engine import default_cache_dir

    return default_cache_dir() / "telemetry"


class EventLog:
    """Append-only, size-rotated JSONL writer for one process.

    Thread-safe; one instance per process per telemetry directory.  See the
    module docstring for the durability contract.
    """

    def __init__(
        self,
        root: Path,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync_interval_s: float = 0.05,
    ) -> None:
        self.root = Path(root)
        self.max_segment_bytes = int(max_segment_bytes)
        self.fsync_interval_s = float(fsync_interval_s)
        self._lock = threading.Lock()
        self._stream = None
        self._size = 0
        self._seq = 0
        self._last_fsync = 0.0
        self._pid = os.getpid()

    # -- segment management ---------------------------------------------
    def _segment_path(self, seq: int) -> Path:
        return self.root / f"{SEGMENT_PREFIX}-{self._pid:08d}-{seq:06d}{SEGMENT_SUFFIX}"

    def _open_segment(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # A recycled pid may find segments from a dead predecessor: continue
        # the sequence after them instead of appending into their files.
        existing = sorted(self.root.glob(f"{SEGMENT_PREFIX}-{self._pid:08d}-*{SEGMENT_SUFFIX}"))
        if existing and self._stream is None and self._seq == 0:
            last = existing[-1]
            try:
                self._seq = int(last.stem.rsplit("-", 1)[-1]) + 1
            except ValueError:
                self._seq = len(existing)
        path = self._segment_path(self._seq)
        # Append-only event segments cannot route through write_atomic (an
        # atomic replace would rewrite the whole file per event); durability
        # comes from unbuffered whole-line appends + batched fsync, and
        # readers skip a torn final line.  ``buffering=0`` makes each append
        # a single write(2), halving the per-record syscall cost.
        # repro-lint: allow[R3] append-only segment; whole-line appends + fsync, torn tail skipped by readers
        self._stream = open(path, "ab", buffering=0)
        self._size = self._stream.seek(0, os.SEEK_END)
        if self._size > 0:
            # Crash-torn tail from a previous writer with this pid: start the
            # next record on a fresh line so it cannot be glued to the tear.
            self._stream.write(b"\n")
            self._size += 1

    def _rotate(self) -> None:
        self._seal_stream()
        self._seq += 1
        self._open_segment()

    def _seal_stream(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            os.fsync(self._stream.fileno())
            self._stream.close()
            self._stream = None

    # -- writing --------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Append one event record (a JSON-serialisable dict) durably."""
        self.append_lines([_encode_line(record)])

    def append_lines(self, lines: List[bytes]) -> None:
        """Append encoded records (see :func:`_encode_line`) in as few writes
        as rotation allows: one per segment they land in."""
        with self._lock:
            if self._stream is None:
                self._open_segment()
            chunk: List[bytes] = []
            size = self._size
            for line in lines:
                if size and size + len(line) > self.max_segment_bytes:
                    self._write(chunk)
                    chunk = []
                    self._rotate()
                    size = self._size
                chunk.append(line)
                size += len(line)
            self._write(chunk)
            now = time.monotonic()
            if now - self._last_fsync >= self.fsync_interval_s:
                os.fsync(self._stream.fileno())
                self._last_fsync = now

    def _write(self, chunk: List[bytes]) -> None:
        if chunk:
            payload = b"".join(chunk)
            self._stream.write(payload)  # unbuffered: this IS the syscall
            self._size += len(payload)

    def close(self) -> None:
        with self._lock:
            self._seal_stream()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _json_default(value: Any) -> Any:
    """Last-resort serialiser: telemetry must not crash on odd attr types."""
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        pass
    return repr(value)


#: One compact encoder for every record: ``json.dumps`` with keyword
#: arguments builds a fresh ``JSONEncoder`` per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_default)


def _encode_line(record: Dict[str, Any]) -> bytes:
    """One record as a compact JSON line, newline included."""
    return _ENCODER.encode(record).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def segment_paths(root: Path) -> List[Path]:
    """Every event segment under ``root``, name-sorted (pid, then seq)."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"{SEGMENT_PREFIX}-*{SEGMENT_SUFFIX}"))


def _iter_segment(path: Path) -> Iterator[Dict[str, Any]]:
    try:
        stream = open(path, "rb")
    except OSError:
        return
    with stream:
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # Torn tail of a crashed writer (or the newline repair that
                # follows it): skip — every record is a whole line or absent.
                continue
            if isinstance(record, dict):
                yield record


def read_events(root: Path, kind: Optional[str] = None) -> Iterator[Dict[str, Any]]:
    """Replay every event under ``root`` (optionally one ``kind`` only)."""
    for path in segment_paths(root):
        for record in _iter_segment(path):
            if kind is None or record.get("kind") == kind:
                yield record


def tail(
    root: Path,
    follow: bool = False,
    poll_s: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they land: replay existing segments, then (with
    ``follow=True``) poll for appended lines and newly created segments
    until ``stop()`` returns true."""
    root = Path(root)
    offsets: Dict[Path, int] = {}

    def drain() -> Iterator[Dict[str, Any]]:
        for path in segment_paths(root):
            start = offsets.get(path, 0)
            try:
                with open(path, "rb") as stream:
                    stream.seek(start)
                    data = stream.read()
            except OSError:
                continue
            if not data:
                continue
            # Only parse up to the last complete line; a partial tail stays
            # unconsumed so the next poll re-reads it once it is whole.
            cut = data.rfind(b"\n") + 1
            offsets[path] = start + cut
            for raw in data[:cut].splitlines():
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record

    yield from drain()
    while follow and not (stop is not None and stop()):
        time.sleep(poll_s)
        yield from drain()


# ----------------------------------------------------------------------
# Process-global sink
# ----------------------------------------------------------------------
class EventSink:
    """The standard-envelope writer components emit through.

    ``emit`` only stamps the envelope and enqueues; a daemon writer thread
    performs the actual durable appends.  This keeps serialisation and the
    write(2) syscall off the instrumented code's critical path (the
    micro-batcher flusher, the engine's unit loop) — the cost there is one
    ``deque.append`` (atomic under the GIL, no lock, and crucially no
    writer wake-up: on a 1-CPU host an ``Event.set`` per emit forces a
    thread context switch per record, which is the expensive part).  The
    writer drains on a short poll instead, so the enqueue-to-durable window
    is ``drain_interval_s`` — the same order as the batched-fsync window
    the log already admits.  ``close`` wakes the writer and drains the
    queue before sealing, so everything emitted before an orderly shutdown
    is durable; a SIGKILL can only lose the most recent unwritten records.
    The queue is bounded: under sustained overload the *oldest* unwritten
    records are dropped (and counted) rather than stalling the
    instrumented work.
    """

    def __init__(
        self,
        root: Path,
        max_pending: int = 10000,
        drain_interval_s: float = 0.05,
        **log_kwargs: Any,
    ) -> None:
        self.root = Path(root)
        self.log = EventLog(self.root, **log_kwargs)
        self.dropped = 0
        self.drain_interval_s = float(drain_interval_s)
        self._max_pending = int(max_pending)
        self._queue: "deque" = deque(maxlen=self._max_pending)
        self._pid = os.getpid()
        self._wakeup = threading.Event()
        self._passes = 0
        self._closed = False
        self._writer = threading.Thread(
            target=self._drain, name="repro-obs-sink", daemon=True
        )
        self._writer.start()

    def emit(self, kind: str, **fields: Any) -> None:
        if self._closed:
            return
        record: Dict[str, Any] = {
            # Observational wall timestamp on the durable record; never an
            # input to computation.
            # repro-lint: allow[R1] telemetry timestamp, observational only
            "ts": time.time(),
            "pid": self._pid,
            "kind": kind,
        }
        record.update(fields)
        self._enqueue(record)

    def export_span(self, finished: "trace.Span") -> None:
        """Trace exporter (see :func:`configure_sink`): one finished span
        as a ``span`` event, stamped with the span's end."""
        if self._closed:
            return
        self._enqueue({
            "ts": finished.start_unix + (finished.duration_s or 0.0),
            "pid": self._pid,
            "kind": "span",
            "name": finished.name,
            "trace_id": finished.trace_id,
            "span_id": finished.span_id,
            "parent_id": finished.parent_id,
            "start_unix": finished.start_unix,
            "duration_s": finished.duration_s,
            "status": finished.status,
            "attrs": dict(finished.attrs),
        })

    def _enqueue(self, record: Dict[str, Any]) -> None:
        if len(self._queue) == self._max_pending:
            # ``maxlen`` makes the append below evict the oldest record;
            # the count is advisory (benign race), the bound is exact.
            self.dropped += 1
        self._queue.append(record)

    def _drain(self) -> None:
        queue = self._queue
        while True:
            self._wakeup.wait(self.drain_interval_s)
            self._wakeup.clear()
            # One pass takes what is queued and appends it in one write per
            # segment: a write per record would hand the GIL back and forth
            # once per record with the threads being observed.
            lines: List[bytes] = []
            while True:
                try:
                    record = queue.popleft()
                except IndexError:
                    break
                try:
                    lines.append(_encode_line(record))
                except Exception:
                    # Telemetry must observe, never break (or die) — count
                    # the loss and keep draining.
                    self.dropped += 1
            if lines:
                try:
                    self.log.append_lines(lines)
                except Exception:
                    self.dropped += len(lines)
            self._passes += 1
            if self._closed and not queue:
                return

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Block until everything emitted before this call is appended.

        Waits for the writer to *complete* one full drain pass after the
        call starts: a pass only finishes by emptying the queue, and the
        queue is FIFO, so completion implies every record enqueued before
        the wait began has been handed to the log.  Returns ``False`` on
        timeout (or if the writer is gone with records still pending).
        """
        target = self._passes + 1
        deadline = time.monotonic() + float(timeout_s)
        while self._passes < target:
            if self._closed or not self._writer.is_alive():
                return not self._queue
            if time.monotonic() >= deadline:
                return False
            self._wakeup.set()
            time.sleep(0.005)
        return True

    def close(self) -> None:
        already, self._closed = self._closed, True
        self._wakeup.set()
        if not already:
            self._writer.join(timeout=10.0)
        self.log.close()


_SINK_LOCK = threading.Lock()
_SINK: Optional[EventSink] = None


def configure_sink(root: Optional[Path], **log_kwargs: Any) -> Optional[EventSink]:
    """Install (or, with ``None``, remove) the process-global event sink.

    The sink is what makes spans/events durable; without one, ``emit`` is a
    no-op and tracing stays purely in-memory (metrics only).  While
    configured, the sink is a trace exporter, so every finished span
    becomes a ``span`` event.  CLI entry points configure it under the
    active cache directory.
    """
    global _SINK
    with _SINK_LOCK:
        previous, _SINK = _SINK, None
    if previous is not None:
        trace.remove_exporter(previous.export_span)
        previous.close()
    if root is None:
        return None
    sink = EventSink(Path(root), **log_kwargs)
    with _SINK_LOCK:
        _SINK = sink
    trace.add_exporter(sink.export_span)
    return sink


def configured_sink() -> Optional[EventSink]:
    with _SINK_LOCK:
        return _SINK


def emit(kind: str, **fields: Any) -> None:
    """Emit one event through the global sink (no-op if none / disabled)."""
    if not trace.telemetry_enabled():
        return
    sink = configured_sink()
    if sink is None:
        return
    try:
        sink.emit(kind, **fields)
    except Exception:
        # Telemetry must observe, never break the instrumented work.
        pass
