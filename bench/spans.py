"""Span collection and the arithmetic of attribution.

Traced processes record spans with the program's own
``repro.obs.trace.span`` and collect them through ``trace.add_exporter``
into a :class:`Collector`, which writes one JSON line per span when the
process ends.  A few boundary counts that are not intervals (how long a
request waited on the micro-batcher's future) ride along as ``counters``.

Analysis works on plain span dicts (``name``, ``span_id``, ``parent_id``,
``start``, ``dur``, ``attrs``) merged from every traced process:

* a span's *self time* is its duration minus the part of its interval that
  its children cover;
* a name's *busy time* is the summed duration of its spans that do not sit
  inside a span of the same name or of one of its peers (so a lease read
  made while committing counts once, as commit);
* *unattributed* time is wall time that no span covers.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Collector",
    "load",
    "layer_of",
    "union_length",
    "self_times",
    "layer_self_times",
    "outermost",
    "covered",
]

#: Layer of each span the program itself emits.
PROGRAM_SPAN_LAYERS = {
    "engine.unit": "eval",
    "queue.unit": "queue",
    "http.request": "serve",
    "serve.batch.flush": "serve",
}


class Collector:
    """In-memory span exporter (register with ``trace.add_exporter``)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    def __call__(self, span) -> None:
        record = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start_unix,
            "dur": span.duration_s or 0.0,
            "attrs": dict(span.attrs),
        }
        with self._lock:
            self.spans.append(record)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def write(self, path: Path) -> None:
        with self._lock:
            spans, counters = list(self.spans), dict(self.counters)
        with open(path, "w") as stream:
            for record in spans:
                stream.write(json.dumps(record, default=str) + "\n")
            stream.write(json.dumps({"counters": counters}) + "\n")


def load(paths: Iterable[Path]) -> Tuple[List[dict], Dict[str, float]]:
    """Spans and summed counters from the JSONL files of several processes."""
    spans: List[dict] = []
    counters: Dict[str, float] = {}
    for path in paths:
        with open(path) as stream:
            for line in stream:
                record = json.loads(line)
                if "counters" in record:
                    for name, value in record["counters"].items():
                        counters[name] = counters.get(name, 0.0) + value
                else:
                    spans.append(record)
    return spans, counters


def layer_of(name: str) -> str:
    return PROGRAM_SPAN_LAYERS.get(name, name.split(".", 1)[0])


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """``span_id -> duration minus the part its children cover``."""
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    result: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["start"] + span["dur"]
        kids = [
            (max(start, kid["start"]), min(end, kid["start"] + kid["dur"]))
            for kid in children.get(span["span_id"], ())
        ]
        result[span["span_id"]] = max(0.0, span["dur"] - union_length(kids))
    return result


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time summed per layer (the first component of the span name)."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["span_id"]]
    return totals


def outermost(
    spans: Sequence[dict],
    name: str,
    peers: Iterable[str] = (),
    where: Optional[Callable[[dict], bool]] = None,
) -> List[dict]:
    """``name`` spans (matching ``where``) not nested in ``name`` or a peer."""
    by_id = {span["span_id"]: span for span in spans}
    excluded = {name, *peers}
    found = []
    for span in spans:
        if span["name"] != name or (where is not None and not where(span)):
            continue
        parent = by_id.get(span["parent_id"])
        while parent is not None and parent["name"] not in excluded:
            parent = by_id.get(parent["parent_id"])
        if parent is None:
            found.append(span)
    return found


def covered(spans: Sequence[dict], windows: Sequence[Tuple[float, float]]) -> float:
    """Seconds of the ``windows`` (wall-clock bounds) that some span covers."""
    return sum(
        union_length(
            (max(lo, span["start"]), min(hi, span["start"] + span["dur"]))
            for span in spans
        )
        for lo, hi in windows
    )
