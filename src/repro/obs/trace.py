"""Lightweight structured tracing: nested spans over contextvars.

A *span* is one timed unit of work — an engine unit, a queue worker
execution, an HTTP request, a micro-batch flush.  Spans carry a name, a
flat attribute dict, a monotonic-clock duration, and parent linkage so a
traced run replays as a tree::

    with trace.span("engine.unit", kind="train", unit_id=uid) as sp:
        ...
        sp.set(cache_hits=2)

Parent linkage rides on a :class:`contextvars.ContextVar`, so spans nest
naturally through nested ``with`` blocks and across ``await`` points in
the asyncio front end.  Plain ``threading.Thread`` hand-offs (the
MicroBatcher flusher, the aio front end's executor threads) start from an
empty context; the producing side captures :func:`current` and the
consuming side re-enters it with :func:`attach` — see
``MicroBatcher.submit`` / ``_flush``.

Cost model: when tracing is disabled (``REPRO_TELEMETRY=0`` /
``--no-telemetry`` / :func:`set_enabled`), :func:`span` returns a shared
no-op context manager — no object allocation, no clock reads, no context
switch.  When enabled, a span is one object that is its own context
manager; when it finishes it increments ``repro_spans_total{name=}``,
observes ``repro_span_seconds{name=}`` in the default registry, and goes
to every exporter — the durable event sink registers itself as one while
it is configured (see :mod:`repro.obs.events`).  The serving path
finishes one span per micro-batch flush, thousands a second under load, so
nothing on this path takes a lock except the two metric updates.

Determinism: spans read the monotonic clock for durations and a wall
timestamp for event records, and never touch any RNG — tracing cannot
perturb seeded computation, which is what lets every bit-identity
invariant hold with tracing enabled.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Optional, Tuple

from .metrics import REGISTRY

__all__ = [
    "Span",
    "span",
    "current",
    "attach",
    "telemetry_enabled",
    "set_enabled",
    "add_exporter",
    "remove_exporter",
]

#: Environment opt-out: any of these values disables spans and events.
TELEMETRY_ENV = "REPRO_TELEMETRY"
_DISABLED_VALUES = ("0", "false", "no", "off")

#: Tri-state programmatic override (None = follow the environment).
_ENABLED_OVERRIDE: Optional[bool] = None

_SEQ = itertools.count(1)
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)

#: Finished-span callbacks.  Copy-on-write under the lock, so ``_finish``
#: iterates the current tuple without taking it.
_EXPORTERS_LOCK = threading.Lock()
_EXPORTERS: Tuple[Callable[["Span"], None], ...] = ()


def telemetry_enabled() -> bool:
    """Whether spans/events are live (env ``REPRO_TELEMETRY``, default on)."""
    if _ENABLED_OVERRIDE is not None:
        return _ENABLED_OVERRIDE
    return os.environ.get(TELEMETRY_ENV, "1").strip().lower() not in _DISABLED_VALUES


def set_enabled(flag: Optional[bool]) -> None:
    """Force telemetry on/off (``None`` restores the environment default)."""
    global _ENABLED_OVERRIDE
    _ENABLED_OVERRIDE = flag


def _next_id() -> str:
    # Counter + pid, not an RNG: ids must be unique per process, and this
    # module is imported by seeded numeric code whose RNG streams must not
    # move when tracing turns on.
    return f"{os.getpid():x}-{next(_SEQ):x}"


class Span:
    """One live (or finished) traced unit of work, and its own context
    manager: entering makes it the current span, leaving finishes it."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "start_unix", "_start", "duration_s", "status", "_token",
    )

    def __init__(self, name: str, parent: Optional["Span"], attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = _next_id()
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = parent.trace_id if parent is not None else self.span_id
        self.attrs = attrs
        # Wall timestamp is observational metadata on the event record, never
        # an input to computation.
        # repro-lint: allow[R1] telemetry timestamp, observational only
        self.start_unix = time.time()
        self._start = time.perf_counter()
        self.duration_s: Optional[float] = None
        self.status = "ok"
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
        _finish(self)

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes on the live span."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """Shared no-op stand-in yielded while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CONTEXT = _NullContext()


def span(name: str, **attrs: Any):
    """Context manager for one traced unit of work (no-op when disabled)."""
    if not telemetry_enabled():
        return _NULL_CONTEXT
    return Span(name, _CURRENT.get(), attrs)


def current() -> Optional[Span]:
    """The innermost live span of this thread/task, if any."""
    return _CURRENT.get()


class attach:
    """Re-enter a captured span context on the far side of a thread hand-off.

    ``parent`` is whatever :func:`current` returned on the producing side
    (``None`` is fine — the consumer then runs unparented, exactly as if no
    trace were active).
    """

    __slots__ = ("_parent", "_token")

    def __init__(self, parent: Optional[Span]) -> None:
        self._parent = parent
        self._token = None

    def __enter__(self) -> Optional[Span]:
        self._token = _CURRENT.set(self._parent)
        return self._parent

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)


def add_exporter(exporter: Callable[[Span], None]) -> None:
    """Register a callback invoked with every finished span."""
    global _EXPORTERS
    with _EXPORTERS_LOCK:
        _EXPORTERS = (*_EXPORTERS, exporter)


def remove_exporter(exporter: Callable[[Span], None]) -> None:
    global _EXPORTERS
    with _EXPORTERS_LOCK:
        if exporter in _EXPORTERS:
            remaining = list(_EXPORTERS)
            remaining.remove(exporter)
            _EXPORTERS = tuple(remaining)


# Finished-span metric series, cached per (name, status): the registry
# get-or-create plus label resolution costs ~5us per lookup, which multiplies
# on hot serving paths (one span per micro-batch flush).  Series objects are
# stable once created, so caching them is safe.
_SERIES_CACHE_LOCK = threading.Lock()
_SPAN_SERIES: Dict[Tuple[str, str], Tuple[Any, Any]] = {}


def _finish(finished: Span) -> None:
    key = (finished.name, finished.status)
    series = _SPAN_SERIES.get(key)
    if series is None:
        series = (
            REGISTRY.counter(
                "repro_spans_total", "Finished spans by name", ("name", "status")
            ).labels(name=finished.name, status=finished.status),
            REGISTRY.histogram(
                "repro_span_seconds", "Span durations by name", ("name",)
            ).labels(name=finished.name),
        )
        with _SERIES_CACHE_LOCK:
            _SPAN_SERIES[key] = series
    counter, timer = series
    counter.inc()
    timer.observe(finished.duration_s or 0.0)
    for exporter in _EXPORTERS:
        try:
            exporter(finished)
        except Exception:
            # A broken exporter must never fail the traced work itself.
            pass
