"""Micro-batching executor: coalesce many callers into one batched ``localize``.

Per-request model inference pays the full Python/NumPy dispatch overhead for
every single fingerprint; the batched prediction path amortizes it across the
whole batch.  :class:`MicroBatcher` exploits that for serving throughput:
requests from many callers (e.g. the threads of the HTTP server) queue up and
a background flusher drains them as *one* batched call.

The flusher is greedy: it sleeps only while the queue is empty, and as soon
as it is free it takes the queued requests in arrival order until
``max_batch`` fingerprints are taken (a request is never split).  Requests
that arrive while a batch computes queue up and become the next batch, so
the batch size follows the arrival rate instead of a timer, and a request
that finds the flusher idle is flushed at once.

Results are split back per request, so batching is invisible to callers —
``batcher.localize(x)`` is bit-identical to ``localize_fn(x)``: the batched
prediction path is row-wise deterministic, and rows are concatenated and
split in strict arrival order.

The batcher is generic over the flush target: pass
``service.localize`` for a single model or
``functools.partial(gateway.localize, endpoint)`` for one gateway endpoint
(batches must never mix endpoints — different models disagree on feature
dimensionality and semantics).  It counts submissions and flushes
(:class:`BatchStats`); a request's outcome and latency are its caller's to
count, which :class:`~repro.serve.http.ServingApp` does once per request.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from ..obs import trace
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..api import LocalizationResult
    from ..obs.trace import Span

__all__ = ["BatchStats", "MicroBatcher"]

#: Flush-size histogram boundaries (fingerprints per batched call).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class _Pending:
    features: np.ndarray
    future: Future
    #: Span live in the submitting thread, re-attached by the flusher so the
    #: batched flush nests under the request that opened the batch.
    trace_parent: "Optional[Span]" = None


class BatchStats:
    """Flush counters of one :class:`MicroBatcher`.

    A thin view over ``repro_batch_*`` registry series (labeled by
    endpoint), keeping ``as_dict()`` byte-compatible with the pre-registry
    dataclass.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        endpoint: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.endpoint = endpoint or "_unnamed"
        label = {"endpoint": self.endpoint}
        self._requests = self.registry.counter(
            "repro_batch_requests_total",
            "Requests submitted to the micro-batcher", ("endpoint",),
        ).labels(**label)
        self._fingerprints = self.registry.counter(
            "repro_batch_fingerprints_total",
            "Fingerprints flushed through batched calls", ("endpoint",),
        ).labels(**label)
        self._batches = self.registry.counter(
            "repro_batches_total", "Batched flush calls", ("endpoint",),
        ).labels(**label)
        self._sizes = self.registry.histogram(
            "repro_batch_size",
            "Fingerprints per flushed batch", ("endpoint",),
            buckets=_BATCH_SIZE_BUCKETS,
        ).labels(**label)
        self.max_batch_size = 0

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def fingerprints(self) -> int:
        return int(self._fingerprints.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    def record_request(self) -> None:
        self._requests.inc()

    def record_batch(self, rows: int) -> None:
        self._batches.inc()
        self._fingerprints.inc(int(rows))
        self._sizes.observe(int(rows))
        self.max_batch_size = max(self.max_batch_size, int(rows))

    def as_dict(self) -> Dict[str, Any]:
        batches = self.batches
        mean = self.fingerprints / batches if batches else None
        return {
            "requests": self.requests,
            "fingerprints": self.fingerprints,
            "batches": batches,
            "mean_batch_size": round(mean, 3) if mean is not None else None,
            "max_batch_size": self.max_batch_size if batches else None,
        }


class MicroBatcher:
    """Queue requests and flush them as one batched ``localize`` call.

    Parameters
    ----------
    localize_fn:
        Callable taking one ``(n, num_aps)`` feature array and returning a
        :class:`~repro.api.LocalizationResult` for it.
    max_batch:
        The flusher stops taking queued requests once this many fingerprints
        are taken (a single request larger than ``max_batch`` still flushes
        as one batch — requests are never split).

    A flush calls ``localize_fn`` once on the concatenated batch.  If that
    call raises, each request of a batch of several is retried alone
    through ``localize_fn``, in arrival order, so each caller gets its own
    result or its own error; a request that flushed alone gets the error
    it raised.
    """

    def __init__(
        self,
        localize_fn: Callable[[np.ndarray], "LocalizationResult"],
        max_batch: int = 64,
        registry: Optional[MetricsRegistry] = None,
        endpoint: str = "",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.localize_fn = localize_fn
        self.max_batch = int(max_batch)
        self.stats = BatchStats(registry=registry, endpoint=endpoint)
        self._queue_depth = self.stats.registry.gauge(
            "repro_batch_queue_depth",
            "Fingerprints currently queued for flushing", ("endpoint",),
        ).labels(endpoint=self.stats.endpoint)
        self._queue: Deque[_Pending] = deque()
        #: Fingerprints in ``_queue``, kept up to date under ``_lock``.
        self._queued_rows = 0
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._flusher.start()

    # -- client side ----------------------------------------------------
    def submit(self, features: Sequence) -> "Future[LocalizationResult]":
        """Enqueue one request; the future resolves to its own result slice."""
        array = np.asarray(features, dtype=np.float64)
        if array.ndim == 1:
            array = array[None, :]
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(_Pending(array, future, trace.current()))
            self._queued_rows += array.shape[0]
            self.stats.record_request()
            self._queue_depth.set(self._queued_rows)
            # The flusher waits only on an empty queue; a busy flusher finds
            # this request when it comes back for the next batch.
            if len(self._queue) == 1:
                self._wakeup.notify()
        return future

    def localize(self, features: Sequence) -> "LocalizationResult":
        """Blocking convenience around :meth:`submit`."""
        return self.submit(features).result()

    # -- flusher --------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
                batch: List[_Pending] = []
                rows = 0
                while self._queue and rows < self.max_batch:
                    item = self._queue.popleft()
                    batch.append(item)
                    rows += item.features.shape[0]
                self._queued_rows -= rows
                self._queue_depth.set(self._queued_rows)
            # The flusher thread has no ambient trace context of its own;
            # re-enter the context of the request that opened the batch so
            # the flush span nests under it.
            with trace.attach(batch[0].trace_parent):
                with trace.span(
                    "serve.batch.flush",
                    endpoint=self.stats.endpoint,
                    requests=len(batch),
                    batch_size=rows,
                ):
                    self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        try:
            features = np.concatenate([item.features for item in batch], axis=0)
            result = self.localize_fn(features)
        except Exception as error:
            if len(batch) > 1:
                # One bad request (e.g. a mismatched fingerprint width) must
                # neither kill the flusher thread nor fail its batch-mates:
                # degrade to per-request calls so each caller gets its own
                # result or its own error.
                self._flush_individually(batch)
            elif batch[0].future.set_running_or_notify_cancel():
                # A lone request already ran alone; running it again would
                # pay the model and the guard twice for the same error.
                batch[0].future.set_exception(error)
            return
        self.stats.record_batch(features.shape[0])
        start = 0
        for item in batch:
            stop = start + item.features.shape[0]
            # A caller may have cancelled its future (e.g. after a result()
            # timeout); set_result would then raise InvalidStateError and
            # kill the flusher.  set_running_or_notify_cancel returns False
            # exactly for cancelled futures — skip those.
            if item.future.set_running_or_notify_cancel():
                item.future.set_result(_slice_result(result, start, stop))
            start = stop

    def _flush_individually(self, batch: List[_Pending]) -> None:
        for item in batch:
            if not item.future.set_running_or_notify_cancel():
                continue  # caller cancelled while queued
            try:
                result = self.localize_fn(item.features)
            except Exception as error:
                item.future.set_exception(error)
            else:
                self.stats.record_batch(item.features.shape[0])
                item.future.set_result(result)

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Drain the queue and stop the flusher thread."""
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._flusher.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _slice_result(result: "LocalizationResult", start: int, stop: int):
    """One request's slice of a batched :class:`LocalizationResult`."""
    from ..api import LocalizationResult

    return LocalizationResult(
        labels=result.labels[start:stop],
        coordinates=result.coordinates[start:stop],
        error_estimate=result.error_estimate[start:stop],
        probabilities=(
            result.probabilities[start:stop]
            if result.probabilities is not None
            else None
        ),
        guard_flags=(
            result.guard_flags[start:stop]
            if result.guard_flags is not None
            else None
        ),
        served_ref=result.served_ref,
    )
