"""The serving application behind ``repro serve``, plus a thin client.

Endpoints
---------
``POST /v1/localize``
    Body ``{"model": "<endpoint or store ref>", "fingerprints": [[...], ...]}``
    (a single flat fingerprint list is promoted to a batch of one; pass
    ``"probabilities": true`` to include class probabilities).  Responds with
    labels, coordinates, and per-query error estimates — bit-identical to a
    direct :meth:`LocalizationService.localize` call on the same arrays.
    Bodies may be JSON, raw-ndarray or msgpack (:mod:`.aio.protocol`);
    responses mirror the request encoding.
``GET /v1/models``
    The machine-readable model catalog: the store's published models (same
    entry shape as ``repro list-models --json``) plus the gateway's routes.
``GET /healthz``
    Liveness probe: status, version, uptime, model count.
``GET /metrics``
    Per-endpoint request counters and latency percentiles under
    ``gateway.endpoints``: one count per localize request, under the
    endpoint it asked for, timed from where it enters :class:`ServingApp`
    to its answer (the batch wait included), whether or not it was
    coalesced into a bigger batch.  Next to them the gateway's routing and
    LRU state, per-endpoint micro-batching and shadow stats
    (``?format=prometheus`` renders the text exposition instead).

:class:`ServingApp` is everything behind the wire; the asyncio front end in
:mod:`repro.serve.aio.server` is its transport.

Programmatic use::

    with AioServerThread(ModelStore("./store")) as server:    # any free port
        client = ServiceClient(server.base_url)
        result = client.localize(fingerprints, model="calloc@prod")
"""

from __future__ import annotations

import contextvars
import http.client
import threading
import time
import urllib.parse
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Set, Union

import numpy as np

from ..defenses.base import GuardRejectedError
from ..obs import metrics as obs_metrics
from ..obs import prom
from ..obs.metrics import MetricsRegistry
# Codec calls go through the module (``protocol.<name>``), never a
# from-import, so that patching the module's functions reaches every call.
from .aio import protocol
from .aio.routing import (
    RouteSpec,
    RoutingDecision,
    ShadowStats,
    decide_route,
    parse_route_value,
)
from .batching import MicroBatcher
from .gateway import Gateway, _ms, percentile
from .store import ModelStore, StoreError

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

    from ..api import LocalizationResult

# The coroutines below import asyncio on first use: ``import repro`` loads
# this module, and code that never serves should not pay for the event loop.

__all__ = ["ConnectionMetrics", "EndpointStats", "ServingApp", "ServiceClient"]

#: The ``transport`` label of the HTTP series.  One front end is left, but the
#: label is part of the ``/metrics`` and Prometheus format.
TRANSPORT = "aio"


class ConnectionMetrics:
    """Connection lifecycle series of the HTTP front end.

    Connections accepted and closed, currently active, and keep-alive
    reuses (requests after the first on one connection).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        label = {"transport": TRANSPORT}
        self.accepted = registry.counter(
            "repro_http_connections_accepted_total",
            "Connections accepted by the server", ("transport",),
        ).labels(**label)
        self.closed = registry.counter(
            "repro_http_connections_closed_total",
            "Connections closed by the server", ("transport",),
        ).labels(**label)
        self.active = registry.gauge(
            "repro_http_connections_active",
            "Connections currently open", ("transport",),
        ).labels(**label)
        self.keepalive_reuses = registry.counter(
            "repro_http_keepalive_reuses_total",
            "Requests served on an already-used keep-alive connection",
            ("transport",),
        ).labels(**label)

    def connection_opened(self) -> None:
        self.accepted.inc()
        self.active.inc()

    def connection_closed(self) -> None:
        self.closed.inc()
        self.active.dec()

    def request_on_connection(self, nth: int) -> None:
        """Record the ``nth`` (1-based) request of one connection."""
        if nth > 1:
            self.keepalive_reuses.inc()


def _flag_count(result: Any) -> int:
    flags = getattr(result, "guard_flags", None)
    return int(flags.sum()) if flags is not None else 0


#: Recent request latencies each endpoint keeps for its exact p50/p99/max
#: (bounds ``/metrics`` memory; the counters see every request).
LATENCY_WINDOW = 1024


class EndpointStats:
    """Request counters and latency stats of one served endpoint.

    :class:`ServingApp` records each request into it once (:meth:`record`),
    from executor threads and the event loop alike.  The counters are
    registry series (``repro_endpoint_*`` labeled by endpoint), so
    ``as_dict()`` and the Prometheus exposition show the same numbers.  The
    latency *window* (exact nearest-rank p50/p99 over the last
    :data:`LATENCY_WINDOW` requests) stays local — fixed histogram buckets
    cannot reproduce it.
    """

    def __init__(self, registry: MetricsRegistry, endpoint: str) -> None:
        def series(metric, name: str, help: str):
            return metric(name, help, ("endpoint",)).labels(endpoint=endpoint)

        counter = registry.counter
        self._requests = series(counter, "repro_endpoint_requests_total",
                                "Requests served per endpoint")
        self._fingerprints = series(counter, "repro_endpoint_fingerprints_total",
                                    "Fingerprints scored per endpoint")
        self._errors = series(counter, "repro_endpoint_errors_total",
                              "Failed requests per endpoint")
        self._flagged = series(counter, "repro_endpoint_guard_flagged_total",
                               "Fingerprints the inference guard flagged as adversarial")
        self._rejected = series(counter, "repro_endpoint_guard_rejected_total",
                                "Requests an enforcing guard rejected (HTTP 403)")
        self._latency = series(registry.histogram, "repro_endpoint_latency_seconds",
                               "Request latency per endpoint")
        self.latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self.last_request_unix: Optional[float] = None
        self._lock = threading.Lock()

    def record(
        self, seconds: float, result: Any = None, error: Optional[Exception] = None
    ) -> None:
        """One request's outcome: its result, or the error it raised.

        A guard rejection counts its flagged fingerprints and one rejection,
        not an error.
        """
        if isinstance(error, GuardRejectedError):
            self._flagged.inc(len(error.flagged_indices))
            self._rejected.inc()
            return
        if error is not None:
            self._errors.inc()
            return
        flagged = _flag_count(result)
        if flagged:
            self._flagged.inc(flagged)
        self._requests.inc()
        self._fingerprints.inc(len(result))
        self._latency.observe(seconds)
        with self._lock:
            self.latencies.append(seconds)
            self.last_request_unix = time.time()

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            window = list(self.latencies)
            last_request_unix = self.last_request_unix
        requests = int(self._requests.value)
        mean_ms = self._latency.sum / requests * 1000.0 if requests else None
        return {
            "requests": requests,
            "fingerprints": int(self._fingerprints.value),
            "errors": int(self._errors.value),
            "guard": {
                "flagged": int(self._flagged.value),
                "rejected": int(self._rejected.value),
            },
            "latency_ms": {
                "mean": round(mean_ms, 4) if mean_ms is not None else None,
                "p50": _ms(percentile(window, 50.0)),
                "p99": _ms(percentile(window, 99.0)),
                "max": _ms(max(window) if window else None),
            },
            "last_request_unix": last_request_unix,
        }


class ServingApp:
    """The serving application behind the HTTP front end (and the benchmarks).

    Owns the gateway plus one :class:`MicroBatcher` per endpoint (batches
    must never mix endpoints), and every request goes through its
    endpoint's batcher; ``max_batch=1`` makes each request its own model
    call.  :meth:`localize` is the synchronous in-process entry; the front
    end awaits :meth:`localize_document`, which adds shadow routing and
    runs blocking store I/O on the app's executor so the event loop never
    blocks.  Both record each request once in the :class:`EndpointStats` of
    the endpoint it asked for, when its answer or error comes back.

    ``store`` may be a :class:`ModelStore` or a store root path.  ``routes``
    values may be plain store refs (``"knn@prod"``), the canary grammar
    (``"knn@prod,shadow=knn@v2,fraction=0.1"``) or
    :class:`~repro.serve.aio.routing.RouteSpec` objects.  ``worker_id``
    labels ``/healthz`` and ``/metrics`` in a multi-process fleet.

    Every serving metric — gateway, per-endpoint stats, batching, shadow
    arms, HTTP and connection counters — lives in one private
    :class:`MetricsRegistry`, so independent apps never share counts; the
    Prometheus exposition renders it merged with the process-global
    registry.
    """

    def __init__(
        self,
        store: Union[ModelStore, str, None],
        routes: Optional[Mapping[str, Union[str, RouteSpec]]] = None,
        max_batch: int = 64,
        max_loaded: int = 8,
        watch_interval_s: float = 0.0,
        worker_id: Optional[int] = None,
    ) -> None:
        if not isinstance(store, ModelStore):
            store = ModelStore(store)
        # String values accept the full canary grammar
        # ("REF[,shadow=REF][,fraction=P]..."), so supervisor configs and CLI
        # route maps need no RouteSpec plumbing.
        self.route_specs: Dict[str, RouteSpec] = {
            endpoint: spec if isinstance(spec, RouteSpec) else parse_route_value(str(spec))
            for endpoint, spec in (routes or {}).items()
        }
        self.registry = MetricsRegistry()
        self.gateway = Gateway(
            store,
            max_loaded=max_loaded,
            routes={ep: spec.ref for ep, spec in self.route_specs.items()},
            watch_interval_s=watch_interval_s,
            registry=self.registry,
        )
        self.shadow_stats: Dict[str, ShadowStats] = {
            endpoint: ShadowStats(endpoint, spec, registry=self.registry)
            for endpoint, spec in self.route_specs.items()
            if spec.has_shadow
        }
        self.max_batch = int(max_batch)
        self.worker_id = worker_id
        self.started_unix = time.time()
        self._batchers: Dict[str, MicroBatcher] = {}
        self._endpoint_stats: Dict[str, EndpointStats] = {}
        self._lock = threading.Lock()
        self._closed = False
        # Runs blocking store I/O and document builders off the event loop.
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-aio"
        )
        self._shadow_tasks: Set["asyncio.Task[None]"] = set()
        self.connection_metrics = ConnectionMetrics(self.registry)
        # HTTP-layer accounting: requests are counted against the endpoint
        # *they asked for*, before model resolution, so unknown endpoints
        # show up in per-endpoint error rates (the endpoint stats
        # deliberately never create entries for names that do not resolve).
        # Cardinality is capped by the registry's per-metric series limit.
        self._http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests received, by transport and requested endpoint",
            ("transport", "endpoint"),
        )
        self._http_responses = self.registry.counter(
            "repro_http_responses_total",
            "HTTP responses sent, by transport, requested endpoint and status",
            ("transport", "endpoint", "status"),
        )

    # -- http accounting -------------------------------------------------
    def record_http_request(self, endpoint: str) -> None:
        """Count one received request (pre-resolution; 404s included)."""
        self._http_requests.labels(transport=TRANSPORT, endpoint=endpoint).inc()

    def record_http_response(self, endpoint: str, status: int) -> None:
        self._http_responses.labels(
            transport=TRANSPORT, endpoint=endpoint, status=str(int(status))
        ).inc()

    @staticmethod
    def requested_endpoint(payload: Any) -> str:
        """The endpoint a localize payload asked for, resolvable or not."""
        if isinstance(payload, Mapping):
            model = payload.get("model")
            if isinstance(model, str) and model:
                return model
        return "_invalid"

    # -- request paths --------------------------------------------------
    def _batcher(self, endpoint: str) -> Optional[MicroBatcher]:
        with self._lock:
            return self._batchers.get(endpoint)

    def batcher_for(self, endpoint: str) -> MicroBatcher:
        """The endpoint's batcher, created by the endpoint's first request.

        Only that first request resolves the endpoint (and loads its model):
        each batcher owns a flusher thread, so an unknown name must 404
        before one exists.  Later requests go straight to the batcher, whose
        flush pins and resolves the ref inside :meth:`Gateway.localize`.
        """
        batcher = self._batcher(endpoint)
        if batcher is not None:
            return batcher
        self.gateway.service_for(endpoint)
        with self._lock:
            # A batcher made after close() would keep its flusher forever.
            if self._closed:
                raise RuntimeError("ServingApp is closed")
            batcher = self._batchers.get(endpoint)
            if batcher is None:
                batcher = MicroBatcher(
                    partial(self.gateway.localize, endpoint),
                    max_batch=self.max_batch,
                    registry=self.registry,
                    endpoint=endpoint,
                )
                self._batchers[endpoint] = batcher
            return batcher

    def _count(
        self,
        endpoint: str,
        start: float,
        result: Optional["LocalizationResult"] = None,
        error: Optional[Exception] = None,
    ) -> None:
        """Record one request's outcome under the endpoint it asked for.

        An unknown endpoint (:class:`StoreError`) leaves no entry: a fuzzing
        client must not grow ``/metrics`` by one entry per bogus name.
        """
        if isinstance(error, StoreError):
            return
        with self._lock:
            stats = self._endpoint_stats.get(endpoint)
            if stats is None:
                stats = self._endpoint_stats[endpoint] = EndpointStats(self.registry, endpoint)
        stats.record(time.perf_counter() - start, result, error)

    def localize(self, endpoint: str, features: Sequence) -> "LocalizationResult":
        """One request through the endpoint's batcher, blocking until answered."""
        start = time.perf_counter()
        try:
            result = self.batcher_for(endpoint).localize(features)
        except Exception as error:
            self._count(endpoint, start, error=error)
            raise
        self._count(endpoint, start, result)
        return result

    async def _score(self, endpoint: str, features: np.ndarray):
        """One request through the sync stack without blocking the event loop,
        counted under ``endpoint`` like :meth:`localize`."""
        import asyncio

        loop = asyncio.get_running_loop()
        # Executor threads start from an empty contextvars context; running
        # the call inside a copy of *this* task's context keeps the live
        # request span parented through the thread hop.
        context = contextvars.copy_context()
        start = time.perf_counter()
        try:
            batcher = self._batcher(endpoint)
            if batcher is None:
                # The first load's store I/O (and the 404 for an unknown
                # name) happens on the executor, never on the event loop.
                batcher = await loop.run_in_executor(
                    self._executor, context.run, self.batcher_for, endpoint
                )
            result = await asyncio.wrap_future(batcher.submit(features))
        except Exception as error:
            self._count(endpoint, start, error=error)
            raise
        self._count(endpoint, start, result)
        return result

    async def localize_document(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Handle a decoded ``POST /v1/localize`` body; returns the response."""
        import asyncio

        endpoint, features, probabilities = protocol.parse_localize_payload(payload)
        spec = self.route_specs.get(endpoint)
        stats = self.shadow_stats.get(endpoint)
        decision = (
            decide_route(spec, features)
            if spec is not None and spec.has_shadow
            else RoutingDecision()
        )
        target = spec.shadow if decision.serve_shadow else endpoint
        start = time.perf_counter()
        result = await self._score(target, features)
        elapsed = time.perf_counter() - start
        if stats is not None:
            stats.record_request(decision)
            if decision.serve_shadow:
                stats.record_arm("shadow", elapsed, len(result), _flag_count(result))
            elif decision.mirror_shadow:
                stats.record_arm("primary", elapsed, len(result), _flag_count(result))
                task = asyncio.get_running_loop().create_task(
                    self._mirror(spec, stats, features, result)
                )
                self._shadow_tasks.add(task)
                task.add_done_callback(self._shadow_tasks.discard)
        # ``ref`` is the *pinned immutable version* the response came from
        # (``knn@v2``), the field clients watch to observe a hot promote flip.
        # The gateway stamps it at scoring time — re-reading the pin here
        # could race a concurrent promote and tear the response.
        ref = result.served_ref or self.gateway.resolved_version(target)
        return protocol.build_localize_document(endpoint, ref, result, probabilities)

    async def _mirror(
        self,
        spec: RouteSpec,
        stats: ShadowStats,
        features: np.ndarray,
        primary_result: Any,
    ) -> None:
        """Score a mirrored copy on the shadow and record the paired outcome."""
        start = time.perf_counter()
        try:
            shadow_result = await self._score(spec.shadow, features)
        except GuardRejectedError as error:
            # The candidate's enforcing guard rejected traffic the primary
            # served: that is signal, not noise — count the flags so the
            # canary comparison sees the stricter guard.
            stats.record_arm(
                "shadow",
                time.perf_counter() - start,
                features.shape[0],
                len(error.flagged_indices),
            )
            return
        except Exception:
            stats.record_shadow_error()
            return
        stats.record_arm(
            "shadow",
            time.perf_counter() - start,
            len(shadow_result),
            _flag_count(shadow_result),
        )
        mismatches = int(
            np.sum(
                np.asarray(primary_result.labels) != np.asarray(shadow_result.labels)
            )
        )
        stats.record_comparison(mismatches, len(shadow_result))

    # -- documents ------------------------------------------------------
    def models_document(self) -> Dict[str, Any]:
        """``GET /v1/models``: the shared machine-readable catalog format."""
        from ..registry import catalog_document

        document = catalog_document("served-model", self.gateway.store.catalog())
        document["routes"] = self.gateway.routes()
        shadowed = {
            endpoint: spec.as_dict()
            for endpoint, spec in self.route_specs.items()
            if spec.has_shadow
        }
        if shadowed:
            document["shadow_routes"] = shadowed
        return document

    def health_document(self) -> Dict[str, Any]:
        from .. import __version__

        document = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "models": len(self.gateway.store.list_models()),
            "frontend": "aio",
            "content_types": protocol.supported_content_types(),
        }
        if self.worker_id is not None:
            document["worker"] = self.worker_id
        return document

    def metrics_document(self) -> Dict[str, Any]:
        with self._lock:
            batching = {
                endpoint: batcher.stats.as_dict()
                for endpoint, batcher in self._batchers.items()
            }
            endpoint_stats = dict(self._endpoint_stats)
        endpoints = {
            endpoint: stats.as_dict() for endpoint, stats in endpoint_stats.items()
        }
        document = {
            "gateway": {"endpoints": endpoints, **self.gateway.stats()},
            "batching": {
                "max_batch": self.max_batch,
                "endpoints": batching,
            },
            # The HTTP layer's own accounting, including endpoints that
            # never resolved.
            "server": self.server_document(),
            "shadow": {
                endpoint: stats.as_dict()
                for endpoint, stats in self.shadow_stats.items()
            },
        }
        if self.worker_id is not None:
            document["worker"] = self.worker_id
        return document

    def server_document(self) -> Dict[str, Any]:
        """Transport-level accounting: connections and raw request counts."""
        conn = self.connection_metrics
        connections = {
            TRANSPORT: {
                "accepted": int(conn.accepted.value),
                "closed": int(conn.closed.value),
                "active": int(conn.active.value),
                "keepalive_reuses": int(conn.keepalive_reuses.value),
            }
        }
        requests: Dict[str, Dict[str, int]] = {}
        for labels, series in self._http_requests.collect():
            (transport, endpoint) = labels["transport"], labels["endpoint"]
            requests.setdefault(transport, {})[endpoint] = int(series.value)
        responses: Dict[str, Dict[str, Dict[str, int]]] = {}
        for labels, series in self._http_responses.collect():
            by_endpoint = responses.setdefault(labels["transport"], {})
            by_endpoint.setdefault(labels["endpoint"], {})[labels["status"]] = int(
                series.value
            )
        return {
            "connections": connections,
            "requests": requests,
            "responses": responses,
        }

    def prometheus_text(self) -> str:
        """The merged Prometheus exposition (app registry + process globals)."""
        return prom.render_registries(
            obs_metrics.registries_for_exposition(self.registry)
        )

    # -- lifecycle ------------------------------------------------------
    async def shadow_quiesce(self) -> None:
        """Wait until every in-flight shadow mirror task has recorded."""
        import asyncio

        while self._shadow_tasks:
            await asyncio.gather(*list(self._shadow_tasks), return_exceptions=True)

    def close(self) -> None:
        """Stop the batchers' flusher threads and the executor."""
        with self._lock:
            self._closed = True
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
        self._executor.shutdown(wait=False)

    async def aclose(self) -> None:
        """Drain in-flight shadow tasks, then tear down the sync stack."""
        await self.shadow_quiesce()
        self.close()


#: Failures that mean "the server closed our idle keep-alive connection" —
#: safe to retry exactly once on a fresh connection.  Timeouts are excluded:
#: the request may have executed, so retrying could double-submit it.
_RETRYABLE = (
    http.client.BadStatusLine,  # includes RemoteDisconnected
    http.client.CannotSendRequest,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceClient:
    """Thin client for a ``repro serve`` endpoint.

    :meth:`localize` mirrors :meth:`LocalizationService.localize`: it returns
    a :class:`~repro.api.LocalizationResult` built from the response arrays.

    The client holds one keep-alive connection and reuses it across requests
    (``connections_opened`` counts how many were actually established).  A
    server may close an idle connection between requests; a send that then
    fails with a connection-level error is retried exactly once on a fresh
    connection before surfacing.  ``content_type`` selects the wire encoding
    for localize bodies: JSON (default), ``application/x-repro-ndarray``, or
    ``application/msgpack`` where available.  Not thread-safe — use one
    client per thread (the benchmark drivers do).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        content_type: str = protocol.CONTENT_JSON,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.content_type = protocol.normalize_content_type(content_type)
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"ServiceClient speaks plain http, got '{split.scheme}'")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Connections actually established (1 across N requests = keep-alive).
        self.connections_opened = 0

    # -- plumbing -------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        connection.connect()
        self.connections_opened += 1
        return connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        content_type: Optional[str] = None,
    ) -> Dict[str, Any]:
        method = "GET" if payload is None else "POST"
        encoding = content_type or self.content_type
        body = protocol.encode_body(payload, encoding) if payload is not None else None
        headers = {"Content-Type": encoding} if body is not None else {}
        for attempt in (0, 1):
            reused = self._connection is not None
            connection = self._connection or self._connect()
            self._connection = None
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except _RETRYABLE as error:
                connection.close()
                # Only a *reused* connection can have been closed while idle;
                # a failure on a fresh one is a real error.  One retry max.
                if reused and attempt == 0:
                    continue
                raise RuntimeError(
                    f"{method} {path} failed: {type(error).__name__}: {error}"
                ) from error
            except OSError:
                connection.close()
                raise
            self._connection = connection  # keep alive for the next request
            response_type = protocol.normalize_content_type(
                response.getheader("Content-Type")
            )
            if response.status != 200:
                try:
                    message = protocol.decode_body(raw, response_type).get("error", "")
                except Exception:
                    message = raw.decode("utf-8", "replace")
                raise RuntimeError(
                    f"{method} {path} failed with {response.status}: {message}"
                )
            return protocol.decode_body(raw, response_type)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoints ------------------------------------------------------
    def localize_document(
        self,
        fingerprints: Sequence,
        model: str,
        probabilities: bool = False,
    ) -> Dict[str, Any]:
        """The raw ``/v1/localize`` response document (includes the served
        ``ref``, so promote/canary tooling can see which version answered)."""
        features = np.asarray(fingerprints, dtype=np.float64)
        payload: Dict[str, Any] = {"model": model, "fingerprints": features}
        if probabilities:
            payload["probabilities"] = True
        return self._request("/v1/localize", payload)

    def localize(
        self,
        fingerprints: Sequence,
        model: str,
        probabilities: bool = False,
    ) -> "LocalizationResult":
        """Localize a batch through the HTTP API; bit-identical to direct calls."""
        from ..api import LocalizationResult

        document = self.localize_document(fingerprints, model, probabilities)
        error_estimate = np.array(
            [np.nan if v is None else v for v in document["error_estimate"]],
            dtype=np.float64,
        )
        proba = document.get("probabilities")
        return LocalizationResult(
            labels=np.asarray(document["labels"], dtype=np.int64),
            coordinates=np.asarray(document["coordinates"], dtype=np.float64).reshape(
                len(document["labels"]), 2
            ),
            error_estimate=error_estimate,
            probabilities=(
                np.asarray(proba, dtype=np.float64)
                if proba is not None and len(proba)
                else None
            ),
        )

    def models(self) -> Dict[str, Any]:
        return self._request("/v1/models")

    def health(self) -> Dict[str, Any]:
        return self._request("/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")
